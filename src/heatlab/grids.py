"""Grids, fields and snapshot I/O shared by the solvers and the barrier checks."""

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

BOX = "box"
BALL = "ball"
TUNNEL = "tunnel"


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a box, a unit ball, or a truncated tunnel.

    ``shape`` counts nodes per axis including boundary nodes.  ``kind``
    fixes the lateral boundary handling: Dirichlet zero on the outer box
    faces for ``box`` and ``tunnel``; for ``ball`` additionally every node
    with |x| >= 1 is pinned to zero (staircase Dirichlet sphere).
    ``axes``, ``spacing``, ``cell_volume`` and ``points()`` are computed
    once per grid; the arrays are read-only because every caller shares
    them.
    """

    kind: str
    lo: tuple
    hi: tuple
    shape: tuple
    dt: float

    def __post_init__(self):
        if self.kind not in (BOX, BALL, TUNNEL):
            raise ConfigurationError(f"unknown grid kind {self.kind!r}")
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.shape):
            raise ConfigurationError("grid extents/shape rank mismatch")
        if len(self.shape) not in (1, 2):
            raise ConfigurationError("only 1D and 2D grids are supported")
        if any(n < 5 for n in self.shape):
            raise ConfigurationError("grids need at least 5 nodes per axis")
        if not self.dt > 0:
            raise ConfigurationError("time step must be positive")

    @property
    def ndim(self):
        return len(self.shape)

    @cached_property
    def axes(self):
        axes = tuple(np.linspace(self.lo[i], self.hi[i], self.shape[i])
                     for i in range(self.ndim))
        for a in axes:
            a.flags.writeable = False
        return axes

    @cached_property
    def spacing(self):
        return tuple((self.hi[i] - self.lo[i]) / (self.shape[i] - 1)
                     for i in range(self.ndim))

    @cached_property
    def cell_volume(self):
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def points(self):
        """All node coordinates, shape (n_nodes, ndim), row-major."""
        return self._points

    @cached_property
    def _points(self):
        if self.ndim == 1:
            pts = self.axes[0][:, None]
        else:
            X, Y = np.meshgrid(*self.axes, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
        pts.flags.writeable = False
        return pts

    def interior_mask(self):
        """Nodes evolved by the solver (True) vs pinned Dirichlet nodes."""
        mask = np.ones(self.shape, dtype=bool)
        if self.ndim == 1:
            mask[0] = mask[-1] = False
        else:
            mask[0, :] = mask[-1, :] = False
            mask[:, 0] = mask[:, -1] = False
        if self.kind == BALL:
            pts = self.points().reshape(self.shape + (self.ndim,))
            mask &= np.linalg.norm(pts, axis=-1) < 1.0
        return mask

    def describe(self):
        dims = "x".join(str(n) for n in self.shape)
        spac = ",".join(f"{h:.6g}" for h in self.spacing)
        return f"{self.kind}[{dims}] h=({spac}) dt={self.dt:.6g}"

    # convenience constructors -----------------------------------------
    @classmethod
    def interval(cls, lo, hi, n, dt, kind=BOX):
        return cls(kind, (float(lo),), (float(hi),), (int(n),), float(dt))

    @classmethod
    def unit_ball(cls, n, dt, ndim=1):
        if ndim == 1:
            return cls(BALL, (-1.0,), (1.0,), (int(n),), float(dt))
        return cls(BALL, (-1.0, -1.0), (1.0, 1.0), (int(n), int(n)), float(dt))

    @classmethod
    def tunnel(cls, length, n_axis, n_cross, dt, cross_radius=1.0):
        return cls(TUNNEL, (-float(length), -float(cross_radius)),
                   (float(length), float(cross_radius)),
                   (int(n_axis), int(n_cross)), float(dt))


@dataclass
class Field:
    """Grid function at one time level.

    Physical values are ``values * exp(-log_scale)``; the log offset lets
    long linear-decay runs stay inside double range.  ``note`` flags
    non-function rows (e.g. a measure row at t = 0 for Dirac data).
    """

    grid: Grid
    values: np.ndarray
    time: float
    log_scale: float = 0.0
    note: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}")

    def physical(self):
        return self.values * np.exp(-self.log_scale)

    def copy(self):
        return Field(self.grid, self.values.copy(), self.time,
                     self.log_scale, self.note)

    def mass(self):
        """Grid-sum quadrature of the physical field."""
        return float(self.values.sum() * self.grid.cell_volume
                     * np.exp(-self.log_scale))


# ----------------------------------------------------------------------
# snapshots: plain text and flat little-endian binary
# ----------------------------------------------------------------------
_MAGIC = b"HLF1"


def save_field(fld, path, binary=False):
    vals = fld.physical()
    dims = fld.grid.shape
    spac = fld.grid.spacing
    if binary:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<i", len(dims)))
            fh.write(struct.pack(f"<{len(dims)}i", *dims))
            fh.write(struct.pack(f"<{len(spac)}d", *spac))
            fh.write(struct.pack("<d", fld.time))
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())
        return
    with open(path, "w") as fh:
        fh.write(f"# dims {' '.join(str(d) for d in dims)}\n")
        fh.write(f"# spacing {' '.join(f'{h:.17g}' for h in spac)}\n")
        fh.write(f"# time {fld.time:.17g}\n")
        for v in vals.ravel():
            fh.write(f"{v:.17g}\n")


def load_field(path, grid=None):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _MAGIC:
            (rank,) = struct.unpack("<i", fh.read(4))
            dims = struct.unpack(f"<{rank}i", fh.read(4 * rank))
            spac = struct.unpack(f"<{rank}d", fh.read(8 * rank))
            (time,) = struct.unpack("<d", fh.read(8))
            vals = np.frombuffer(fh.read(), dtype="<f8").reshape(dims)
        else:
            fh.seek(0)
            header = {}
            body = []
            for line in fh.read().decode().splitlines():
                if line.startswith("#"):
                    key, *rest = line[1:].split()
                    header[key] = rest
                elif line.strip():
                    body.append(float(line))
            dims = tuple(int(d) for d in header["dims"])
            spac = tuple(float(s) for s in header["spacing"])
            time = float(header["time"][0])
            vals = np.array(body).reshape(dims)
    if grid is None:
        half = tuple((d - 1) * s / 2 for d, s in zip(dims, spac))
        grid = Grid(BOX, tuple(-h for h in half), half, dims, dt=1.0)
    return Field(grid, np.array(vals), time)
