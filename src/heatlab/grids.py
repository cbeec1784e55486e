"""Uniform tensor grids and the fields that live on them."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

BOX = "box"
BALL = "ball"


def stencil_slices(ndim, axis):
    """Indices of the nodes inside ``axis`` and of their backward and
    forward neighbours along it, each with all of every other axis."""
    return tuple(tuple(slice(lo, hi) if i == axis else slice(None)
                       for i in range(ndim))
                 for lo, hi in ((1, -1), (None, -2), (2, None)))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a box or a unit ball.

    ``shape`` counts nodes per axis including boundary nodes.  ``kind``
    fixes the lateral boundary handling: Dirichlet zero on the outer box
    faces for ``box``; for ``ball`` additionally every node with |x| >= 1
    is pinned to zero (staircase Dirichlet sphere).
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
        if self.kind not in (BOX, BALL):
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
        return math.prod(self.spacing)

    def points(self):
        """All node coordinates, shape (n_nodes, ndim), row-major."""
        return self._points

    @cached_property
    def _points(self):
        pts = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1) \
            .reshape(-1, self.ndim)
        pts.flags.writeable = False
        return pts

    def interior_mask(self):
        """Nodes evolved by the solver (True) vs pinned Dirichlet nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.ndim] = True
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
    def interval(cls, lo, hi, n, dt):
        return cls(BOX, (float(lo),), (float(hi),), (int(n),), float(dt))

    @classmethod
    def unit_ball(cls, n, dt, ndim=1):
        return cls(BALL, (-1.0,) * ndim, (1.0,) * ndim, (int(n),) * ndim,
                   float(dt))

    @classmethod
    def tunnel(cls, length, n_axis, n_cross, dt):
        """Box [-length, length] x [-1, 1]: the truncated unit tunnel."""
        return cls(BOX, (-float(length), -1.0), (float(length), 1.0),
                   (int(n_axis), int(n_cross)), float(dt))


@dataclass
class Field:
    """Grid function at one time level.

    Physical values are ``values * exp(-log_scale)``; the log offset lets
    long linear-decay runs stay inside double range.  On a 1D grid the
    values may also be a batch of fields, shape (m, K), one per column.
    """

    grid: Grid
    values: np.ndarray
    time: float
    log_scale: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        shape = self.values.shape
        if shape[:self.grid.ndim] != self.grid.shape or len(shape) > 2:
            raise ConfigurationError(
                f"field shape {shape} != grid shape {self.grid.shape}")
