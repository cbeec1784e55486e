"""IMEX finite-difference evolution of the absorption equation.

One step applies the exact pointwise decay map of the absorption term
(explicit in data, unconditionally stable, positivity preserving), then,
axis by axis, first-order upwind transport for the moving-frame drift and
backward-Euler diffusion with Dirichlet zero on the lateral boundary (a
per-axis, Lie splitting).  The drift is one constant velocity, checked
against the CFL limit once, so every axis's map is fixed and prepared once
per run: an axis that is short (at most ``DENSE_AXIS_MAX`` interior nodes)
or that the drift moves along steps by one dense matrix, the inverse of
its diffusion matrix times its upwind map; a longer drift-free axis is
factored as LDL^T (a step is one O(m) substitution).  Every sub-map is
monotone, so the discrete comparison principle holds and the Dirac ladder
k -> u_k inherits the monotonicity of the continuum problem.

Long rescaled runs decay through hundreds of e-foldings; fields therefore
carry a ``log_scale`` offset and are renormalized on the fly.  Most of such
a run is a linear tail: once the field is small enough that the absorption
map changes no bit, a step is one fixed linear map, and after the field
settles on its top eigenvector :func:`evolve` advances ``log_scale`` by the
map's Rayleigh quotient in place of stepping.  A run keeps no norm series:
whatever it measures, the ladder's curve probes included, one observer
takes from the field at the steps it names, on the grid of
:func:`step_times`.

On a 1D grid a field may hold a batch, one column per run: the rungs of a
Dirac ladder step through the same levels of h, so one step evaluates h
once and solves every column in one LAPACK call, and each column takes
exactly the operations it would take alone.
"""

import contextlib
import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from . import potential as potential_mod, spectral
from .barriers import gaussian_cos_integral, heat_kernel, tunnel_subsolution
from .errors import ConfigurationError, NumericalError
from .grids import BALL, Field

DEFAULT_LADDER = (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
DIVERGENCE_CEILING = 1e12
_RENORM_FLOOR = 1e-120
# ln 2**-60: a decay rate x below it leaves 1 + x == 1 (see evolve)
_NOOP_LOG = -60.0 * math.log(2.0)
# one-step residual, relative to max|u|, below which a run fast-forwards
_LINEAR_RTOL = 1e-13
_LOG_ZERO = -1e30  # stand-in for log(0) in a zoomed run's log values


@dataclass
class PDESpec:
    """Operator data for one run: d_t u - lap u + <drift, grad u> + a * u**p = 0.

    ``drift`` is None or one velocity for the whole run, shape (ndim,),
    which :class:`Stepper` checks against :func:`drift_cfl` once, when it
    is built; ``absorption`` is None, a constant >= 0, or a level function
    t -> (values at every grid node, count of nodes whose value underflowed
    to 0), such as :func:`potential.grid_levels` returns.
    """

    p: float
    drift: object = None
    absorption: object = None

    def __post_init__(self):
        if not self.p > 1:
            raise ConfigurationError(f"exponent p = {self.p} must be > 1")


@dataclass
class BatchResult:
    """A batch run of :func:`evolve`: ``times`` holds the time of every
    step the batch took, through the one where its last column stopped,
    and ``runs`` one :class:`RunResult` per column, in order."""

    times: np.ndarray
    runs: list


@dataclass
class RunResult:
    """Step times, observations and bookkeeping of one evolution run.

    ``times`` holds the time of every step, fast-forwarded ones included,
    through the one that stopped the run, if any: a prefix of
    :func:`step_times`.  ``observed`` holds what the observer returned at
    each of its times.  ``stop`` names what froze the run early, if
    anything (``non-finite`` or ``divergence-ceiling``); ``tail_mass`` is
    the final share of the mass on the nodes next to the box faces.
    ``linear_from`` is the time from which the run was fast-forwarded as
    one linear map, None if it stepped to the end.  See :func:`evolve`.
    """

    final: Field
    times: np.ndarray
    stop: str | None = None
    renormalizations: int = 0
    underflows: int = 0
    tail_mass: float = 0.0
    observed: list = dfield(default_factory=list)
    linear_from: float | None = None


# ----------------------------------------------------------------------
# stepper
# ----------------------------------------------------------------------
# Axes with at most this many interior nodes diffuse through an explicit
# dense inverse, longer ones through their LDL^T factors (see Stepper).
DENSE_AXIS_MAX = 64


def drift_cfl(dt, velocity, spacing):
    """The upwind CFL number dt * sum |c_i|/h_i of a constant drift
    velocity; raises unless the velocity is finite and the number at most
    0.5."""
    if not np.all(np.isfinite(velocity)):
        raise ConfigurationError("drift velocity is not finite")
    cfl = dt * float(np.sum(np.abs(velocity) / np.asarray(spacing)))
    if cfl > 0.5 + 1e-12:
        raise ConfigurationError(f"drift CFL {cfl:.3g} exceeds 0.5")
    return cfl


class Stepper:
    """IMEX stepper on one grid with per-axis operators built once.

    Each Dirichlet axis carries the backward-Euler matrix I - dt * D2, a
    symmetric positive-definite tridiagonal M-matrix with inverse P, and
    the interior upwind map U of its CFL number r = dt * c / h, U = I where
    c = 0, under the drift c, None or one velocity (see :class:`PDESpec`;
    its shape and CFL number are checked here).  An axis with at most
    ``DENSE_AXIS_MAX`` interior nodes, or one the drift moves along, steps
    by the dense product P U (``PU0 @ v @ (PU1)^T`` in 2D; entrywise >= 0,
    see ``_axis_operator``), so a drift is applied axis by axis, each
    axis's upwind map just before its diffusion, and a long moving axis
    costs O(m**2) a step.  A longer drift-free axis is factored once as
    L D L^T (LAPACK ``dpttrf``) and steps by its two O(m) triangular sweeps
    (``dpttrs``), never a multithreaded BLAS product that would
    oversubscribe parallel sweep workers; L's off-diagonal -r/d_i < 0 and
    D > 0, so both sweeps only add nonnegative terms and the solve stays
    monotone.

    With ``columns`` = K the stepper steps a batch of K fields on a 1D grid
    without drift: values (m, K), one ``log_scale``, ``vmax`` and
    ``renorm_count`` per column, one ``underflow_count`` for all.  Its axis
    always steps by ``dpttrs``, which solves each column by the same
    sweeps as alone; a dense product over K columns (BLAS gemm) could
    round a column otherwise than one over a single column (gemv).
    """

    def __init__(self, grid, spec, columns=None):
        self.grid = grid
        self.spec = spec
        self.dt = grid.dt
        self.hs = grid.spacing
        self.columns = columns
        if columns is not None and (grid.ndim != 1 or spec.drift is not None):
            raise ConfigurationError("a batch of fields steps on a 1D grid "
                                     "without drift")
        # shape of a node array that broadcasts over the batch's columns
        self._nodes = grid.shape + ((1,) if columns is not None else ())
        self._ball = grid.interior_mask().astype(float).reshape(self._nodes) \
            if grid.kind == BALL else None
        self._inner = (slice(1, -1),) * grid.ndim
        # a batch, whose width falls as columns stop, takes fresh arrays
        self._work = np.empty(grid.shape) if columns is None else None
        c = np.zeros(grid.ndim)
        if spec.drift is not None:
            if np.shape(spec.drift) != (grid.ndim,):
                raise ConfigurationError(
                    f"drift of shape {np.shape(spec.drift)} on a "
                    f"{grid.ndim}D grid: need one velocity, ({grid.ndim},)")
            c = np.asarray(spec.drift, dtype=float)
            drift_cfl(self.dt, c, self.hs)
        self._ab = [_banded(n - 2, self.dt / (h * h))
                    for n, h in zip(grid.shape, self.hs)]
        # a short or moving axis steps by its dense operator, any other by
        # the (d, e) of its L D L^T; dpttrf cannot fail on these SPD matrices
        rs = self.dt * c / np.asarray(self.hs)
        self._props = [_axis_operator(ab, r, ax) if columns is None and (
            ab.shape[1] <= DENSE_AXIS_MAX or r != 0.0) else None
            for ax, (ab, r) in enumerate(zip(self._ab, rs))]
        self._factors = [dpttrf(ab[1], ab[2, :-1])[:2] if prop is None
                         else None for ab, prop in zip(self._ab, self._props)]
        self.underflow_count = 0
        self.renorm_count = 0 if columns is None else np.zeros(columns, int)
        # max|u| is unknown until the first step
        self.vmax = math.inf if columns is None else np.full(columns, math.inf)
        # absorb guards against overflow from the max|u| at which max|u|**(p-1)
        # * max(|a| (p-1) dt, 1) = e**600, e**109 below the double limit
        a = 1.0 if callable(spec.absorption) else abs(spec.absorption or 0.0)
        self._vmax_safe = math.exp(min(700.0, (600.0 - math.log(max(
            a * (spec.p - 1.0) * self.dt, 1.0))) / (spec.p - 1.0)))

    def step(self, values, t, log_scale):
        """Advance one time level from t; returns (values, log_scale).

        ``values`` (and a batch's ``log_scale``) is left unchanged and the
        returned array is new.  After the call ``vmax`` holds max |values|
        of the result, per column in a batch, which is NaN or inf exactly
        when the result (column) has a non-finite entry.
        """
        values = self.absorb(values, t, log_scale)

        # drift and implicit diffusion, axis by axis
        out = np.zeros(values.shape)
        out[self._inner] = self._diffuse(values[self._inner])
        if self._ball is not None:
            out *= self._ball

        # keep the working array inside double range on decaying and on
        # huge runs; physical = values * exp(-log_scale), so dividing by
        # vmax adds -log(vmax) to the offset
        if self.columns is None:
            vmax = float(np.abs(out, out=self._work).max())
            if 0.0 < vmax < _RENORM_FLOOR or 1.0 / _RENORM_FLOOR < vmax < math.inf:
                out /= vmax
                log_scale -= math.log(vmax)
                self.renorm_count += 1
                vmax = 1.0
        else:
            vmax = np.abs(out, out=self._work).max(axis=0)
            log_scale = log_scale.copy()
            for j, v in enumerate(vmax.tolist()):
                if 0.0 < v < _RENORM_FLOOR or \
                        1.0 / _RENORM_FLOOR < v < math.inf:
                    out[:, j] /= v
                    log_scale[j] -= math.log(v)
                    self.renorm_count[j] += 1
                    vmax[j] = 1.0
        self.vmax = vmax
        return out, log_scale

    def keep(self, cols):
        """Keep only the batch columns flagged in ``cols``, in order."""
        self.vmax = self.vmax[cols]
        self.renorm_count = self.renorm_count[cols]

    def absorb(self, values, t, log_scale):
        """Exact decay map of u' = -a u**p over one step, coefficient frozen
        at t: ``values`` itself without absorption, else a work array.

        u * (1 + x)**(-1/(p-1)) with x = (p-1) dt a |u|**(p-1) is evaluated
        as exp(-log1p(x)/(p-1)), which tends to u * exp(-a dt) as p -> 1
        instead of cancelling in 1 + x; at p = 2 it is the exact u / (1 + x).
        If x can overflow (large |u| at large p), which ``vmax``, max|u|
        after the last step, tells, the entries whose x does are mapped
        through ln x, toward the finite limit sign(u) ((p-1) dt a)**(-1/(p-1))
        (NaN under a source, a < 0), and the rest as ever.  A batch maps
        each column with its own ``log_scale``.
        """
        p, dt, a = self.spec.p, self.dt, self.spec.absorption
        if a is None:
            return values
        h = None
        if callable(a):  # a level function, h at t and its underflows
            h, n_under = a(t)
            self.underflow_count += n_under
            h, a = h.reshape(self._nodes), 1.0
        # |physical / values|**(p-1): 0 or inf past e**700, either way
        # mapped as ever or, once inf (log_scale < 0, guarded), through ln x
        e = -(p - 1.0) * log_scale
        if self.columns is None:
            scale_pow = math.exp(e) if abs(e) < 700 else \
                0.0 if e < 0 else math.inf
            guard = self.vmax > self._vmax_safe or log_scale < 0.0
        else:  # each column's power as a single field's, by math.exp
            scale_pow = np.array([math.exp(x) if abs(x) < 700 else
                                  0.0 if x < 0 else math.inf
                                  for x in e.tolist()])
            guard = bool((self.vmax > self._vmax_safe).any()
                         or (log_scale < 0.0).any())
        coef = a * scale_pow * (p - 1.0) * dt
        with np.errstate(over="ignore", invalid="ignore") if guard \
                else contextlib.nullcontext():
            rate = np.abs(values, out=self._work)
            if p != 2.0:
                rate **= p - 1.0
            if h is not None:
                rate *= h
            rate *= coef
        bad = ~np.isfinite(rate) if guard else None  # mapped again below
        if p == 2.0:
            rate += 1.0
            out = np.divide(values, rate, out=rate)
        else:
            np.log1p(rate, out=rate)
            rate *= -1.0 / (p - 1.0)
            np.exp(rate, out=rate)
            out = np.multiply(values, rate, out=rate)
        if bad is not None and bad.any():
            u = values[bad]
            with np.errstate(divide="ignore", invalid="ignore"):  # ln 0, ln a
                log_x = (p - 1.0) * (np.log(np.abs(u)) - np.broadcast_to(
                    log_scale, values.shape)[bad]) + np.log(a * (p - 1.0) * dt)
                if h is not None:
                    log_x += np.log(np.broadcast_to(h, values.shape)[bad])
            out[bad] = u * np.exp(np.logaddexp(0.0, log_x) / (1.0 - p))
        return out

    def _diffuse(self, inner):
        """Upwind drift and backward-Euler diffusion of the interior block,
        axis by axis."""
        for ax, (prop, fac) in enumerate(zip(self._props, self._factors)):
            if prop is not None:  # stored transposed on axis 1
                inner = prop @ inner if ax == 0 else inner @ prop
            elif ax == 0:
                inner = dpttrs(*fac, inner)[0]
            else:
                inner = dpttrs(*fac, inner.T)[0].T
        return inner


def _banded(m, r):
    """I - r * D2 on m nodes in the (3, m) banded form of solve_banded."""
    off = np.full(m - 1, -r)
    return np.array([np.r_[0.0, off], np.full(m, 1.0 + 2.0 * r),
                     np.r_[off, 0.0]])


def _axis_operator(ab, r, ax):
    """Dense step operator P U of axis ``ax``, transposed on axis 1, where
    it acts from the right: P the inverse of the symmetric tridiagonal
    ``ab`` (banded form), U the interior upwind map of the CFL number r.

    The elimination on this diagonally dominant M-matrix only adds
    nonnegative terms, so every entry of P is >= 0 in floating point.  Its
    two triangles agree to rounding; averaging them makes P exactly
    symmetric, so at r = 0 the operator is P itself on either axis.  U has
    1 - |r| on the diagonal and |r| on the upwind neighbour, a Dirichlet
    neighbour reading 0; the CFL check keeps both >= 0.
    """
    m = ab.shape[1]
    inv = solve_banded((1, 1), ab, np.eye(m))
    prop = 0.5 * (inv + inv.T)
    if r == 0.0:
        return prop
    up = (1.0 - abs(r)) * np.eye(m) + abs(r) * np.eye(m, k=-1 if r > 0 else 1)
    prop = prop @ up
    return prop if ax == 0 else np.ascontiguousarray(prop.T)


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------
def dirac_family(k, grid, t_start):
    """Mollified Dirac datum k * K(., 0, t_start) on the grid.

    The kernel must span at least 4 cells: sqrt(4 t_start) >= 4 h.
    """
    if k < 0:
        raise ConfigurationError("Dirac mass must be nonnegative")
    if k == 0:
        return Field(grid, np.zeros(grid.shape), t_start)
    h = max(grid.spacing)
    if math.sqrt(4.0 * t_start) < 4.0 * h - 1e-12:
        raise ConfigurationError(
            f"kernel under-resolved: sqrt(4 t0)={math.sqrt(4*t_start):.3g} "
            f"< 4h={4*h:.3g}")
    pts = grid.points()
    xs = pts if grid.ndim > 1 else pts[:, 0]
    origin = np.zeros(grid.ndim) if grid.ndim > 1 else 0.0
    vals = (k * heat_kernel(xs, origin, t_start, n_dim=grid.ndim)) \
        .reshape(grid.shape)
    if grid.kind == BALL:
        vals = np.where(grid.interior_mask(), vals, 0.0)
    return Field(grid, vals, t_start)


# ----------------------------------------------------------------------
# evolution drivers
# ----------------------------------------------------------------------
def step_times(t0, t_end, dt):
    """The step grid t0 + k dt, k = 1 .. round((t_end - t0) / dt), of a run
    from t0 to t_end; raises if t_end lies before t0 by more than dt/2."""
    n_steps = int(round((t_end - t0) / dt))
    if n_steps < 0:
        raise ConfigurationError(
            f"t_end = {t_end:.6g} lies before the field's time {t0:.6g}")
    return t0 + np.arange(1, n_steps + 1) * dt


def evolve(fld, spec, t_end, ceiling=DIVERGENCE_CEILING, observe=None):
    """Drive a field to t_end recording step times, observations and run
    counters.

    The one stepping loop, behind :func:`solve_uk`, :func:`solve_rescaled`
    and :func:`tunnel_run`, on one :class:`Stepper` whose operator, drift
    included, is fixed for the whole run.  A run is observed one way:
    ``observe`` is None or a pair (times, fn) with ``times`` increasing:
    each time, in order, is matched to the first step at or after time -
    dt/2, and there ``fn(t, values, log_scale)`` reduces the field,
    physical = values * exp(-log_scale), to what ``RunResult.observed``
    keeps.  ``values`` is the working array: ``fn`` reads it and neither
    keeps nor changes it.  Every finite step is observed, the one that
    crosses the divergence ceiling included; none after it.

    A run whose absorption is None or a constant >= 0 ends in a linear
    tail: once its decay map is a bitwise no-op, each step
    applies one fixed, nonnegative and irreducible linear map, and the
    field becomes that map's top eigenvector (the power method; Perron-
    Frobenius).  When one step then multiplies the field by its Rayleigh
    quotient mu to within ``_LINEAR_RTOL`` (0 < mu < 1), the run stops
    stepping at that step, ``linear_from``: the values stay as they are,
    and each remaining step only lowers the physical field by mu, through
    ``log_scale``.  ``times`` keeps one entry per step, and each later
    observer time gets the frozen values with the ``log_scale`` of the step
    it matches.

    A batch field, values (m, K) on a 1D grid, steps its K columns as one
    run each (see :func:`_evolve_batch`) and returns a
    :class:`BatchResult`.
    """
    grid = fld.grid
    times = step_times(fld.time, t_end, grid.dt)
    if fld.values.ndim > grid.ndim:
        return _evolve_batch(fld, spec, times, ceiling, observe)
    stepper = Stepper(grid, spec)
    values = fld.values.copy()
    log_scale = fld.log_scale
    t = fld.time
    observed, stop = [], None
    obs_times, obs_fn = observe or ((), None)
    log_ceiling = math.log(ceiling)
    # below this log ||u||_inf the decay map of Stepper.absorb is a bitwise
    # no-op, x = a (p-1) dt ||u||_inf**(p-1) < 2**-60; a run with no
    # absorption or a constant one >= 0 never raises ||u||_inf,
    # so from there on one step is a fixed linear map.  Other runs never
    # switch: a level function varies in t, and a negative constant is a
    # source under which ||u||_inf can grow
    a, pm1 = spec.absorption, spec.p - 1.0
    if callable(a) or (a is not None and a < 0):
        linf_noop = -math.inf
    elif a is None or a == 0:
        linf_noop = math.inf
    else:
        linf_noop = (_NOOP_LOG - math.log(a * pm1 * grid.dt)) / pm1
    noop_at = ln_mu = None

    for istep in range(times.size):
        values, log_scale = stepper.step(values, t, log_scale)
        t = float(times[istep])
        if not math.isfinite(stepper.vmax):
            stop = "non-finite"
            break
        log_linf = math.log(stepper.vmax) - log_scale if stepper.vmax > 0 \
            else -math.inf
        while len(observed) < len(obs_times) and \
                t >= obs_times[len(observed)] - grid.dt / 2.0:
            observed.append(obs_fn(t, values, log_scale))
        if log_linf > log_ceiling:
            stop = "divergence-ceiling"
            break
        if log_linf < linf_noop:  # so the next step is linear
            if noop_at == istep - 1:
                ln_mu = _linear_rate(before, values, before_scale - log_scale,
                                     stepper.vmax)
                if ln_mu is not None:
                    break
            noop_at, before, before_scale = istep, values, log_scale

    linear_from = None
    if stop is not None:
        times = times[:istep + 1]
    elif ln_mu is not None:
        # every later step multiplies the field by mu: the values stay and
        # log_scale rises by -ln mu a step
        linear_from, past = t, times[istep + 1:]
        for obs_t in obs_times[len(observed):]:
            j = int(np.searchsorted(past, obs_t - grid.dt / 2.0))
            if j == past.size:
                break
            observed.append(obs_fn(float(past[j]), values,
                                   log_scale - (j + 1) * ln_mu))
        log_scale -= past.size * ln_mu
        t = float(times[-1])

    return RunResult(final=Field(grid, values, t, log_scale),
                     times=times, stop=stop,
                     renormalizations=stepper.renorm_count,
                     underflows=stepper.underflow_count,
                     tail_mass=_tail_fraction(values, grid),
                     observed=observed,
                     linear_from=linear_from)


def _evolve_batch(fld, spec, times, ceiling, observe):
    """:func:`evolve` on the columns of a batch field, each with its own
    ``log_scale``, renormalization count and stop, and all on one h level
    and one ``dpttrs`` call a step.  Its observer fn(t, values, log_scale)
    gets the columns still running, values (m, K') and log_scale (K',), and
    returns one observation per column.  A column that stops leaves the
    batch; its run ends as a run of that column alone would.  A batch
    never fast-forwards: each column would switch at its own step.
    """
    grid, t = fld.grid, fld.time
    n_cols = fld.values.shape[1]
    stepper = Stepper(grid, spec, columns=n_cols)
    values = fld.values.copy()
    log_scale = np.full(n_cols, fld.log_scale, dtype=float)
    live = np.arange(n_cols)  # the batch column of each running column
    runs, observed = [None] * n_cols, [[] for _ in range(n_cols)]
    obs_times, obs_fn = observe or ((), None)
    log_ceiling = math.log(ceiling)

    def leave(gone, stop, n_steps):
        """End the running columns flagged in ``gone`` after n_steps."""
        nonlocal values, log_scale, live
        for j in np.flatnonzero(gone):
            col = values[:, j].copy()
            runs[live[j]] = RunResult(
                final=Field(grid, col, t, float(log_scale[j])),
                times=times[:n_steps], stop=stop,
                renormalizations=int(stepper.renorm_count[j]),
                underflows=stepper.underflow_count,
                tail_mass=_tail_fraction(col, grid),
                observed=observed[live[j]])
        keep = ~gone
        values, log_scale, live = values[:, keep], log_scale[keep], live[keep]
        stepper.keep(keep)

    n_obs = istep = 0
    for istep in range(times.size):
        values, log_scale = stepper.step(values, t, log_scale)
        t = float(times[istep])
        finite = np.isfinite(stepper.vmax)
        if not finite.all():
            leave(~finite, "non-finite", istep + 1)
        while live.size and n_obs < len(obs_times) and \
                t >= obs_times[n_obs] - grid.dt / 2.0:
            for j, obs in zip(live, obs_fn(t, values, log_scale)):
                observed[j].append(obs)
            n_obs += 1
        over = np.array([v > 0 and math.log(v) - s > log_ceiling
                         for v, s in zip(stepper.vmax.tolist(),
                                         log_scale.tolist())], dtype=bool)
        if over.any():
            leave(over, "divergence-ceiling", istep + 1)
        if not live.size:
            break
    leave(np.ones(live.size, dtype=bool), None, times.size)
    return BatchResult(times=times[:istep + 1], runs=runs)


def _linear_rate(u, v, shift, vmax):
    """ln mu of the step u -> v, physical values exp(shift) apart, when
    v = m u to ``_LINEAR_RTOL`` * max|v| with m = <v, u>/<u, u> in working
    units and 0 < mu = m exp(shift) < 1; else None.

    m - 1 is taken as <v - u, u>/<u, u>: v - u is exact where v is within
    a factor 2 of u, so ln m = log1p(m - 1) keeps the digits that m itself,
    rounded near 1, would lose, and which k fast-forwarded steps multiply
    by k.
    """
    uf = u.ravel()
    uu = float(uf @ uf)
    if not uu > 0:
        return None
    d = v.ravel() - uf
    m1 = float(d @ uf) / uu
    if not m1 > -1.0:
        return None
    ln_mu = math.log1p(m1) + shift
    d -= m1 * uf  # v - m u
    if ln_mu < 0 and float(np.max(np.abs(d))) <= _LINEAR_RTOL * vmax:
        return ln_mu
    return None


def _tail_fraction(values, grid):
    """Share of the mass on the two outermost nodes along each box face."""
    total = float(np.sum(np.abs(values)))
    if total == 0.0 or grid.kind == BALL:
        return 0.0
    inner = float(np.sum(np.abs(values[(slice(2, -2),) * grid.ndim])))
    return (total - inner) / total


def solve_uk(masses, levels, p, horizon, grid, t_start=None,
             ceiling=DIVERGENCE_CEILING, observe=None):
    """Evolve the Dirac-datum solutions u_k, k in ``masses``, to
    ``horizon`` as the columns of one batch; returns one
    :class:`RunResult` per mass, in order.

    Numerical blow-up is recorded (run frozen, ``stop`` set) when a
    column's L-infinity norm exceeds the divergence ceiling.  ``levels`` is
    h's level function on ``grid``, see :func:`potential.grid_levels`;
    ``observe`` is a batch observer of :func:`evolve`, one observation per
    running column.
    """
    if t_start is None:
        t_start = datum_start(grid, aligned=False)
    fld = Field(grid, np.column_stack([dirac_family(k, grid, t_start).values
                                       for k in masses]), t_start)
    spec = PDESpec(p=p, drift=None, absorption=levels)
    return evolve(fld, spec, horizon, ceiling=ceiling, observe=observe).runs


@dataclass
class RescaledResult:
    """Zoomed run's blow-up instrumentation on the unit ball."""

    log_center_final: float
    c1: float
    sigma_tau: float
    beta_tau: float
    conformance_margin: float


_PROBE_STRIDE = 0.5
_MAX_STEPS = 2_000_000


def solve_rescaled(eps, velocity, p, alpha, grid, psi0=None):
    """Evolve the zoomed field on the unit ball out to time alpha/eps**2.

    The datum, of Dirac mass ``max(DEFAULT_LADDER)``, stands in for u_inf;
    the moving frame of the straight curve x(t) = velocity * t drifts by
    eps * velocity; absorption is the unit-coefficient power nonlinearity.
    Records the center value at the final time (as a log), the Hopf ratio
    c1 = min field(., 1)/psi0, the drift constant beta_tau = eps |velocity|,
    the measured nonlinear feedback sup, and the conformance margin against
    the exponential lower envelope on [1, tau], checked every
    ``_PROBE_STRIDE``.  Runs over the step budget raise a
    ConfigurationError, see check_step_budget.
    """
    if np.shape(velocity) != (grid.ndim,):
        raise ConfigurationError(f"a velocity of shape {np.shape(velocity)} "
                                 f"cannot drive a {grid.ndim}D grid")
    check_step_budget(eps, alpha, grid.dt)
    t_end = alpha / (eps * eps)
    # align the mollification time to the step grid so the observed times
    # (multiples of dt) are hit exactly
    t_start = datum_start(grid)
    drift = eps * np.asarray(velocity, dtype=float)

    if psi0 is None:
        psi0 = _ground_state_for(grid)
    psi_grid = _psi_on_grid(psi0, grid)
    core = grid.interior_mask() & (psi_grid >= 1e-3)
    log_psi = np.log(psi_grid[core])
    pts = grid.points()
    # the feedback term's drift tilt exp(-<x, b>/2) and lift exp(|b|/2)**(p-1)
    dots = pts @ drift if grid.ndim > 1 else pts[:, 0] * drift[0]
    tilt = np.exp(-0.5 * dots.reshape(grid.shape))
    lift = math.exp(0.5 * (p - 1.0) * float(np.linalg.norm(drift)))
    c1 = log_c1 = math.nan

    def observe(t, vals, s):
        """(t, feedback term, min over core of ln u - ln(c1 psi0)) at t."""
        nonlocal c1, log_c1
        if math.isnan(c1):  # the Hopf ratio at the first observed time >= 1
            phys = vals * math.exp(-s) if s < 700 else vals * 0.0
            c1 = float(np.min(phys[core] / psi_grid[core]))
            log_c1 = math.log(c1) if c1 > 0 else math.nan
        wmax = float(np.max(vals * tilt)) * math.exp(-s)
        feedback = lift * wmax ** (p - 1.0)
        with np.errstate(divide="ignore"):
            log_phys = np.where(vals[core] > 0,
                                np.log(np.maximum(vals[core], 1e-300)) - s,
                                _LOG_ZERO)
        return t, feedback, float(np.min(log_phys - (log_c1 + log_psi)))

    spec = PDESpec(p=p, drift=drift, absorption=1.0)
    fld = dirac_family(max(DEFAULT_LADDER), grid, t_start)
    obs_times = np.arange(1.0, t_end + 1e-9, _PROBE_STRIDE)
    result = evolve(fld, spec, t_end, observe=(obs_times, observe))

    sigma = max((f for _, f, _ in result.observed), default=0.0)
    beta_tau = eps * float(np.linalg.norm(velocity))
    rate = spectral.envelope_rate(psi0.lam, beta_tau, sigma)
    margin = min((gap + rate * (t - 1.0) for t, _, gap in result.observed),
                 default=math.inf) if c1 > 0 else math.inf

    center = tuple(n // 2 for n in grid.shape)
    cval = result.final.values[center]
    log_center = (math.log(cval) - result.final.log_scale) if cval > 0 \
        else _LOG_ZERO
    return RescaledResult(log_center_final=log_center, c1=c1, sigma_tau=sigma,
                          beta_tau=beta_tau, conformance_margin=margin)


def check_step_budget(eps, alpha, dt):
    """Raise a ConfigurationError if the zoomed run at ``eps`` out to time
    alpha/eps**2 takes more than ``_MAX_STEPS`` steps of ``dt``."""
    n_steps = int(round(alpha / (eps * eps) / dt))
    if n_steps > _MAX_STEPS:
        raise ConfigurationError(
            f"{n_steps} steps exceed the budget; raise eps above "
            f"{math.sqrt(alpha / (_MAX_STEPS * dt)):.3g} or enlarge dt")


def datum_start(grid, aligned=True):
    """Start time of a Dirac datum on ``grid``: the smallest t with
    sqrt(4 t) >= 4 h (see dirac_family), or with ``aligned`` the smallest
    multiple of dt at or above it (the zoomed and tunnel runs)."""
    h = max(grid.spacing)
    if not aligned:
        return 4.0 * h * h
    return math.ceil(4.0 * h * h / grid.dt - 1e-12) * grid.dt


def _ground_state_for(grid):
    if grid.ndim == 1:
        return spectral.dirichlet_ground_state("interval", grid.shape[0] - 2)
    return spectral.dirichlet_ground_state("ball", 512, n_dim=2)


def _psi_on_grid(psi0, grid):
    pts = grid.points()
    return psi0.interpolate(pts[:, 0] if grid.ndim == 1 else pts) \
        .reshape(grid.shape)


# ----------------------------------------------------------------------
# tunnel runs (line degeneracy in the initial plane)
# ----------------------------------------------------------------------
@dataclass
class TunnelResult:
    """Rescaled tunnel run with its subsolution calibration.

    The rescaled problem is zoom-independent and never reads the decay
    profile: both enter through the amplification prefactor only, so one
    run serves every eps and profile (see :func:`tunnel_floors`).
    """

    a: float
    c: float
    conformance_min: float
    lam: float
    gamma: float | None


_A_SHIFT = 0.1
_TAU_CAL = 0.05
_C_SAFETY = 0.9
_FLOOR_THRESHOLD = 1e6


def check_tunnel_axis(length):
    """Raise unless the axis half-length ``length`` truncates a negligible
    Gaussian tail: the 1D marginal mass beyond it at tau = 1."""
    tail = math.erfc(length / 2.0)
    if tail > 1e-8:
        raise ConfigurationError(
            f"axis truncation {length} too short: Gaussian tail {tail:.3g}")


def tunnel_run(p, grid, gamma=None):
    """Evolve the rescaled tunnel problem and calibrate the explicit floor.

    The datum has Dirac mass ``max(DEFAULT_LADDER)``.  The absorption
    coefficient is 1 (the subcritical case), or with ``gamma`` the weight
    (max(sqrt(tau), |xi'|))**gamma (the supercritical case, gated by
    :func:`potential.check_weight_gate`).  The run is compared
    against c * W(., tau), W from :func:`barriers.tunnel_subsolution`,
    after the calibration shift a = ``_A_SHIFT``: c is the grid minimum of
    the ratio at the first comparison time ``_TAU_CAL`` + a, deflated by
    ``_C_SAFETY``, and the conformance minimum of w(., tau + a) - c W(., tau)
    over later times is recorded.
    """
    if grid.ndim != 2:
        raise ConfigurationError("tunnel runs use a 2D (axis x cross) grid")
    absorption = 1.0
    if gamma is not None:
        potential_mod.check_weight_gate(gamma, p)
        absorption = _tunnel_weight(grid, gamma)
    check_tunnel_axis(grid.hi[0])
    spec = PDESpec(p=p, drift=None, absorption=absorption)
    fld = dirac_family(max(DEFAULT_LADDER), grid, datum_start(grid))
    # the cross-section ground state at the tunnel discretization, before any
    # step: on the grid axis it is the nodal values, zeros on the boundary
    pair = spectral.dirichlet_ground_state("interval", grid.shape[1] - 2)
    lam = pair.lam
    xi1, xi_perp = grid.axes
    c_val = None

    def observe(t, vals, s):
        """min of w(., t) - c W(., t - a), c fixed at the first time."""
        nonlocal c_val
        w = vals * math.exp(-s)
        W = tunnel_subsolution(xi1, xi_perp, t - _A_SHIFT, lam,
                               pair.interpolate)
        if c_val is None:
            sel = W >= 1e-10 * W.max()
            c_val = min(float(np.min(w[sel] / W[sel])) * _C_SAFETY, 1.0)
        return float(np.min(w - c_val * W))

    obs_times = np.arange(_TAU_CAL + _A_SHIFT, 1.0 - 1e-9, 0.05)
    result = evolve(fld, spec, 1.0, observe=(obs_times, observe))
    if not result.observed:
        raise NumericalError("tunnel run reached no comparison time")
    return TunnelResult(a=_A_SHIFT, c=c_val,
                        conformance_min=min(result.observed),
                        lam=lam, gamma=gamma)


def _tunnel_weight(grid, gamma):
    """The level function t -> ((max(sqrt(t), |xi'|))**gamma at every node
    of ``grid``, 0) of the weighted tunnel.  |xi'|**gamma is taken once:
    for gamma >= 0 the power is nondecreasing, so the max of the powers is
    the power of the max."""
    xpow = np.abs(grid.points()[:, 1]) ** gamma

    def levels(t):
        return np.maximum(np.power(math.sqrt(max(t, 0.0)), gamma), xpow), 0

    return levels


def tunnel_floors(result, eps, p, profile):
    """The per-eps evidence of a :func:`tunnel_run` for one decay profile:
    the log floor at the axis center, and the half-width of the blow-up
    interval by its formula and where the Gaussian-envelope floor clears
    ``_FLOOR_THRESHOLD`` (a weighted run checks the shifted profile)."""
    if result.gamma is not None:
        potential_mod.check_weighted_tunnel(result.gamma, p, profile, eps)
    log_c, lam = math.log(result.c), result.lam
    g0 = gaussian_cos_integral(0.0, 1.0)
    # (4 pi)**(-1/2) * integral of exp(-z**2/2) cos(z) over [-pi/2, pi/2]
    log_i0 = math.log(gaussian_cos_integral(0.0, 0.5) / math.sqrt(2.0))
    out = {"log_floor_center": [], "delta_formula": [], "delta_measured": []}
    for e in eps:
        log_env = log_c + spectral.log_amplification(p, profile, e) \
            - (lam + 1.0)
        budget = log_env + log_i0 - math.log(_FLOOR_THRESHOLD)
        out["log_floor_center"].append(log_env + math.log(g0))
        out["delta_formula"].append(math.sqrt(
            2.0 * e * e * potential_mod.eval_profile(profile, e) / (p - 1.0)))
        out["delta_measured"].append(math.sqrt(2.0 * max(budget, 0.0)) * e)
    return out
