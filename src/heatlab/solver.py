"""IMEX finite-difference evolution of the absorption equation.

One step applies, in order: the exact pointwise decay map of the absorption
term (explicit in data, unconditionally stable, positivity preserving),
first-order upwind transport for the moving-frame drift, and backward-Euler
diffusion axis by axis with Dirichlet zero on the lateral boundary.  What
does not change from step to step is prepared once per run: each axis's
diffusion operator is either inverted (at most ``DENSE_AXIS_MAX`` interior
nodes; a step is one small matrix product per axis) or factored as LDL^T
(a step is one O(m) substitution), and the drift, one constant velocity,
is checked against the CFL limit and turned into per-axis upwind
coefficients.  Every sub-map is monotone, so the discrete comparison
principle holds and the Dirac ladder k -> u_k inherits the monotonicity of
the continuum problem.

Long rescaled runs decay through hundreds of e-foldings; fields therefore
carry a ``log_scale`` offset and are renormalized on the fly, with norms
reported in logs.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from . import geometry, potential as potential_mod, spectral
from .barriers import gaussian_cos_integral, heat_kernel, tunnel_subsolution
from .errors import BudgetError, ConfigurationError, NumericalError
from .grids import BALL, Field, stencil_slices

DEFAULT_LADDER = (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
DIVERGENCE_CEILING = 1e12
_RENORM_FLOOR = 1e-120
_LOG_ZERO = -1e30  # stand-in for log(0) in norm series


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
class RunResult:
    """Norm series, curve probes and bookkeeping of one evolution run.

    Norm series are stored as logs of the physical values (long runs
    underflow doubles), NaN after a non-finite step.  ``tau_probes`` holds
    the (tau, t, value) samples of the solution along the curve and
    ``observed`` what the observer returned at each of its times, see
    :func:`evolve`.  ``stop`` names what froze the run early, if anything
    (``non-finite`` or ``divergence-ceiling``); ``tail_mass`` is the final
    share of the mass on the nodes next to the box faces.
    """

    final: Field
    times: np.ndarray
    log_l2: np.ndarray
    log_linf: np.ndarray
    stop: str | None = None
    renormalizations: int = 0
    underflows: int = 0
    tail_mass: float = 0.0
    tau_probes: list = dfield(default_factory=list)
    observed: list = dfield(default_factory=list)

    @property
    def diverged(self):
        return self.stop is not None


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
    """IMEX stepper on one grid with per-axis propagators built once.

    Each Dirichlet axis carries the backward-Euler matrix I - dt * D2, a
    symmetric positive-definite tridiagonal M-matrix.  An axis with at most
    ``DENSE_AXIS_MAX`` interior nodes steps by its inverse P (``P0 @ v @
    P1`` in 2D; P is symmetric and entrywise >= 0, see ``_propagator``).  A
    longer axis is factored once as L D L^T (LAPACK ``dpttrf``) and steps
    by its two O(m) triangular sweeps (``dpttrs``), never a multithreaded
    BLAS product that would oversubscribe parallel sweep workers; L's
    off-diagonal -r/d_i < 0 and D > 0, so both sweeps only add nonnegative
    terms and the solve stays monotone.  The drift is None or one velocity
    (see :class:`PDESpec`); its shape and CFL number are checked here, and
    each axis it moves along keeps its upwind coefficient dt * c / h.
    """

    def __init__(self, grid, spec):
        self.grid = grid
        self.spec = spec
        self.dt = grid.dt
        self.hs = grid.spacing
        self._inv_hs = tuple(1.0 / h for h in self.hs)
        self._ball = grid.interior_mask().astype(float) \
            if grid.kind == BALL else None
        self._inner = (slice(1, -1),) * grid.ndim
        self._work = np.empty(grid.shape)
        self._ab = [_banded(n - 2, self.dt / (h * h))
                    for n, h in zip(grid.shape, self.hs)]
        self._props = [_propagator(ab) if ab.shape[1] <= DENSE_AXIS_MAX
                       else None for ab in self._ab]
        # (d, e) of L D L^T; dpttrf cannot fail on these SPD matrices
        self._factors = [dpttrf(ab[1], ab[2, :-1])[:2] if prop is None
                         else None for ab, prop in zip(self._ab, self._props)]
        # per axis: interior, backward and forward slices of the upwind
        # difference, and a buffer for it
        self._upwind_slices = [stencil_slices(grid.ndim, ax)
                               for ax in range(grid.ndim)]
        self._dbuf = [np.empty(grid.shape[:ax] + (n - 2,)
                               + grid.shape[ax + 1:])
                      for ax, n in enumerate(grid.shape)]
        # (axis, dt * c / h) of each axis the drift moves along
        self._moving = []
        if spec.drift is not None:
            if np.shape(spec.drift) != (grid.ndim,):
                raise ConfigurationError(
                    f"drift of shape {np.shape(spec.drift)} on a "
                    f"{grid.ndim}D grid: need one velocity, ({grid.ndim},)")
            c = np.asarray(spec.drift, dtype=float)
            drift_cfl(self.dt, c, self.hs)
            self._moving = [(ax, self.dt * c[ax] * self._inv_hs[ax])
                            for ax in range(grid.ndim) if c[ax] != 0.0]
        self.underflow_count = 0
        self.renorm_count = 0
        self.vmax = 0.0

    def step(self, values, t, log_scale):
        """Advance one time level from t; returns (values, log_scale).

        ``values`` is left unchanged and the returned array is new.  After
        the call ``vmax`` holds max |values| of the result, which is NaN or
        inf exactly when the result has a non-finite entry.
        """
        values = self.absorb(values, t, log_scale)

        # first-order upwind drift; with several moving axes every
        # difference is taken from the pre-drift values
        if self._moving:
            work = self._work
            if values is not work:
                np.copyto(work, values)
                values = work
            diffs = [self._upwind(values, ax, coef)
                     for ax, coef in self._moving]
            for (ax, _), d in zip(self._moving, diffs):
                values[self._upwind_slices[ax][0]] -= d

        # implicit diffusion, axis by axis
        out = np.zeros(self.grid.shape)
        out[self._inner] = self._diffuse(values[self._inner])
        if self._ball is not None:
            out *= self._ball

        # keep the working array inside double range on decaying runs;
        # physical = values * exp(-log_scale), so dividing by vmax adds
        # -log(vmax) to the offset
        vmax = float(np.abs(out, out=self._work).max())
        if 0.0 < vmax < _RENORM_FLOOR:
            out /= vmax
            log_scale -= math.log(vmax)
            self.renorm_count += 1
            vmax = 1.0
        self.vmax = vmax
        return out, log_scale

    def absorb(self, values, t, log_scale):
        """Exact decay map of u' = -a u**p over one step, coefficient frozen
        at t: ``values`` itself without absorption, else the work array.

        u * (1 + x)**(-1/(p-1)) with x = (p-1) dt a |u|**(p-1) is evaluated
        as exp(-log1p(x)/(p-1)), which tends to u * exp(-a dt) as p -> 1
        instead of cancelling in 1 + x; at p = 2 it is the exact u / (1 + x).
        """
        p, dt, a = self.spec.p, self.dt, self.spec.absorption
        if a is None:
            return values
        scale_pow = math.exp(-(p - 1.0) * log_scale) if \
            (p - 1.0) * log_scale < 700 else 0.0
        rate = np.abs(values, out=self._work)
        if p != 2.0:
            rate **= p - 1.0
        if callable(a):  # a level function, h at t and its underflows
            h, n_under = a(t)
            self.underflow_count += n_under
            rate *= h.reshape(self.grid.shape)
            a = 1.0
        rate *= a * scale_pow * (p - 1.0) * dt
        if p == 2.0:
            rate += 1.0
            return np.divide(values, rate, out=rate)
        np.log1p(rate, out=rate)
        rate *= -1.0 / (p - 1.0)
        np.exp(rate, out=rate)
        return np.multiply(values, rate, out=rate)

    def _upwind(self, values, ax, coef):
        """coef times the one-sided difference against the flow on the
        interior of axis ``ax`` (coef = dt * speed / h)."""
        mid, back, fwd = self._upwind_slices[ax]
        if coef > 0:
            d = np.subtract(values[mid], values[back], out=self._dbuf[ax])
        else:
            d = np.subtract(values[fwd], values[mid], out=self._dbuf[ax])
        d *= coef
        return d

    def _diffuse(self, inner):
        """Backward-Euler diffusion of the interior block, axis by axis."""
        for ax, (prop, fac) in enumerate(zip(self._props, self._factors)):
            if prop is not None:
                # prop is symmetric, so it is its own transpose on axis 1
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


def _propagator(ab):
    """Inverse of the symmetric tridiagonal matrix ``ab`` (banded form).

    The elimination on this diagonally dominant M-matrix only adds
    nonnegative terms, so every entry is >= 0 in floating point.  The two
    triangles agree to rounding; averaging them makes the result exactly
    symmetric.
    """
    inv = solve_banded((1, 1), ab, np.eye(ab.shape[1]))
    return 0.5 * (inv + inv.T)


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
def _log_norms(values, log_scale, half_log_vol, vmax):
    if vmax == 0.0:
        return _LOG_ZERO, _LOG_ZERO
    flat = values.ravel()
    l2 = math.sqrt(flat @ flat)
    return (math.log(l2) + half_log_vol - log_scale,
            math.log(vmax) - log_scale)


def evolve(fld, spec, t_end, curve=None, ceiling=DIVERGENCE_CEILING,
           observe=None):
    """Drive a field to t_end recording probes, norms and run counters.

    The one stepping loop, behind :func:`solve_uk`, :func:`solve_rescaled`
    and :func:`tunnel_run`, on one :class:`Stepper` whose operator, drift
    included, is fixed for the whole run.  A ``curve`` is probed by linear
    interpolation on 1D grids only: a graph curve at x(min(t, horizon))
    after every step, recorded with tau = t, a parametric one at each
    sample whose t lies within dt/2 of a step.
    ``observe`` is None or a pair (times, fn) with ``times`` increasing:
    each time, in order, is matched to the first step at or after time -
    dt/2 (none after an early stop), and there ``fn(t, values, log_scale)``
    reduces the field, physical = values * exp(-log_scale), to what
    ``RunResult.observed`` keeps.  ``values`` is the working array: ``fn``
    reads it and neither keeps nor changes it.
    """
    grid = fld.grid
    if curve is not None and grid.ndim != 1:
        raise ConfigurationError("curve probes need a 1D grid")
    stepper = Stepper(grid, spec)
    values = fld.values.copy()
    log_scale = fld.log_scale
    t = fld.time
    n_steps = int(round((t_end - t) / grid.dt))
    if n_steps < 0:
        raise ConfigurationError(
            f"t_end = {t_end:.6g} lies before the field's time {t:.6g}")
    times, log_l2, log_linf = np.full((3, n_steps), np.nan)
    tau_probes, observed, stop = [], [], None
    graph_curve = curve is not None and curve.kind == geometry.GRAPH
    obs_times, obs_fn = observe or ((), None)
    half_log_vol = 0.5 * math.log(grid.cell_volume)
    log_ceiling = math.log(ceiling)

    for istep in range(n_steps):
        values, log_scale = stepper.step(values, t, log_scale)
        t = fld.time + (istep + 1) * grid.dt
        times[istep] = t
        if not math.isfinite(stepper.vmax):
            stop = "non-finite"
            n_steps = istep + 1
            break
        log_l2[istep], log_linf[istep] = _log_norms(values, log_scale,
                                                    half_log_vol, stepper.vmax)
        if graph_curve:
            hits = [(t, curve.position_at_time(min(t, curve.horizon))[0])]
        else:  # a parametric curve's samples within dt/2 of t, if any
            hits = () if curve is None else [
                (float(curve.tau[j]), curve.x[j][0]) for j in
                np.flatnonzero(np.abs(curve.t - t) <= grid.dt / 2.0)]
        for tau, x in hits:
            v = float(np.interp(x, grid.axes[0], values))
            tau_probes.append((tau, t, v * math.exp(-log_scale)))
        if log_linf[istep] > log_ceiling:
            stop = "divergence-ceiling"
            n_steps = istep + 1
            break
        while len(observed) < len(obs_times) and \
                t >= obs_times[len(observed)] - grid.dt / 2.0:
            observed.append(obs_fn(t, values, log_scale))

    return RunResult(final=Field(grid, values, t, log_scale),
                     times=times[:n_steps], log_l2=log_l2[:n_steps],
                     log_linf=log_linf[:n_steps], stop=stop,
                     renormalizations=stepper.renorm_count,
                     underflows=stepper.underflow_count,
                     tail_mass=_tail_fraction(values, grid),
                     tau_probes=tau_probes, observed=observed)


def _tail_fraction(values, grid):
    """Share of the mass on the two outermost nodes along each box face."""
    total = float(np.sum(np.abs(values)))
    if total == 0.0 or grid.kind == BALL:
        return 0.0
    inner = float(np.sum(np.abs(values[(slice(2, -2),) * grid.ndim])))
    return (total - inner) / total


def solve_uk(k, curve, levels, p, horizon, grid, t_start=None,
             ceiling=DIVERGENCE_CEILING, observe=None):
    """Evolve the Dirac-datum solution u_k probing along the curve.

    Numerical blow-up is recorded (run frozen, ``stop`` set) when the
    field's L-infinity norm exceeds the divergence ceiling.  ``levels`` is
    h's level function on ``grid``, see :func:`potential.grid_levels`.
    """
    if t_start is None:
        t_start = datum_start(grid, aligned=False)
    fld = dirac_family(k, grid, t_start)
    spec = PDESpec(p=p, drift=None, absorption=levels)
    return evolve(fld, spec, horizon, curve=curve, ceiling=ceiling,
                  observe=observe)


@dataclass
class RescaledResult:
    """Zoomed run's blow-up instrumentation on the unit ball."""

    log_center_final: float
    c1: float
    sigma_tau: float
    beta_tau: float
    delta_tau: float
    conformance_margin: float


_PROBE_STRIDE = 0.5
_MAX_STEPS = 2_000_000


def solve_rescaled(eps, velocity, p, alpha, grid, psi0=None):
    """Evolve the zoomed field on the unit ball out to time alpha/eps**2.

    The datum, of Dirac mass ``max(DEFAULT_LADDER)``, stands in for u_inf;
    the moving frame of the straight curve x(t) = velocity * t drifts by
    eps * velocity; absorption is the unit-coefficient power nonlinearity.
    Records the center value at the final time (as a log), the Hopf ratio
    c1 = min field(., 1)/psi0, the drift constants beta_tau = eps |velocity|
    and delta_tau = 0, the measured nonlinear feedback sup, and the
    conformance margin against the exponential lower envelope on [1, tau],
    checked every ``_PROBE_STRIDE``.  Runs over the step budget raise a
    BudgetError, see check_step_budget.
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
    beta_tau, delta_tau = eps * float(np.linalg.norm(velocity)), 0.0
    rate = spectral.envelope_rate(psi0.lam, beta_tau, delta_tau, sigma)
    margin = min((gap + rate * (t - 1.0) for t, _, gap in result.observed),
                 default=math.inf) if c1 > 0 else math.inf

    center = tuple(n // 2 for n in grid.shape)
    cval = result.final.values[center]
    log_center = (math.log(cval) - result.final.log_scale) if cval > 0 \
        else _LOG_ZERO
    return RescaledResult(log_center_final=log_center, c1=c1, sigma_tau=sigma,
                          beta_tau=beta_tau, delta_tau=delta_tau,
                          conformance_margin=margin)


def check_step_budget(eps, alpha, dt):
    """Raise a BudgetError if the zoomed run at ``eps`` out to time
    alpha/eps**2 takes more than ``_MAX_STEPS`` steps of ``dt``."""
    n_steps = int(round(alpha / (eps * eps) / dt))
    if n_steps > _MAX_STEPS:
        raise BudgetError(
            f"{n_steps} steps exceed the budget; raise eps above "
            f"{math.sqrt(alpha / (_MAX_STEPS * dt)):.3g} or enlarge dt",
            limiting_parameter="eps")


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
        potential_mod.check_weight_gate(gamma, p, n_dim=2)
        xperp = np.abs(grid.points()[:, 1])

        def absorption(t):
            return np.maximum(math.sqrt(max(t, 0.0)), xperp) ** gamma, 0

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
        W = tunnel_subsolution(xi1, xi_perp, t - _A_SHIFT, lam, pair)
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
