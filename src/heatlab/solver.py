"""IMEX finite-difference evolution of the absorption equation.

One step applies, in order: the exact pointwise decay map of the absorption
term (explicit in data, unconditionally stable, positivity preserving),
first-order upwind transport for the moving-frame drift, and backward-Euler
diffusion axis by axis with Dirichlet zero on the lateral boundary.  Each
axis's diffusion propagator is built once per run: an axis with at most
``DENSE_AXIS_MAX`` interior nodes gets its explicit (entrywise nonnegative)
inverse and a step is one small matrix product per axis; a longer axis
keeps the per-step tridiagonal solve, whose work is O(m) and which never
starts a multithreaded BLAS product that would oversubscribe the cores
shared by parallel sweep workers.  Every sub-map is monotone, so the
discrete comparison principle holds and the Dirac ladder k -> u_k inherits
the monotonicity of the continuum problem.

Long rescaled runs decay through hundreds of e-foldings; fields therefore
carry a ``log_scale`` offset and are renormalized on the fly, with probes
and norms reported in logs.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erfc

from . import geometry, potential as potential_mod, spectral
from .barriers import gaussian_cos_integral, heat_kernel
from .errors import (BudgetError, ConfigurationError, DomainError,
                     InfeasibleRestartError, NumericalError)
from .grids import BALL, PERIODIC, Field, Grid

DEFAULT_LADDER = (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
DIVERGENCE_CEILING = 1e12
_RENORM_FLOOR = 1e-120
_LOG_ZERO = -1e30  # stand-in for log(0) in probe series


@dataclass
class PDESpec:
    """Operator data for one run: d_t u - lap u + <drift, grad u> + a * u**p = 0.

    ``drift`` is None or a callable t -> velocity vector; ``absorption`` is
    None, a constant, a Potential (or the SharedLevels of one), or a
    callable (points, t) -> node values.
    """

    p: float
    drift: object = None
    absorption: object = None

    def velocity(self, t, ndim):
        if self.drift is None:
            return np.zeros(ndim)
        return np.atleast_1d(np.asarray(self.drift(t), dtype=float))


@dataclass
class RunResult:
    """Probe series and bookkeeping of one evolution run.

    Probe/norm series are stored as logs of the physical values (long runs
    underflow doubles); the ``probes``/``l2``/``linf`` properties expose the
    exponentiated series.  ``tau_probes`` collects (tau, t, value) hits of
    general parametric curves.
    """

    final: Field
    times: np.ndarray
    log_probes: np.ndarray
    log_l2: np.ndarray
    log_linf: np.ndarray
    events: list
    diverged: bool = False
    tau_probes: list = dfield(default_factory=list)
    snapshots: list = dfield(default_factory=list)

    @property
    def probes(self):
        return _safe_exp(self.log_probes)

    @property
    def l2(self):
        return _safe_exp(self.log_l2)

    @property
    def linf(self):
        return _safe_exp(self.log_linf)

    def write_probes_csv(self, path):
        flags = {}
        for t, name in self.events:
            flags.setdefault(round(t, 12), []).append(name)
        with open(path, "w") as fh:
            fh.write("t,probe,l2,linf,events\n")
            for i, t in enumerate(self.times):
                names = ";".join(flags.get(round(float(t), 12), []))
                fh.write(f"{t:.12g},{self.probes[i]:.12g},"
                         f"{self.l2[i]:.12g},{self.linf[i]:.12g},{names}\n")


def _safe_exp(logv):
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(np.asarray(logv))


# ----------------------------------------------------------------------
# stepper
# ----------------------------------------------------------------------
# Axes with at most this many interior nodes diffuse through an explicit
# dense inverse; longer axes keep the O(m) tridiagonal solve (see Stepper).
DENSE_AXIS_MAX = 64


class Stepper:
    """IMEX stepper on one grid with per-axis propagators built once.

    Each Dirichlet axis carries the backward-Euler matrix I - dt * D2 in
    banded form.  On an axis with at most ``DENSE_AXIS_MAX`` interior nodes
    the constructor also forms its inverse P by one tridiagonal solve
    against the identity, and every step applies ``P @ v`` (``P0 @ v @
    P1`` in 2D; P is symmetric): a 39 x 39 product costs a few
    microseconds where a per-step ``solve_banded`` spends tens in argument
    checking.  Longer axes keep the per-step banded solve: its work is
    O(m) per column while a dense product is O(m**2), and a product as
    large as 199 x 199 would run multithreaded in BLAS and oversubscribe
    the cores that parallel sweep workers already share.  P is entrywise
    nonnegative in floating point (see ``_propagator``), so the diffusion
    sub-map stays monotone.
    """

    def __init__(self, grid, spec):
        self.grid = grid
        self.spec = spec
        self.dt = grid.dt
        self.hs = grid.spacing
        self._inv_hs = tuple(1.0 / h for h in self.hs)
        self._ball = grid.interior_mask().astype(float) \
            if grid.kind == BALL else None
        self._work = np.empty(grid.shape)
        self._inner = (slice(1, -1),) * grid.ndim
        if grid.kind == PERIODIC:
            # backward-Euler diffusion diagonalizes over Fourier modes
            n = grid.shape[0]
            h = self.hs[0]
            k = np.fft.rfftfreq(n) * n
            self._fft_sym = 1.0 + self.dt * (4.0 / h ** 2) \
                * np.sin(np.pi * k / n) ** 2
        else:
            self._ab = [self._banded(n, h) for n, h in zip(grid.shape, self.hs)]
            self._props = [_propagator(ab) if ab.shape[1] <= DENSE_AXIS_MAX
                           else None for ab in self._ab]
            # per axis: interior, backward and forward slices of the upwind
            # difference, and a buffer for it
            self._upwind_slices = [
                tuple(_axis_slice(grid.ndim, ax, lo, hi)
                      for lo, hi in ((1, -1), (None, -2), (2, None)))
                for ax in range(grid.ndim)]
            self._dbuf = [np.empty(grid.shape[:ax] + (n - 2,)
                                   + grid.shape[ax + 1:])
                          for ax, n in enumerate(grid.shape)]
        self.underflow_count = 0
        self.renorm_count = 0
        self.max_reaction_rate = 0.0
        self.vmax = 0.0

    def _banded(self, n, h):
        r = self.dt / (h * h)
        m = n - 2
        ab = np.zeros((3, m))
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        ab[2, :-1] = -r
        return ab

    def stability_margin(self, t):
        """dt * (sum |c_i|/h_i + max reaction rate); recorded each run."""
        c = self.spec.velocity(t, self.grid.ndim)
        adv = sum(abs(ci) / h for ci, h in zip(c, self.hs))
        return self.dt * (adv + self.max_reaction_rate)

    def _absorption_values(self, t):
        a = self.spec.absorption
        if a is None:
            return None
        if isinstance(a, (int, float)):
            return float(a)
        if isinstance(a, (potential_mod.Potential,
                          potential_mod.SharedLevels)):
            vals, n_under = a.level(self.grid, t)
            self.underflow_count += n_under
            return vals.reshape(self.grid.shape)
        vals = np.asarray(a(self.grid.points(), t), dtype=float)
        return vals.reshape(self.grid.shape)

    def step(self, values, t, log_scale):
        """Advance one time level; returns (values, log_scale).

        ``values`` is left unchanged and the returned array is new.  After
        the call ``vmax`` holds max |values| of the result, which is NaN or
        inf exactly when the result has a non-finite entry.
        """
        dt, p, hs = self.dt, self.spec.p, self.hs
        c = self.spec.velocity(t, self.grid.ndim)
        cfl = dt * sum(abs(ci) / h for ci, h in zip(c, hs))
        if cfl > 0.5 + 1e-12:
            raise ConfigurationError(
                f"drift CFL {cfl:.3g} exceeds 0.5 at t={t:.6g}")
        work = self._work

        # absorption: exact decay map of u' = -a u**p at frozen coefficient,
        # u * (1 + x)**(-1/(p-1)) with x = (p-1) dt a |u|**(p-1), evaluated
        # as exp(-log1p(x)/(p-1)) so that it tends to u * exp(-a dt) as
        # p -> 1 instead of cancelling in 1 + x; at p = 2 it is the exact
        # and cheaper u / (1 + x)
        a = self._absorption_values(t)
        if a is not None and p > 1:
            scale_pow = math.exp(-(p - 1.0) * log_scale) if \
                (p - 1.0) * log_scale < 700 else 0.0
            rate = np.abs(values, out=work)
            rate **= p - 1.0
            rate *= a
            rate *= scale_pow
            self.max_reaction_rate = max(self.max_reaction_rate,
                                         float(rate.max()))
            rate *= (p - 1.0) * dt
            if p == 2.0:
                rate += 1.0
                np.reciprocal(rate, out=rate)
            else:
                np.log1p(rate, out=rate)
                rate *= -1.0 / (p - 1.0)
                np.exp(rate, out=rate)
            values = np.multiply(values, rate, out=work)

        # first-order upwind drift; with several moving axes every
        # difference is taken from the pre-drift values
        moving = [ax for ax in range(self.grid.ndim) if c[ax] != 0.0]
        if moving and self.grid.kind == PERIODIC:
            adv = np.zeros_like(values)
            for ax in moving:
                shift = 1 if c[ax] > 0 else -1
                adv += c[ax] * shift * (values - np.roll(values, shift)) \
                    / hs[ax]
            values = values - dt * adv
        elif moving:
            if values is not work:
                np.copyto(work, values)
                values = work
            diffs = [self._upwind(values, ax, dt * c[ax] * self._inv_hs[ax])
                     for ax in moving]
            for ax, d in zip(moving, diffs):
                values[self._upwind_slices[ax][0]] -= d

        # implicit diffusion, axis by axis
        if self.grid.kind == PERIODIC:
            out = np.fft.irfft(np.fft.rfft(values) / self._fft_sym,
                               n=values.size)
        else:
            out = np.zeros(self.grid.shape)
            out[self._inner] = self._diffuse(values[self._inner])
            if self._ball is not None:
                out *= self._ball

        # keep the working array inside double range on decaying runs;
        # physical = values * exp(-log_scale), so dividing by vmax adds
        # -log(vmax) to the offset
        vmax = float(np.abs(out, out=work).max())
        if 0.0 < vmax < _RENORM_FLOOR:
            out /= vmax
            log_scale -= math.log(vmax)
            self.renorm_count += 1
            vmax = 1.0
        self.vmax = vmax
        return out, log_scale

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
        for ax, (ab, prop) in enumerate(zip(self._ab, self._props)):
            if ax == 0:
                inner = prop @ inner if prop is not None \
                    else solve_banded((1, 1), ab, inner)
            else:
                # prop is symmetric, so it is its own transpose here
                inner = inner @ prop if prop is not None \
                    else solve_banded((1, 1), ab, inner.T).T
        return inner


def _propagator(ab):
    """Inverse of the symmetric tridiagonal matrix ``ab`` (banded form).

    The elimination on this diagonally dominant M-matrix only adds
    nonnegative terms, so every entry is >= 0 in floating point.  The two
    triangles agree to rounding; averaging them makes the result exactly
    symmetric.
    """
    inv = solve_banded((1, 1), ab, np.eye(ab.shape[1]))
    return 0.5 * (inv + inv.T)


def _axis_slice(ndim, axis, start, stop):
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop)
    return tuple(sl)


def step_imex(fld, spec):
    """Advance a field one time level under the given operator."""
    stepper = Stepper(fld.grid, spec)
    vals, log_scale = stepper.step(fld.values, fld.time, fld.log_scale)
    if not math.isfinite(stepper.vmax):
        raise NumericalError("non-finite values after one step")
    return Field(fld.grid, vals, fld.time + fld.grid.dt, log_scale)


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------
def dirac_family(k, grid, t_start, ladder=DEFAULT_LADDER):
    """Mollified Dirac datum k * K(., 0, t_start) on the grid.

    The kernel must span at least 4 cells: sqrt(4 t_start) >= 4 h.  The
    infinity marker (k = inf) selects the top of the configured ladder.
    """
    if k == math.inf:
        k = max(ladder)
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
    vals = k * heat_kernel(xs, origin, t_start, n_dim=grid.ndim)
    vals = vals.reshape(grid.shape)
    if grid.kind == BALL:
        vals = np.where(grid.interior_mask(), vals, 0.0)
    return Field(grid, vals, t_start)


# ----------------------------------------------------------------------
# evolution drivers
# ----------------------------------------------------------------------
def _interp(grid, values, point):
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    axes = grid.axes
    if grid.ndim == 1:
        return float(np.interp(pt[0], axes[0], values))
    x, y = pt
    ax, ay = axes
    i = int(np.clip(np.searchsorted(ax, x) - 1, 0, ax.size - 2))
    j = int(np.clip(np.searchsorted(ay, y) - 1, 0, ay.size - 2))
    fx = (x - ax[i]) / (ax[i + 1] - ax[i])
    fy = (y - ay[j]) / (ay[j + 1] - ay[j])
    fx = min(max(fx, 0.0), 1.0)
    fy = min(max(fy, 0.0), 1.0)
    return float(values[i, j] * (1 - fx) * (1 - fy)
                 + values[i + 1, j] * fx * (1 - fy)
                 + values[i, j + 1] * (1 - fx) * fy
                 + values[i + 1, j + 1] * fx * fy)


def _log_norms(values, log_scale, half_log_vol, vmax):
    if vmax == 0.0:
        return _LOG_ZERO, _LOG_ZERO
    flat = values.ravel()
    l2 = math.sqrt(flat @ flat)
    return (math.log(l2) + half_log_vol - log_scale,
            math.log(vmax) - log_scale)


def evolve(fld, spec, t_end, curve=None, ceiling=DIVERGENCE_CEILING,
           snapshot_times=None):
    """Drive a field to t_end recording probes, norms and events.

    The generic driver behind :func:`solve_uk`, :func:`solve_rescaled` and
    :func:`tunnel_run`; use it directly for custom operator combinations.
    ``snapshot_times`` is an increasing array of times at which the working
    array is copied out (each matched to the nearest step within dt/2).
    """
    grid = fld.grid
    stepper = Stepper(grid, spec)
    values = fld.values.copy()
    log_scale = fld.log_scale
    t = fld.time
    n_steps = int(round((t_end - t) / grid.dt))
    times = np.empty(n_steps)
    log_probes = np.empty(n_steps)
    log_l2 = np.empty(n_steps)
    log_linf = np.empty(n_steps)
    events = []
    tau_probes = []
    snapshots = []
    diverged = False
    graph_curve = curve is not None and curve.kind == geometry.GRAPH
    snap_queue = list(snapshot_times) if snapshot_times is not None else []
    half_log_vol = 0.5 * math.log(grid.cell_volume)
    log_ceiling = math.log(ceiling)

    for istep in range(n_steps):
        values, log_scale = stepper.step(values, t, log_scale)
        t = fld.time + (istep + 1) * grid.dt
        times[istep] = t
        if not math.isfinite(stepper.vmax):
            events.append((t, "non-finite"))
            diverged = True
            n_steps = istep + 1
            break
        log_l2[istep], log_linf[istep] = _log_norms(values, log_scale,
                                                    half_log_vol, stepper.vmax)
        if graph_curve:
            pos = curve.position_at_time(min(t, curve.horizon))
            v = _interp(grid, values, pos)
            log_probes[istep] = (math.log(v) - log_scale) if v > 0 else _LOG_ZERO
        elif curve is not None:
            hits = np.where(np.abs(curve.t - t) <= grid.dt / 2.0)[0]
            best = 0.0
            for j in hits:
                v = _interp(grid, values, curve.x[j]) * math.exp(-log_scale)
                tau_probes.append((float(curve.tau[j]), float(t), v))
                best = max(best, v)
            log_probes[istep] = math.log(best) if best > 0 else _LOG_ZERO
        else:
            log_probes[istep] = log_linf[istep]
        if log_linf[istep] > log_ceiling:
            events.append((t, "divergence-ceiling"))
            diverged = True
            n_steps = istep + 1
            break
        while snap_queue and t >= snap_queue[0] - grid.dt / 2.0:
            snapshots.append((t, values.copy(), log_scale))
            snap_queue.pop(0)

    events.append((t, "stability-margin:"
                   f"{stepper.stability_margin(t):.3g}"))
    if stepper.underflow_count:
        events.append((t, f"h-underflow:{stepper.underflow_count}"))
    if stepper.renorm_count:
        events.append((t, f"renormalized:{stepper.renorm_count}"))
    final = Field(grid, values, t, log_scale)
    tail = _tail_fraction(values, grid)
    if tail > 1e-8:
        events.append((t, f"tail-mass:{tail:.3g}"))
    return RunResult(final=final, times=times[:n_steps],
                     log_probes=log_probes[:n_steps], log_l2=log_l2[:n_steps],
                     log_linf=log_linf[:n_steps], events=events,
                     diverged=diverged, tau_probes=tau_probes,
                     snapshots=snapshots)


def _tail_fraction(values, grid):
    total = float(np.sum(np.abs(values)))
    if total == 0.0 or grid.kind == BALL:
        return 0.0
    if grid.ndim == 1:
        edge = float(np.sum(np.abs(values[:2])) + np.sum(np.abs(values[-2:])))
    else:
        edge = float(np.sum(np.abs(values[:2, :])) + np.sum(np.abs(values[-2:, :]))
                     + np.sum(np.abs(values[:, :2])) + np.sum(np.abs(values[:, -2:])))
    return edge / total


def solve_uk(k, curve, pot, p, horizon, grid, t_start=None,
             ceiling=DIVERGENCE_CEILING, ladder=DEFAULT_LADDER,
             snapshot_times=None):
    """Evolve the Dirac-datum solution u_k probing along the curve.

    Numerical blow-up along the curve is recorded (run frozen, verdict in
    ``events``) when any probe exceeds the divergence ceiling.  ``pot`` is
    a Potential or a :class:`potential.SharedLevels`: the rungs of a
    ladder pass one SharedLevels so that h is evaluated once per time
    level for all of them (they start at the same ``t_start``), and each
    run is bitwise the same as with the bare Potential.
    """
    if curve is not None and pot.distance == potential_mod.PARABOLIC \
            and curve.dim != grid.ndim:
        raise ConfigurationError("curve and grid dimensions disagree")
    if t_start is None:
        h = max(grid.spacing)
        t_start = 4.0 * h * h
    fld = dirac_family(k, grid, t_start, ladder)
    spec = PDESpec(p=p, drift=None, absorption=pot)
    return evolve(fld, spec, horizon, curve=curve, ceiling=ceiling,
                   snapshot_times=snapshot_times)


@dataclass
class RescaledResult:
    """Zoomed run on the unit ball plus its blow-up instrumentation."""

    run: RunResult
    eps: float
    alpha: float
    p: float
    log_center_final: float
    log_amplified: float | None
    c1: float
    sigma_tau: float
    beta_tau: float
    delta_tau: float
    conformance_margin: float
    lam0: float


def solve_rescaled(eps, curve, p, alpha, grid, profile=None, psi0=None,
                   k=math.inf, ladder=DEFAULT_LADDER, t_start=None,
                   probe_stride=None, max_steps=2_000_000):
    """Evolve the zoomed field on the unit ball out to time alpha/eps**2.

    The moving frame contributes the drift eps * x'(eps**2 t); absorption is
    the unit-coefficient power nonlinearity.  Records the center value at
    the final time (as a log), the Hopf ratio c1 = min field(., 1)/psi0, the
    measured nonlinear feedback sup, and the conformance margin against the
    exponential lower envelope on [1, tau].
    """
    if curve.kind != geometry.GRAPH:
        raise ConfigurationError("rescaled runs need a graph-over-t curve")
    if curve.horizon < alpha - 1e-12:
        raise ConfigurationError("curve horizon must reach alpha")
    t_end = alpha / (eps * eps)
    n_steps = int(round(t_end / grid.dt))
    if n_steps > max_steps:
        raise BudgetError(
            f"{n_steps} steps exceed the budget; raise eps above "
            f"{math.sqrt(alpha / (max_steps * grid.dt)):.3g} or enlarge dt",
            limiting_parameter="eps")
    if t_start is None:
        h = max(grid.spacing)
        # align the mollification time to the step grid so snapshot targets
        # (multiples of dt) are hit exactly
        t_start = math.ceil(4.0 * h * h / grid.dt - 1e-12) * grid.dt

    def drift(t):
        return eps * curve.velocity_at_time(eps * eps * t)

    if psi0 is None:
        psi0 = _ground_state_for(grid)
    psi_grid = _psi_on_grid(psi0, grid)
    core = grid.interior_mask() & (psi_grid >= 1e-3)
    pts = grid.points()

    spec = PDESpec(p=p, drift=drift, absorption=1.0)
    fld = dirac_family(k, grid, t_start, ladder)
    if probe_stride is None:
        probe_stride = 0.5
    snap_times = np.arange(1.0, t_end + 1e-9, probe_stride)

    state = {"c1": math.nan, "sigma": 0.0}
    result = evolve(fld, spec, t_end, curve=None, snapshot_times=snap_times)

    # Hopf ratio at the first stored time >= 1 and running feedback sup
    for (t, vals, s) in result.snapshots:
        phys = vals * math.exp(-s) if s < 700 else vals * 0.0
        if math.isnan(state["c1"]):
            state["c1"] = float(np.min(phys[core] / psi_grid[core]))
        b = drift(t)
        bnorm = float(np.linalg.norm(b))
        dots = (pts @ b if grid.ndim > 1 else pts[:, 0] * b[0]).reshape(grid.shape)
        wmax = float(np.max(vals * np.exp(-0.5 * dots))) * math.exp(-s)
        state["sigma"] = max(state["sigma"],
                             math.exp(0.5 * (p - 1.0) * bnorm) * wmax ** (p - 1.0))

    beta_tau = eps * curve.sup_speed(eps * eps, alpha)
    delta_tau = eps ** 3 * curve.sup_accel(eps * eps, alpha)
    rate = spectral.envelope_rate(psi0.lam, beta_tau, delta_tau, state["sigma"])

    margin = math.inf
    if not math.isnan(state["c1"]) and state["c1"] > 0:
        log_c1 = math.log(state["c1"])
        log_psi = np.log(psi_grid[core])
        for (t, vals, s) in result.snapshots:
            with np.errstate(divide="ignore"):
                log_phys = np.where(vals[core] > 0,
                                    np.log(np.maximum(vals[core], 1e-300)) - s,
                                    _LOG_ZERO)
            bound = log_c1 + log_psi - rate * (t - 1.0)
            margin = min(margin, float(np.min(log_phys - bound)))

    center = tuple(n // 2 for n in grid.shape)
    cval = result.final.values[center]
    log_center = (math.log(cval) - result.final.log_scale) if cval > 0 \
        else _LOG_ZERO
    log_amp = None
    if profile is not None:
        from .potential import eval_profile
        log_amp = (-2.0 / (p - 1.0) * math.log(eps)
                   + eval_profile(profile, eps) / (p - 1.0) + log_center)
    return RescaledResult(run=result, eps=eps, alpha=alpha, p=p,
                          log_center_final=log_center, log_amplified=log_amp,
                          c1=state["c1"], sigma_tau=state["sigma"],
                          beta_tau=beta_tau, delta_tau=delta_tau,
                          conformance_margin=margin, lam0=psi0.lam)


def _ground_state_for(grid):
    if grid.ndim == 1:
        return spectral.dirichlet_ground_state("interval", grid.shape[0] - 2)
    return spectral.dirichlet_ground_state("ball", 512, n_dim=2)


def _psi_on_grid(psi0, grid):
    pts = grid.points()
    if grid.ndim == 1:
        vals = psi0.interpolate(pts[:, 0])
    else:
        vals = psi0.interpolate(pts)
    return vals.reshape(grid.shape)


def restart_from_mass(source, k, grid, center=None, sigma=None):
    """Truncated-restricted restart datum min(m, u) * indicator(B_sigma).

    The level m solves the mass equation integral = k by bisection; when
    ``sigma`` is omitted the smallest grid-representable ball (down to three
    cells) holding mass k is used.  Raises InfeasibleRestartError when no
    admissible ball carries enough mass (the localization signal).
    """
    fld = source.final if isinstance(source, RunResult) else source
    if k < 0:
        raise ConfigurationError("restart mass must be nonnegative")
    if k == 0:
        return Field(grid, np.zeros(grid.shape), fld.time)
    u = fld.physical().reshape(grid.shape)
    pts = grid.points()
    if center is None:
        center = pts[int(np.argmax(u.ravel()))]
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dists = np.linalg.norm(pts - center, axis=1).reshape(grid.shape)
    vol = grid.cell_volume
    h = max(grid.spacing)

    def mass_in(sig, m):
        sel = dists <= sig
        return float(np.sum(np.minimum(u[sel], m)) * vol)

    if sigma is None:
        half_width = min(min(abs(center[i] - grid.lo[i]),
                             abs(grid.hi[i] - center[i]))
                         for i in range(grid.ndim))
        candidates = np.arange(3 * h, half_width + h, h)
        sigma = None
        for sig in candidates:
            if mass_in(sig, math.inf) >= k:
                sigma = float(sig)
                break
        if sigma is None:
            raise InfeasibleRestartError(
                f"available mass {mass_in(half_width, math.inf):.6g} < k={k} "
                "for every ball down to grid resolution")
    elif mass_in(sigma, math.inf) < k:
        raise InfeasibleRestartError(
            f"ball of radius {sigma} holds mass "
            f"{mass_in(sigma, math.inf):.6g} < k={k}")

    lo, hi = 0.0, float(np.max(u)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass_in(sigma, mid) < k:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(hi, 1.0):
            break
    m = hi
    vals = np.where(dists <= sigma, np.minimum(u, m), 0.0)
    out = Field(grid, vals, fld.time)
    out.note = f"restart sigma={sigma:.6g} m={m:.6g} k={k:.6g}"
    return out


# ----------------------------------------------------------------------
# tunnel runs (line degeneracy in the initial plane)
# ----------------------------------------------------------------------
@dataclass
class TunnelResult:
    """Rescaled tunnel run with subsolution calibration and half-widths.

    The rescaled problem is zoom-independent; the zoom enters through the
    amplification prefactor only, so one PDE run serves the whole eps
    sequence.  Per-eps records hold (eps, delta_formula, delta_measured,
    log floor at the axis center).
    """

    run: RunResult
    p: float
    gamma: float | None
    a: float
    c: float
    conformance_min: float
    lam: float
    per_eps: list


def tunnel_run(eps, p, profile, case, grid, gamma=None, k=math.inf,
               ladder=DEFAULT_LADDER, t_start=None, a_shift=0.1,
               tau_cal=0.05, c_safety=0.9, floor_threshold=1e6):
    """Evolve the rescaled tunnel problem and calibrate the explicit floor.

    ``case`` is "subcritical" (unit absorption coefficient) or
    "supercritical" (weighted coefficient (max(sqrt(tau), |xi'|))**gamma,
    gated by gamma > N(p-1) - 2).  The run is compared against c * W(., tau)
    after the calibration shift a: c is the grid minimum of the ratio at the
    first comparison time, deflated by ``c_safety``, and the conformance
    minimum of w(., tau + a) - c W(., tau) over later times is recorded.
    """
    eps_list = [float(eps)] if np.isscalar(eps) else [float(e) for e in eps]
    if grid.ndim != 2:
        raise ConfigurationError("tunnel runs use a 2D (axis x cross) grid")
    n_dim = 2  # one axis direction + one cross direction
    if case == "supercritical":
        if gamma is None:
            raise ConfigurationError("supercritical tunnel needs gamma")
        gate_pot = potential_mod.Potential(profile, potential_mod.ANISOTROPIC)
        potential_mod.split_h(gate_pot, gamma, (0.0, 0.5, 0.01), p=p,
                              n_dim=n_dim)
        shifted = potential_mod.shifted_profile(
            profile, gamma, np.linspace(min(eps_list) / 8, max(eps_list), 64))
        if np.any(np.diff(shifted) > 1e-9):
            raise ConfigurationError(
                "shifted profile not nonincreasing below eps; "
                "weighted tunnel bound unavailable")
    elif case != "subcritical":
        raise ConfigurationError(f"unknown tunnel case {case!r}")

    length = grid.hi[0]
    tail = erfc(length / 2.0)  # 1D marginal mass beyond the truncation at tau=1
    if tail > 1e-8:
        raise ConfigurationError(
            f"axis truncation {length} too short: Gaussian tail {tail:.3g}")

    if t_start is None:
        h = max(grid.spacing)
        t_start = math.ceil(4.0 * h * h / grid.dt - 1e-12) * grid.dt

    if case == "supercritical":
        pts = grid.points()
        xperp = np.abs(pts[:, 1])

        def coeff(points, t):
            return np.maximum(math.sqrt(max(t, 0.0)), xperp) ** gamma

        absorption = coeff
    else:
        absorption = 1.0

    spec = PDESpec(p=p, drift=None, absorption=absorption)
    fld = dirac_family(k, grid, t_start, ladder)
    snap_times = np.arange(tau_cal + a_shift, 1.0 - 1e-9, 0.05)
    result = evolve(fld, spec, 1.0, snapshot_times=snap_times)

    # cross-section ground state at the tunnel discretization
    n_cross = grid.shape[1]
    pair = spectral.dirichlet_ground_state("interval", n_cross - 2)
    lam = pair.lam
    phi_vals = np.concatenate([[0.0], pair.values, [0.0]])
    xi1 = grid.axes[0]

    def W_at(tau):
        g = gaussian_cos_integral(xi1, tau)
        return math.exp(-(lam + 1.0) * tau) * np.outer(g, phi_vals)

    snaps = {round(t, 9): (vals, s) for t, vals, s in result.snapshots}
    check_times = sorted(snaps)
    if not check_times:
        raise NumericalError("tunnel run produced no comparison snapshots")
    c_val = math.inf
    t0 = check_times[0]
    vals, s = snaps[t0]
    w0 = vals * math.exp(-s)
    W0 = W_at(t0 - a_shift)
    sel = W0 >= 1e-10 * W0.max()
    c_val = float(np.min(w0[sel] / W0[sel])) * c_safety
    c_val = min(c_val, 1.0)

    conf_min = math.inf
    for t in check_times:
        vals, s = snaps[t]
        w = vals * math.exp(-s)
        W = W_at(t - a_shift)
        conf_min = min(conf_min, float(np.min(w - c_val * W)))

    per_eps = []
    g0 = gaussian_cos_integral(0.0, 1.0)
    log_i0 = math.log(_envelope_mass())
    for e in eps_list:
        ell = potential_mod.eval_profile(profile, e)
        log_pref = -2.0 / (p - 1.0) * math.log(e) + ell / (p - 1.0)
        log_floor0 = math.log(c_val) + log_pref - (lam + 1.0) + math.log(g0)
        delta_formula = math.sqrt(2.0 * e * e * ell / (p - 1.0))
        delta_meas = _half_width(c_val, lam, log_pref, e,
                                 math.log(floor_threshold), log_i0)
        per_eps.append({"eps": e, "delta_formula": delta_formula,
                        "delta_measured": delta_meas,
                        "log_floor_center": log_floor0})
    return TunnelResult(run=result, p=p, gamma=gamma, a=a_shift, c=c_val,
                        conformance_min=conf_min, lam=lam, per_eps=per_eps)


def _envelope_mass():
    """(4 pi)**(-1/2) integral of exp(-z**2/2) cos(z) over [-pi/2, pi/2]."""
    z = np.linspace(-np.pi / 2.0, np.pi / 2.0, 20001)
    return float(np.trapezoid(np.exp(-z * z / 2.0) * np.cos(z), z)
                 / math.sqrt(4.0 * math.pi))


def _half_width(c_val, lam, log_pref, e, log_threshold, log_i0):
    """Largest |x1| where the Gaussian-envelope floor clears the threshold."""
    budget = (math.log(c_val) + log_pref - (lam + 1.0) + log_i0
              - log_threshold)
    if budget <= 0:
        return 0.0
    return math.sqrt(2.0 * budget) * e
