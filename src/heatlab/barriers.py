"""Closed-form barriers and heat-kernel representations, with grid verifiers.

Every explicit super/subsolution used by the solvers is exposed twice: as a
pointwise evaluator (the formulas below) and through
:func:`verify_supersolution`, which scans a finite-difference residual of
the parabolic operator over a grid and certifies the sign.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .grids import Field, Grid, stencil_slices


# ----------------------------------------------------------------------
# fundamental solution
# ----------------------------------------------------------------------
def heat_kernel(x, y, t, n_dim=1):
    """Gaussian kernel (4*pi*t)**(-N/2) * exp(-|x-y|**2 / (4t)) for t > 0.

    ``x`` and ``y`` are scalars or arrays of points; for ``n_dim`` >= 2 the
    last axis holds the coordinates.
    """
    if t <= 0:
        raise DomainError("heat kernel needs t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x - y
    if n_dim == 1:
        sq = diff * diff
    else:
        sq = np.sum(diff * diff, axis=-1)
    out = (4.0 * np.pi * t) ** (-n_dim / 2.0) * np.exp(-sq / (4.0 * t))
    return float(out) if np.ndim(out) == 0 else out


def represent_linear(mass, nu, grid, t, quad_points=65):
    """Kernel representation of the linear flow with Dirac initial mass.

    Evaluates ``mass * K(x, 0, t)`` plus the space-time convolution of the
    source density ``nu(points, s)`` (``None`` for no source).  The time
    integral substitutes u = sqrt(t - s) to absorb the kernel singularity at
    s = t and applies a composite trapezoid rule in u.

    At t = 0 the Dirac datum is not a function; a flagged zero measure row
    is returned instead.
    """
    if t < 0:
        raise DomainError("representation needs t >= 0")
    pts = grid.points()
    ndim = grid.ndim
    if t == 0:
        return Field(grid, np.zeros(grid.shape), 0.0, note=(
            f"measure-row: mass {mass} at origin" if mass != 0 else None))
    origin = np.zeros(ndim) if ndim > 1 else 0.0
    xs = pts if ndim > 1 else pts[:, 0]
    vals = mass * heat_kernel(xs, origin, t, n_dim=ndim)
    if nu is not None:
        u_nodes = np.linspace(0.0, np.sqrt(t), quad_points)
        h_space = grid.cell_volume
        h_min = min(grid.spacing)
        integrand = np.zeros((quad_points, pts.shape[0]))
        for j, u in enumerate(u_nodes):
            s = t - u * u
            dens = np.asarray(nu(pts, s), dtype=float).ravel()
            if 2.0 * u < h_min:
                conv = dens  # kernel narrower than the mesh: delta limit
            else:
                diff = xs[:, None] - xs[None] if ndim == 1 else \
                    pts[:, None, :] - pts[None, :, :]
                kern = heat_kernel(diff, 0.0 if ndim == 1 else np.zeros(ndim),
                                   u * u, n_dim=ndim)
                conv = kern @ dens * h_space
            integrand[j] = 2.0 * u * conv
        vals = vals + np.trapezoid(integrand, u_nodes, axis=0)
    return Field(grid, vals.reshape(grid.shape), t)


# ----------------------------------------------------------------------
# ODE barriers
# ----------------------------------------------------------------------
def ode_maximal(beta, q, t, t0=0.0):
    """Maximal solution of y' + beta*y**q = 0: blows up as t -> t0+."""
    if q <= 1 or beta <= 0:
        raise ConfigurationError("ode_maximal needs q > 1 and beta > 0")
    t = np.asarray(t, dtype=float)
    if np.any(t <= t0):
        raise DomainError("ode_maximal is defined for t > t0")
    out = (1.0 / (beta * (q - 1.0) * (t - t0))) ** (1.0 / (q - 1.0))
    return float(out) if out.ndim == 0 else out


def decayed_ode(m, eta, q, t):
    """Solution of phi' + eta*phi**q = 0 with phi(0) = m."""
    if q <= 1 or m <= 0 or eta <= 0:
        raise ConfigurationError("decayed_ode needs q > 1, m > 0, eta > 0")
    t = np.asarray(t, dtype=float)
    mq = m ** (q - 1.0)
    out = (mq / (1.0 + eta * (q - 1.0) * mq * t)) ** (1.0 / (q - 1.0))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# radial absorption barriers and their calibrated constants
# ----------------------------------------------------------------------
_CAL_CACHE = {}
_CAL_GRIDS_1D = (129, 257)
_CAL_GRIDS_2D = (49, 97)


@np.errstate(invalid="ignore")
def _unit_residual_parts(n, n_dim, q):
    """Discrete (laplacian, |gradient|, g, band mask) on the unit ball, by
    the stencils of :func:`verify_supersolution`.

    Stencils touching the sphere hit the infinite boundary values of g and
    yield nan or inf; the band mask |w| <= 1 - 2h keeps them out of the
    residual.
    """
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    r2 = xs * xs if n_dim == 1 else np.add.outer(xs * xs, xs * xs)
    g = np.full(r2.shape, np.inf)
    inside = r2 < 1.0
    g[inside] = (1.0 - r2[inside]) ** (-2.0 / (q - 1.0))
    hs = (h,) * n_dim
    return (_laplacian(g, hs), _grad_norm(g, hs), g,
            np.sqrt(r2) <= 1.0 - 2.0 * h)


def _calibrate_unit_constant(n_dim, q, c_hat):
    """Smallest C in [1, 1e6] with nonnegative FD residual on the unit ball.

    The residual of C*g under -lap - c_hat*|grad| + (.)**q factors as
    C * (-lap g - c_hat |grad g| + C**(q-1) g**q), so it is nonnegative
    exactly where C**(q-1) >= (lap g + c_hat |grad g|) / g**q: C is the
    (q-1)-th root of the largest ratio, rounded up by a relative 1e-12 so
    that rounding in the residual cannot tip it below zero.  Checked at two
    grid refinements on the band |w| <= 1 - 2h (the blow-up layer next to
    the sphere cannot carry a stencil).
    """
    grids = _CAL_GRIDS_1D if n_dim == 1 else _CAL_GRIDS_2D
    need = max(float(np.max((lap[band] + c_hat * grad[band]) / g[band] ** q))
               for lap, grad, g, band in
               (_unit_residual_parts(n, n_dim, q) for n in grids))
    if need <= 1.0:
        return 1.0
    root = need ** (1.0 / (q - 1.0))
    if root > 1.0e6:
        raise NumericalError(
            f"no barrier constant in [1, 1e6] for N={n_dim}, q={q}, c={c_hat}")
    return root * (1.0 + 1e-12)


def drift_barrier_constant(n_dim, q, c=0.0, eta=1.0, rho=1.0):
    """Calibrated constant C(N, q, c, eta) of the radial drift barrier.

    Calibration runs on the unit reference ball with effective drift
    c*rho (the exact scaling of the inequality) and unit absorption; the
    eta dependence is the closed-form factor eta**(-1/(q-1)).
    """
    if q <= 1:
        raise ConfigurationError("barrier constant needs q > 1")
    c_hat = float(c) * float(rho)
    key = (int(n_dim), float(q), round(c_hat, 12))
    if key not in _CAL_CACHE:
        _CAL_CACHE[key] = _calibrate_unit_constant(n_dim, q, c_hat)
    return _CAL_CACHE[key] * eta ** (-1.0 / (q - 1.0))


def drift_radial_barrier(rho, c, eta, q, center, y, n_dim=None):
    """Radial supersolution of -lap(psi) - c|grad(psi)| + eta*psi**q >= 0.

    psi(y) = C * rho**(2/(q-1)) / (rho**2 - |y-z|**2)**(2/(q-1)) on the open
    ball B_rho(z), with C calibrated per (N, q, c, eta).
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    y = np.asarray(y, dtype=float)
    if n_dim is None:
        n_dim = center.size
    d2 = _dist2(y, center, n_dim)
    if np.any(d2 >= rho * rho):
        raise DomainError("radial barrier is defined on the open ball only")
    C = drift_barrier_constant(n_dim, q, c, eta, rho)
    k = 2.0 / (q - 1.0)
    out = C * rho ** k / (rho * rho - d2) ** k
    return float(out) if np.ndim(out) == 0 else out


# ----------------------------------------------------------------------
# tunnel subsolution (line degeneracy)
# ----------------------------------------------------------------------
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 200


def gaussian_cos_integral(y, tau):
    """(4*pi*tau)**(-1/2) * integral of exp(-(y-z)**2/(4 tau)) cos(z) dz
    over z in [-pi/2, pi/2], by composite Gauss-Legendre panels sized to
    the Gaussian width (at most ``_MAX_PANELS`` of them)."""
    if tau <= 0:
        raise DomainError("gaussian_cos_integral needs tau > 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    width = max(2.0 * np.sqrt(tau), np.pi / _MAX_PANELS)
    n_panels = max(1, int(np.ceil(np.pi / width)))
    edges = np.linspace(-np.pi / 2.0, np.pi / 2.0, n_panels + 1)
    zs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        zs.append(0.5 * (b - a) * _GL_NODES + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * _GL_WEIGHTS)
    zs = np.concatenate(zs)
    ws = np.concatenate(ws)
    kern = np.exp(-((y[:, None] - zs[None, :]) ** 2) / (4.0 * tau))
    vals = (kern * (np.cos(zs) * ws)[None, :]).sum(axis=1) / np.sqrt(4.0 * np.pi * tau)
    return vals if vals.size > 1 else float(vals[0])


def tunnel_subsolution(xi1, xi_perp, tau, lam, phi):
    """Explicit solution W of d_tau W - lap(W) + W = 0 in the unit tunnel.

    W(xi1, xi', tau) = exp(-(lam+1) tau) * G(xi1, tau) * phi(xi') where G is
    :func:`gaussian_cos_integral` and ``phi`` is a callable cross-section
    ground state normalized to maximum 1; arrays ``xi1`` and ``xi_perp``
    give their tensor grid.  Satisfies 0 <= W <= 1, vanishes on the
    lateral boundary, and is a subsolution of the absorption equation for
    any exponent p > 1.
    """
    if tau <= 0:
        raise DomainError("tunnel subsolution needs tau > 0")
    return np.exp(-(lam + 1.0) * tau) * np.multiply.outer(
        gaussian_cos_integral(xi1, tau), phi(xi_perp))


# ----------------------------------------------------------------------
# residual verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BarrierReport:
    """Residual statistics of one super/subsolution check on a grid."""

    name: str
    grid: str
    tol: float
    min_residual: float
    violations: int
    n_checked: int

    @property
    def passed(self):
        return self.violations == 0

    def csv_row(self):
        return (f"{self.name},{self.grid},{self.tol:.6g},"
                f"{self.min_residual:.12g},{self.violations},{self.n_checked}")


def write_reports(reports, path):
    with open(path, "w") as fh:
        fh.write("name,grid,tol,min_residual,violations,n_checked\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")


def verify_supersolution(values, grid, times, q, absorption=None, drift=None,
                         tol=1e-9, name="barrier", mask=None, sign=+1):
    """Scan the parabolic residual of a sampled field and report its sign.

    Parameters
    ----------
    values : ndarray, shape (nt, *spatial) or (*spatial,)
        Field samples; a single time level is treated as steady (d_t = 0).
    grid : Grid
    times : ndarray or None
        Uniform time levels matching ``values``; None for steady fields.
    q : float
        Absorption exponent.
    absorption : None, float, or ndarray broadcastable to the field
        Coefficient of the u**q term.
    drift : None or float
        Modulus c of the drift term -c|grad u|.
    tol : float
        Pass threshold: supersolutions need residual >= -tol everywhere.
    mask : ndarray of bool, optional
        Restriction of the spatial check region; it is intersected with
        ``grid.interior_mask()``, the default.
    sign : +1 for a supersolution check, -1 for a subsolution check.

    Returns a :class:`BarrierReport`; ``violations`` counts nodes where
    ``sign * residual < -tol``.
    """
    vals = np.asarray(values, dtype=float)
    spatial = grid.shape
    steady = vals.shape == spatial
    if steady:
        vals = vals[None]
    nt = vals.shape[0]
    if not steady and nt < 3:
        raise ConfigurationError("time-dependent checks need >= 3 levels")
    if vals.shape[1:] != spatial:
        raise ConfigurationError("field samples do not match the grid")
    hs = grid.spacing
    mask = grid.interior_mask() if mask is None \
        else mask & grid.interior_mask()

    worst = np.inf
    violations = 0
    checked = 0
    t_range = [0] if steady else range(1, nt - 1)
    dt = None if steady else float(times[1] - times[0])
    for k in t_range:
        u = vals[k]
        res = np.zeros_like(u)
        if not steady:
            res += (vals[k + 1] - vals[k - 1]) / (2.0 * dt)
        res -= _laplacian(u, hs)
        if drift is not None:
            res -= drift * _grad_norm(u, hs)
        if absorption is not None:
            res += absorption * np.abs(u) ** (q - 1.0) * u
        got = sign * res[mask]
        checked += got.size
        if got.size:
            worst = min(worst, float(np.min(got)))
            violations += int(np.count_nonzero(got < -tol))
    return BarrierReport(name=name, grid=grid.describe(), tol=tol,
                         min_residual=worst if checked else 0.0,
                         violations=violations, n_checked=checked)


def _laplacian(u, hs):
    out = np.zeros_like(u)
    for ax, h in enumerate(hs):
        c, m, p = stencil_slices(u.ndim, ax)
        out[c] += (u[p] - 2 * u[c] + u[m]) / h ** 2
    return out


def _centered(u, h, axis):
    out = np.zeros_like(u)
    c, m, p = stencil_slices(u.ndim, axis)
    out[c] = (u[p] - u[m]) / (2.0 * h)
    return out


def _grad_norm(u, hs):
    grads = [_centered(u, h, ax) for ax, h in enumerate(hs)]
    if u.ndim == 1:
        return np.abs(grads[0])
    return np.sqrt(sum(g * g for g in grads))


def _dist2(y, center, n_dim):
    y = np.asarray(y, dtype=float)
    if n_dim == 1:
        return (y - center[0]) ** 2
    return np.sum((y - center) ** 2, axis=-1)


# ----------------------------------------------------------------------
# the shipped verification suite
# ----------------------------------------------------------------------
def standard_reports():
    """Residual-check the three shipped supersolutions at two resolutions
    (129 and 257 nodes) for q = 2, eta = 1 and drift modulus c = 1.

    1. the steady radial drift barrier psi on the unit ball;
    2. decaying plateau + psi under the modulus-drift operator (tube bound);
    3. blow-up-at-start ceiling y_M + boundary barrier, no drift.

    The barrier blows up at |x| = 1, so residuals are scanned on the band
    |x| <= 1 - 2h; boundary nodes hold inf and never enter a checked stencil.
    """
    q, eta, c = 2.0, 1.0, 1.0
    reports = []
    for n in (129, 257):
        grid = Grid.interval(-1.0, 1.0, n, dt=0.005)
        x = grid.axes[0]
        h = grid.spacing[0]
        band = np.abs(x) <= 1.0 - 2.0 * h

        psi = np.full(n, np.inf)
        psi[1:-1] = drift_radial_barrier(1.0, c, eta, q, 0.0, x[1:-1])
        with np.errstate(invalid="ignore"):
            reports.append(verify_supersolution(
                psi, grid, None, q, absorption=eta, drift=c,
                name=f"radial-drift-barrier-n{n}", mask=band))

            times = np.arange(0.0, 0.2 + 1e-12, 0.005)
            phi = decayed_ode(3.0, eta, q, times)
            reports.append(verify_supersolution(
                phi[:, None] + psi[None, :], grid, times, q, absorption=eta,
                drift=c, name=f"tube-supersolution-n{n}",
                mask=band))

            psi0 = np.full(n, np.inf)
            psi0[1:-1] = drift_radial_barrier(1.0, 0.0, eta, q, 0.0, x[1:-1])
            times2 = np.arange(0.1, 0.3 + 1e-12, 0.005)
            y = ode_maximal(eta, q, times2, t0=0.0)
            reports.append(verify_supersolution(
                y[:, None] + psi0[None, :], grid, times2, q, absorption=eta,
                name=f"cylinder-ceiling-n{n}", mask=band))
    return reports
