"""Dirichlet ground states, the drift-shift identity, and blow-up functionals.

The discrete eigenproblems feed three consumers: decay envelopes for the
linear flow on the unit ball, the lower envelope certifying persistence of
the rescaled field, and the log-scale functionals whose divergence (or not)
encodes the propagation/localization verdict.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigurationError, DomainError, NumericalError
from .potential import INVERSE_SQUARE, POWER, eval_profile

INTERVAL = "interval"
BALL = "ball"

_MAX_ITER = 10_000
# the first Dirichlet eigenvalue of the unit ball, by dimension: (pi/2)**2
# on (-1, 1), and j**2 on the disk, j = 2.40482... the first zero of J_0
BALL_LAMBDA = {1: (math.pi / 2.0) ** 2, 2: 2.404825557695773 ** 2}
_EIG_TOL = 1e-12


@dataclass(frozen=True)
class EigenPair:
    """First Dirichlet eigenpair on the interval (-1, 1) or the unit ball.

    ``nodes`` are interval coordinates or radial midpoints; ``values`` hold
    the positive eigenfunction normalized to maximum 1.
    """

    domain: str
    n_dim: int
    nodes: np.ndarray
    values: np.ndarray
    lam: float
    iterations: int = field(compare=False, default=0)

    def __call__(self, points):
        return self.interpolate(points)

    def interpolate(self, points):
        """Evaluate by interpolation; radial profiles take |x|."""
        pts = np.asarray(points, dtype=float)
        if self.domain == INTERVAL:
            return np.interp(pts, self.nodes, self.values, left=0.0, right=0.0)
        r = np.abs(pts) if pts.ndim <= 1 else np.linalg.norm(pts, axis=-1)
        rs = np.concatenate([[0.0], self.nodes, [1.0]])
        vs = np.concatenate([[self.values[0]], self.values, [0.0]])
        return np.interp(r, rs, vs, right=0.0)

    def rayleigh_quotient(self):
        """lam recomputed from the discrete operator (consistency check)."""
        A, w = _operator(self.domain, self.n_dim, self.nodes.size)
        v = self.values
        Av = _apply_tridiag(A, v)
        return float(np.dot(Av, w * v) / np.dot(v, w * v))


def dirichlet_ground_state(domain, n, n_dim=None):
    """Ground state by inverse power iteration on the FD Dirichlet Laplacian.

    ``domain='interval'`` solves on (-1, 1) with n >= 16 interior nodes;
    ``domain='ball'`` solves the radial reduction on the unit ball in
    ``n_dim`` dimensions (default 2).  Iteration stops when the eigenvalue
    increment drops below 1e-12.
    """
    if n < 16:
        raise ConfigurationError("ground state needs n >= 16")
    if domain not in (INTERVAL, BALL):
        raise ConfigurationError(f"unknown domain {domain!r}")
    if n_dim is None:
        n_dim = 1 if domain == INTERVAL else 2
    A, w = _operator(domain, n_dim, n)
    nodes = _nodes(domain, n)
    lam, v, iters = _inverse_power(A, weight=w)
    v = np.abs(v)
    v /= v.max()
    return EigenPair(domain=domain, n_dim=n_dim, nodes=nodes, values=v,
                     lam=lam, iterations=iters)


@dataclass(frozen=True)
class DriftedPair:
    """Ground state of -lap + <beta, grad> obtained by the exponential tilt.

    lam = base.lam + |beta|**2 / 4 exactly; the eigenfunction is
    exp(<beta, x>/2) * psi0 renormalized to maximum 1.
    """

    base: EigenPair
    beta: np.ndarray
    lam: float
    norm: float

    def __call__(self, points):
        return self.interpolate(points)

    def interpolate(self, points):
        pts = np.asarray(points, dtype=float)
        if self.base.domain == INTERVAL:
            tilt = np.exp(0.5 * self.beta[0] * pts)
        else:
            dots = pts @ self.beta if pts.ndim > 1 else pts * self.beta[0]
            tilt = np.exp(0.5 * dots)
        return tilt * self.base.interpolate(points) / self.norm

    @property
    def values(self):
        """Tilted eigenfunction on the base nodes (interval domains)."""
        if self.base.domain != INTERVAL:
            raise ConfigurationError("nodal values only for interval domains")
        return (np.exp(0.5 * self.beta[0] * self.base.nodes)
                * self.base.values / self.norm)


def drift_shift(beta, base):
    """Shift the ground state by a constant drift: lam -> lam + |beta|**2/4."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if base.domain == INTERVAL and beta.size != 1:
        raise ConfigurationError("interval domain takes a scalar drift")
    if base.domain == BALL and beta.size != base.n_dim:
        raise ConfigurationError("drift dimension must match the ball dimension")
    lam = base.lam + float(beta @ beta) / 4.0
    if base.domain == INTERVAL:
        tilted = np.exp(0.5 * beta[0] * base.nodes) * base.values
        norm = float(tilted.max())
    else:
        # the maximum of exp(<beta,x>/2) psi0(|x|) sits on the ray along beta
        speed = float(np.linalg.norm(beta))
        rs = np.linspace(0.0, 1.0, 4097)
        norm = float(np.max(np.exp(0.5 * speed * rs) * base.interpolate(rs)))
    return DriftedPair(base=base, beta=beta, lam=lam, norm=norm)


def drift_ground_state(beta, n):
    """Independent inverse-power solve of the discrete drift operator.

    Builds -lap_h + beta * centered gradient on the interval directly (no
    exponential tilt) and iterates; used to cross-check the shift identity.
    """
    h = 2.0 / (n + 1)
    main = np.full(n, 2.0 / h ** 2)
    upper = np.full(n - 1, -1.0 / h ** 2 + beta / (2.0 * h))
    lower = np.full(n - 1, -1.0 / h ** 2 - beta / (2.0 * h))
    A = (lower, main, upper)
    lam, v, iters = _inverse_power(A)
    nodes = _nodes(INTERVAL, n)
    v = np.abs(v)
    return lam, EigenPair(INTERVAL, 1, nodes, v / v.max(), lam, iterations=iters)


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def decay_envelope(v0_l2, lam0, t, n_dim, c_linf=1.0):
    """Ceilings for the linear flow on the unit ball at time t >= 0.

    Returns ``(l2_bound, linf_bound)``.  The L2 bound is
    exp(-lam0 t) * ||v0||_2.  The sup bound optimizes the two-step chain
    (t-s)**(-N/4) * exp(-lam0 s) over the intermediate time s: the
    smoothing branch t**(-N/4) up to the crossover t = N/(4 lam0), then
    exp(-lam0 t) carrying the matching constant of
    :func:`crossover_constant`; the envelope is continuous there.
    """
    if t < 0:
        raise DomainError("decay envelope needs t >= 0")
    l2 = np.exp(-lam0 * t) * v0_l2
    t_cross = n_dim / (4.0 * lam0)
    if t == 0:
        alg = np.inf
    elif t <= t_cross:
        alg = t ** (-n_dim / 4.0)
    else:
        alg = crossover_constant(n_dim, lam0) * np.exp(-lam0 * t)
    return float(l2), float(c_linf * alg * v0_l2)


def crossover_constant(n_dim, lam0):
    """Matching constant of the L-infinity envelope at its crossover:
    min over 0 < s < t of (t-s)**(-N/4) exp(-lam0 s) equals this times
    exp(-lam0 t) once t > N/(4 lam0)."""
    return float(np.exp(n_dim / 4.0) * (4.0 * lam0 / n_dim) ** (n_dim / 4.0))


def lower_envelope(c1, lam0, beta_tau, delta_tau, sigma_tau, t, psi0):
    """Persistence floor c1 * exp(-rate * (t-1)) * psi0 valid on [1, tau]."""
    if t < 1.0:
        raise DomainError("lower envelope is valid for t >= 1 only")
    rate = envelope_rate(lam0, beta_tau, delta_tau, sigma_tau)
    return c1 * np.exp(-rate * (t - 1.0)) * psi0.values


def envelope_rate(lam0, beta_tau, delta_tau, sigma_tau):
    """Decay rate lam0 + beta**2/4 + delta/2 + sigma of the lower envelope."""
    if min(beta_tau, delta_tau, sigma_tau) < 0:
        raise DomainError("envelope constants must be nonnegative")
    return float(lam0 + beta_tau ** 2 / 4.0 + delta_tau / 2.0 + sigma_tau)


# ----------------------------------------------------------------------
# blow-up functionals
# ----------------------------------------------------------------------
POINT = "point"   # log of the amplified center value
MASS = "mass"     # log of the amplified local mass


@dataclass(frozen=True)
class BlowupFunctionalTrace:
    """Trace of the log-scale blow-up functional along a zoom sequence.

    ``kind='point'`` tracks -2/(p-1) ln(eps) + l(eps)/(p-1) - rate*alpha/eps**2;
    ``kind='mass'`` adds N*ln(eps) to the leading log (local-mass version).
    Whether the values diverge is a rule of the scenario, judged by
    :func:`harness.decide`.
    """

    kind: str
    eps: np.ndarray
    values: np.ndarray
    inputs: dict

    def csv_rows(self):
        return [f"{e:.12g},{v:.12g}" for e, v in zip(self.eps, self.values)]


def blowup_functional(kind, p, alpha, n_dim, lam0, profile, eps_seq,
                      beta_sup=0.0, delta_sup=0.0, sigma=0.0):
    """Evaluate the blow-up functional along a decreasing zoom sequence.

    Drift constants per eps follow the moving-frame scaling: beta_tau =
    eps * ``beta_sup`` and delta_tau = eps**3 * ``delta_sup``, the sups of
    |x'| and |x''| over [eps**2, alpha].  ``sigma`` may be a scalar or a
    per-eps sequence of measured nonlinear feedback values.
    """
    if kind not in (POINT, MASS):
        raise ConfigurationError(f"unknown functional kind {kind!r}")
    eps = np.asarray(list(eps_seq), dtype=float)
    if eps.size == 0 or np.any(np.diff(eps) >= 0):
        raise ConfigurationError("eps sequence must be strictly decreasing")
    if p <= 1 or alpha <= 0:
        raise ConfigurationError("need p > 1 and alpha > 0")
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), eps.shape)
    vals, betas, deltas = np.empty((3, eps.size))
    for i, e in enumerate(eps):
        b_tau = e * beta_sup
        d_tau = e ** 3 * delta_sup
        betas[i], deltas[i] = b_tau, d_tau
        rate = envelope_rate(lam0, b_tau, d_tau, sig[i])
        vals[i] = log_amplification(p, profile, e) - rate * alpha / (e * e)
        if kind == MASS:
            vals[i] += n_dim * np.log(e)
    inputs = {"p": p, "alpha": alpha, "n_dim": n_dim, "lam0": lam0,
              "beta_tau": betas.tolist(), "delta_tau": deltas.tolist(),
              "sigma": sig.tolist(), "profile": (profile.family,
                                                 profile.amplitude,
                                                 profile.exponent)}
    return BlowupFunctionalTrace(kind=kind, eps=eps, values=vals,
                                 inputs=inputs)


def log_amplification(p, profile, eps):
    """-2/(p-1) ln(eps) + l(eps)/(p-1): the log of the amplification
    prefactor eps**(-2/(p-1)) exp(l(eps)/(p-1)) of the zoom at scale eps."""
    return -2.0 / (p - 1.0) * math.log(eps) + eval_profile(profile, eps) / (p - 1.0)


def limit_flatness(profile):
    """liminf of r**2 l(r) as r -> 0 for the three profile families."""
    if profile.family == INVERSE_SQUARE:
        return profile.amplitude
    if profile.family == POWER:
        if profile.exponent > 2:
            return np.inf
        return profile.amplitude if profile.exponent == 2 else 0.0
    return 0.0  # log


def propagation_alpha_threshold(profile, p, lam0, sigma=0.0):
    """Zoom-depth threshold alpha0 = liminf(r**2 l(r)) / ((p-1) * rate):
    the point functional diverges for every alpha below it (zero drift)."""
    L = limit_flatness(profile)
    return float(L / ((p - 1.0) * envelope_rate(lam0, 0.0, 0.0, sigma)))


def write_trace(trace, path):
    with open(path, "w") as fh:
        fh.write("eps,value\n")
        for row in trace.csv_rows():
            fh.write(row + "\n")


def write_eigen_table(pair, path):
    with open(path, "w") as fh:
        fh.write(f"# domain {pair.domain} n_dim {pair.n_dim} "
                 f"lambda {pair.lam:.12g}\n")
        fh.write("# node value\n")
        for xi, vi in zip(pair.nodes, pair.values):
            fh.write(f"{xi:.12g} {vi:.12g}\n")


# ----------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------
def _nodes(domain, n):
    if domain == INTERVAL:
        return np.linspace(-1.0, 1.0, n + 2)[1:-1]
    h = 1.0 / n
    return (np.arange(n) + 0.5) * h


def _operator(domain, n_dim, n):
    """Tridiagonal Dirichlet operator (lower, main, upper) and Rayleigh weight."""
    if domain == INTERVAL:
        h = 2.0 / (n + 1)
        main = np.full(n, 2.0 / h ** 2)
        off = np.full(n - 1, -1.0 / h ** 2)
        return (off, main, off.copy()), np.ones(n)
    # radial reduction: -(r**(1-N)) d/dr (r**(N-1) d/dr), cell-centered
    h = 1.0 / n
    r = (np.arange(n) + 0.5) * h
    a_minus = (r - 0.5 * h) ** (n_dim - 1)   # zero at the center face
    a_plus = (r + 0.5 * h) ** (n_dim - 1)
    w = r ** (n_dim - 1)
    main = (a_minus + a_plus) / (w * h ** 2)
    # Dirichlet wall at r = 1 via ghost reflection: value -psi_{n-1}
    main[-1] = (a_minus[-1] + 2.0 * a_plus[-1]) / (w[-1] * h ** 2)
    upper = -a_plus[:-1] / (w[:-1] * h ** 2)
    lower = -a_minus[1:] / (w[1:] * h ** 2)
    return (lower, main, upper), w


def _apply_tridiag(A, v):
    lower, main, upper = A
    out = main * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return out


def _inverse_power(A, weight=None):
    lower, main, upper = A
    n = main.size
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1] = main
    ab[2, :-1] = lower
    w = np.ones(n) if weight is None else weight
    v = np.ones(n)
    v /= np.sqrt(np.dot(v, w * v))
    lam_old = np.inf
    trace = []
    for it in range(1, _MAX_ITER + 1):
        y = solve_banded((1, 1), ab, v)
        y /= np.sqrt(np.dot(y, w * y))
        Ay = _apply_tridiag(A, y)
        lam = float(np.dot(Ay, w * y))
        inc = abs(lam - lam_old)
        trace.append(inc)
        v = y
        if inc < _EIG_TOL:
            return lam, v, it
        lam_old = lam
    raise NumericalError("inverse power iteration did not converge",
                         trace=trace[-50:])
