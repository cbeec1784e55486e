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
from .potential import eval_profile

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

    def interpolate(self, points):
        """Evaluate by interpolation; radial profiles take |x| of points of
        shape (..., n_dim)."""
        pts = np.asarray(points, dtype=float)
        if self.domain == INTERVAL:
            return np.interp(pts, self.nodes, self.values, left=0.0, right=0.0)
        r = np.linalg.norm(pts, axis=-1)
        rs = np.concatenate([[0.0], self.nodes, [1.0]])
        vs = np.concatenate([[self.values[0]], self.values, [0.0]])
        return np.interp(r, rs, vs, right=0.0)


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
    """Ground state of -lap + beta d/dx on (-1, 1) by the exponential tilt:
    lam = base.lam + beta**2 / 4 exactly, and ``values`` on the base nodes
    are exp(beta x/2) * psi0 renormalized to maximum 1."""

    lam: float
    values: np.ndarray


def drift_shift(beta, base):
    """Shift the interval ground state by a constant drift: lam -> lam +
    beta**2/4."""
    if base.domain != INTERVAL or np.size(beta) != 1:
        raise ConfigurationError("the drift shift takes an interval ground "
                                 "state and a scalar drift")
    beta = float(np.ravel(beta)[0])
    tilted = np.exp(0.5 * beta * base.nodes) * base.values
    return DriftedPair(lam=base.lam + beta * beta / 4.0,
                       values=tilted / tilted.max())


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


def envelope_rate(lam0, beta_tau, sigma_tau):
    """Decay rate lam0 + beta**2/4 + sigma of the lower envelope."""
    if min(beta_tau, sigma_tau) < 0:
        raise DomainError("envelope constants must be nonnegative")
    return float(lam0 + beta_tau ** 2 / 4.0 + sigma_tau)


# ----------------------------------------------------------------------
# blow-up functionals
# ----------------------------------------------------------------------
def blowup_functional(p, alpha, lam0, profile, eps_seq, beta_sup=0.0,
                      sigma=0.0):
    """The point blow-up functional along a decreasing zoom sequence: per
    eps, -2/(p-1) ln(eps) + l(eps)/(p-1) - rate * alpha/eps**2, an array.

    The drift constant per eps follows the moving-frame scaling beta_tau =
    eps * ``beta_sup``, the speed of the straight curve.  ``sigma`` may be
    a scalar or a per-eps sequence of measured nonlinear feedback values.
    Whether the values diverge is a rule of the scenario, judged by
    :func:`harness.decide`.
    """
    eps = np.asarray(list(eps_seq), dtype=float)
    if eps.size == 0 or np.any(np.diff(eps) >= 0):
        raise ConfigurationError("eps sequence must be strictly decreasing")
    if p <= 1 or alpha <= 0:
        raise ConfigurationError("need p > 1 and alpha > 0")
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), eps.shape)
    vals = np.empty(eps.size)
    for i, e in enumerate(eps):
        rate = envelope_rate(lam0, e * beta_sup, sig[i])
        vals[i] = log_amplification(p, profile, e) - rate * alpha / (e * e)
    return vals


def log_amplification(p, profile, eps):
    """-2/(p-1) ln(eps) + l(eps)/(p-1): the log of the amplification
    prefactor eps**(-2/(p-1)) exp(l(eps)/(p-1)) of the zoom at scale eps."""
    return -2.0 / (p - 1.0) * math.log(eps) + eval_profile(profile, eps) / (p - 1.0)


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
    for it in range(1, _MAX_ITER + 1):
        y = solve_banded((1, 1), ab, v)
        y /= np.sqrt(np.dot(y, w * y))
        Ay = _apply_tridiag(A, y)
        lam = float(np.dot(Ay, w * y))
        inc = abs(lam - lam_old)
        v = y
        if inc < _EIG_TOL:
            return lam, v, it
        lam_old = lam
    raise NumericalError("inverse power iteration did not converge")
