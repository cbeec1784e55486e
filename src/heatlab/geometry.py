"""Space-time degeneracy curves and the distances built on them.

A curve is a sampled map ``tau -> (x(tau), t(tau))`` issued from the
space-time origin.  Everything downstream (potentials, moving-frame
solvers, scenario classification) consumes curves through the small API
here: parabolic distance and monotonicity classification of the time
component.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

GRAPH = "graph-over-t"
PARAMETRIC = "general-parametric"

_KINDS = (GRAPH, PARAMETRIC)

# relative tolerance of the local golden-section refinement in parabolic_distance
_GOLDEN_RTOL = 1e-10
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Curve:
    """Sampled space-time curve with linear interpolation between samples.

    Parameters
    ----------
    kind : str
        ``graph-over-t`` (t(tau) = tau, strictly increasing) or
        ``general-parametric``.
    tau, t : ndarray, shape (m,)
        Parameter values and time component, ``t[0] == 0``.
    x : ndarray, shape (m, N)
        Space component, ``x[0] == 0``.
    horizon : float
        Final parameter/time value T > 0.
    """

    kind: str
    tau: np.ndarray
    t: np.ndarray
    x: np.ndarray
    horizon: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        t = np.asarray(self.t, dtype=float)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[0] != tau.size:
            x = x.T
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown curve kind {self.kind!r}")
        if tau.size == 0:
            raise ConfigurationError("empty curve")
        if tau.size != t.size or x.shape[0] != tau.size:
            raise ConfigurationError("tau, t, x sample counts disagree")
        if not self.horizon > 0:
            raise ConfigurationError("curve horizon must be positive")
        if np.any(t < 0):
            raise ConfigurationError("curve has negative times")
        if t[0] != 0 or np.any(x[0] != 0):  # exact: a norm can underflow
            raise ConfigurationError("curve must be issued from the origin")
        if self.kind == GRAPH:
            if np.any(np.diff(t) <= 0):
                raise ConfigurationError("graph-over-t requires strictly increasing t")
            if not np.allclose(t, tau, rtol=0, atol=1e-12 * max(1.0, self.horizon)):
                raise ConfigurationError("graph-over-t requires t(tau) = tau")
        # injectivity on samples (no self intersection)
        pts = np.column_stack([t, x])
        uniq = np.unique(pts.round(decimals=12), axis=0)
        if uniq.shape[0] != pts.shape[0]:
            raise ConfigurationError("curve samples self-intersect")

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def n_samples(self):
        return self.tau.size

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def straight(cls, velocity, horizon, n=513):
        """Graph curve x(t) = v * t."""
        v = np.atleast_1d(np.asarray(velocity, dtype=float))
        t = np.linspace(0.0, horizon, n)
        x = np.outer(t, v)
        return cls(GRAPH, t, t, x, horizon=float(horizon))

    @classmethod
    def parametric(cls, fx, ft, horizon, n=513):
        tau = np.linspace(0.0, horizon, n)
        t = np.array([ft(s) for s in tau], dtype=float)
        x = np.array([np.atleast_1d(fx(s)) for s in tau], dtype=float)
        return cls(PARAMETRIC, tau, t, x, horizon=float(horizon))

    @classmethod
    def from_table(cls, path):
        """Load a parametric curve's samples from a whitespace table:
        tau  t  x_1 .. x_N ('#' comments)."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] < 3:
            raise ConfigurationError(f"curve table {path} needs at least 3 columns")
        return cls(PARAMETRIC, data[:, 0], data[:, 1], data[:, 2:],
                   horizon=float(data[-1, 0]))

    # ------------------------------------------------------------------
    # interpolation
    # ------------------------------------------------------------------
    def position_at_time(self, t):
        """Linear interpolation of x(t) at time(s) t for graph curves."""
        if self.kind != GRAPH:
            raise ConfigurationError("interpolation in t needs a graph-over-t curve")
        t = np.asarray(t, dtype=float)
        return np.stack([np.interp(t, self.t, self.x[:, j])
                         for j in range(self.dim)], axis=-1)


@dataclass(frozen=True)
class SegmentClass:
    """Partition of a curve parameter range into monotonicity segments.

    ``intervals`` is a tuple of ``(tau_lo, tau_hi, label)`` with label in
    {"increasing", "decreasing", "box"}.  When a box segment is present,
    ``box`` holds its witness ``(center a, radius r0, (t_lo, t_hi))``.
    """

    intervals: tuple
    box: tuple | None = None


def parabolic_distance(point, curve, refine=True):
    """Distance inf_{s <= t} |x - y(s)| + sqrt(t - s) from a point to a curve.

    The infimum runs over curve samples (plus a golden-section refinement of
    every discrete bracketing triple when ``refine`` is set).  Points lying
    strictly before every curve time get ``inf`` with a warning: the
    restriction to earlier curve points leaves that case undefined.
    """
    x, t = _split_point(point, curve.dim)
    vals = _sample_values(x, t, curve)
    if not np.any(np.isfinite(vals)):
        warnings.warn("curve entirely in future of the query point; "
                      "parabolic distance undefined, returning inf")
        return float("inf")
    best = float(np.min(vals))
    for k in range(1, curve.n_samples - 1) if refine else ():
        if np.isfinite(vals[k]) and vals[k] <= min(vals[k - 1], vals[k + 1]):
            best = min(best, _golden_refine(x, t, curve, k))
    return best


def parabolic_distance_grid(points, t, curve):
    """Vectorized sample-infimum parabolic distance for 1D solver grids.

    ``points`` has shape (M, 1) and the curve dimension 1.  There is no
    golden refinement here, so the sample infimum can overstate
    :func:`parabolic_distance` by up to about sqrt(dt_s), with dt_s the
    curve's sample time spacing: at an on-curve point at time t_j + delta
    between two samples, the refined distance is about 0 while the sample
    infimum is at least sqrt(delta).

    The infimum of |x - x_j| + s_j, s_j = sqrt(t - t_j), is a 1D L1
    distance transform, taken in O((M + J) log J) by its lower envelope:
    with the samples sorted by x_j, the best sample at or left of x
    minimizes s_j - x_j over a prefix, the best at or right of it s_j + x_j
    over a suffix, and each node evaluates these two candidates by
    |x - x_j| + s_j.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
    mask = curve.t <= t + 1e-15
    if not mask.any():
        return np.full(x.shape[0], np.inf)
    xs = curve.x[:, 0][mask]
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    s = np.sqrt(np.maximum(t - curve.t[mask][order], 0.0))
    # lo: where the running min of s - x from the left is attained, hi:
    # that of s + x from the right.  A node's best sample at or left of it
    # is the last of lo there, its best right of it the first of hi there
    v, w = s - xs, (s + xs)[::-1]
    lo = np.flatnonzero(v == np.minimum.accumulate(v))
    hi = xs.size - 1 - np.flatnonzero(w == np.minimum.accumulate(w))[::-1]
    a = lo[np.maximum(np.searchsorted(xs[lo], x, side="right") - 1, 0)]
    b = hi[np.minimum(np.searchsorted(xs[hi], x, side="right"), hi.size - 1)]
    # |x - y| directly, as the pointwise distance takes it
    return np.minimum(np.abs(x - xs[a]) + s[a], np.abs(x - xs[b]) + s[b])


def classify_segments(curve):
    """Label maximal monotone t(tau) intervals and detect box re-entry.

    A box is flagged when an interior local maximum of t at tau0 is followed
    by a re-entry (t decreasing then increasing again) that stays below
    t(tau0), with t(T) <= t(tau0); its witness ball encloses the x samples
    on [tau0, T] with a small radius slack.
    """
    if curve.n_samples < 3:
        raise ConfigurationError("classify_segments needs at least 3 samples")
    tol = 1e-12 * curve.horizon
    tau, t = curve.tau, curve.t
    dt = np.diff(t)
    signs = np.where(dt > tol, 1, np.where(dt < -tol, -1, 0))
    # attach flat stretches at turning points to the preceding segment
    for i in range(1, signs.size):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    for i in range(signs.size - 2, -1, -1):
        if signs[i] == 0:
            signs[i] = signs[i + 1]

    runs = []  # (i_lo, i_hi, sign) over sample indices
    lo = 0
    for i in range(1, signs.size):
        if signs[i] != signs[lo]:
            runs.append((lo, i, signs[lo]))
            lo = i
    runs.append((lo, signs.size, signs[lo]))

    label = {1: "increasing", -1: "decreasing", 0: "increasing"}
    intervals = [(tau[i_lo], tau[i_hi], label[s]) for i_lo, i_hi, s in runs]

    # box scan: local max of t followed by re-entry from below, the tail
    # staying inside the time window [t(T), t(tau0)] and a spatial ball
    box = None
    if len(runs) >= 3 and runs[0][2] == 1:
        k0 = runs[0][1]  # sample index of the first local max of t
        tail = t[k0:]
        if (np.all(tail <= t[k0] + tol) and np.all(tail >= t[-1] - tol)
                and t[-1] <= t[k0] + tol):
            xs = curve.x[k0:]
            a = 0.5 * (xs.min(axis=0) + xs.max(axis=0))
            r0 = float(np.max(_norm(xs - a))) + 1e-9
            box = (a, r0, (float(t[-1]), float(t[k0])))
            intervals = intervals[:1] + [(tau[k0], tau[-1], "box")]
    return SegmentClass(intervals=tuple(intervals), box=box)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _split_point(point, dim):
    x, t = point
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != dim:
        raise ConfigurationError(f"point dimension {x.size} != curve dimension {dim}")
    return x, float(t)


def _norm(d):
    """|d| over the last axis by hypot, which squares nothing: the norm's
    sqrt(d * d) loses digits below |d| ~ 1e-154 and is 0 below ~ 1e-162."""
    return np.hypot.reduce(np.abs(d), axis=-1)


def _sample_values(x, t, curve):
    with np.errstate(invalid="ignore"):
        gap = t - curve.t
        vals = _norm(curve.x - x) + np.sqrt(gap)
    vals[gap < 0] = np.inf
    return vals


def _curve_point(curve, s):
    """Linear interpolation of (x, t) at parameter s."""
    xs = np.array([np.interp(s, curve.tau, curve.x[:, j]) for j in range(curve.dim)])
    ts = np.interp(s, curve.tau, curve.t)
    return xs, ts


def _golden_refine(x, t, curve, k):
    a, b = curve.tau[k - 1], curve.tau[k + 1]

    def f(s):
        xs, ts = _curve_point(curve, s)
        if ts > t:
            return np.inf
        return float(_norm(x - xs) + np.sqrt(t - ts))

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(a), abs(b), 1.0)
    while (b - a) > _GOLDEN_RTOL * scale:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return min(fc, fd)
