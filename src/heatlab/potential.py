"""Absorption coefficients h(x, t) = exp(-l(d)) built from decay profiles.

The profile l is positive, nonincreasing and blows up at 0, so h vanishes
exactly on the degeneracy set and is positive elsewhere.  Three families
span the propagation/localization boundary:

* ``inverse-square``: l(r) = A / r**2 (satisfies liminf r**2 l(r) = A > 0)
* ``power``:          l(r) = A / r**theta
* ``log``:            l(r) = A * ln(1/r), clamped to 0 for r >= 1

The distance feeding l is the parabolic distance to a space-time curve;
a constant floor (h identically beta, for cylinder estimates) stands in
for h without a distance.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigurationError, DomainError

INVERSE_SQUARE = "inverse-square"
POWER = "power"
LOG = "log"
FAMILIES = (INVERSE_SQUARE, POWER, LOG)

PARABOLIC = "parabolic"
CONSTANT_FLOOR = "constant-floor"
DISTANCES = (PARABOLIC, CONSTANT_FLOOR)


@dataclass(frozen=True)
class DecayProfile:
    """Flatness profile l of the absorption coefficient."""

    family: str
    amplitude: float
    exponent: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown profile family {self.family!r}")
        if not self.amplitude > 0:
            raise ConfigurationError("profile amplitude must be positive")
        if self.family == POWER and not (self.exponent and self.exponent > 0):
            raise ConfigurationError("power profile needs exponent > 0")


def eval_profile(profile, r):
    """Evaluate l(r) for r > 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("profile is unbounded at r <= 0")
    A = profile.amplitude
    if profile.family == INVERSE_SQUARE:
        out = A / (r * r)
    elif profile.family == POWER:
        out = A / r ** profile.exponent
    else:  # log, clamped to keep l nonnegative and nonincreasing
        out = np.maximum(A * np.log(1.0 / r), 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Potential:
    """Absorption coefficient h tied to a profile and a distance functional.

    ``distance`` selects parabolic (needs ``curve``) or constant-floor
    (h == ``floor`` everywhere, for minimum-of-h cylinder estimates).
    """

    profile: DecayProfile | None
    distance: str
    curve: geometry.Curve | None = None
    floor: float | None = None

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ConfigurationError(f"unknown distance mode {self.distance!r}")
        if self.distance == PARABOLIC and self.curve is None:
            raise ConfigurationError("parabolic distance needs a curve")
        if self.distance == CONSTANT_FLOOR and not (self.floor and self.floor > 0):
            raise ConfigurationError("constant-floor potential needs floor > 0")

    def evaluate_grid(self, points, t):
        """Vectorized h over solver nodes at one time level; exactly 0 on
        the degeneracy set.

        Returns ``(values, n_underflow)`` where the count records nodes at
        positive distance whose exp(-l) underflowed to zero; those zeros are
        kept as-is (the solver treats h = 0 as exact degeneracy).
        """
        if self.distance == CONSTANT_FLOOR:
            return np.full(len(points), float(self.floor)), 0
        d = geometry.parabolic_distance_grid(points, t, self.curve)
        vals = np.zeros_like(d)
        pos = d > 0
        # a positive d whose square or power underflows gives l = inf, so
        # h = 0 and the node counts as an underflow like any other
        with np.errstate(under="ignore", divide="ignore", over="ignore"):
            vals[pos] = np.exp(-eval_profile(self.profile, d[pos]))
        n_underflow = int(np.count_nonzero(pos & (vals == 0.0)))
        return vals, n_underflow


def grid_levels(pot, grid):
    """The level function t -> :meth:`Potential.evaluate_grid` over every
    node of ``grid``.  h never depends on the datum, so a Dirac ladder,
    which steps as one batch (see :func:`solver.solve_uk`), evaluates each
    level once for all its rungs."""
    if pot.distance == PARABOLIC and not pot.curve.dim == grid.ndim == 1:
        raise ConfigurationError("curve and grid dimensions disagree or "
                                 "exceed 1")
    points = grid.points()
    return lambda t: pot.evaluate_grid(points, t)


def check_weight_gate(gamma, p):
    """Raise unless the weight exponent gamma >= 0 passes the supercritical
    gate gamma > N(p-1) - 2, N = 2, of the weighted line-degeneracy form."""
    required = 2.0 * (p - 1.0) - 2.0
    if not (gamma >= 0 and gamma > required):
        raise ConfigurationError(
            f"gamma = {gamma} must be >= 0 and exceed N(p-1)-2 = {required} "
            "for the weighted line-degeneracy form")


def check_weighted_tunnel(gamma, p, profile, eps):
    """Raise unless the weighted tunnel bound holds: gamma passes the 2D
    gate and the shifted profile is nonincreasing on [min(eps)/8, max(eps)]."""
    check_weight_gate(gamma, p)
    s = np.linspace(min(eps) / 8, max(eps), 64)
    if np.any(np.diff(shifted_profile(profile, gamma, s)) > 1e-9):
        raise ConfigurationError("shifted profile not nonincreasing below "
                                 "eps; weighted tunnel bound unavailable")


def shifted_profile(profile, gamma, s):
    """l~(s) = l(s) + gamma*ln(s), so that h = s**gamma * exp(-l~(s))."""
    return eval_profile(profile, s) + gamma * np.log(s)
