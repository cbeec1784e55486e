import math

import numpy as np
import pytest

from heatlab import geometry, potential
from heatlab.errors import ConfigurationError, DomainError
from heatlab.grids import Grid
from heatlab.potential import DecayProfile, Potential


class TestProfiles:
    def test_inverse_square_value(self):
        prof = DecayProfile("inverse-square", 10.0)
        assert potential.eval_profile(prof, 0.1) == pytest.approx(1000.0)

    def test_power_value(self):
        prof = DecayProfile("power", 1.0, exponent=1.0)
        assert potential.eval_profile(prof, 0.5) == pytest.approx(2.0)

    def test_log_value_and_clamp(self):
        prof = DecayProfile("log", 1.0)
        assert potential.eval_profile(prof, math.exp(-1.0)) == pytest.approx(1.0)
        assert potential.eval_profile(prof, 1.5) == 0.0

    def test_profiles_nonincreasing(self, rng):
        rs = np.sort(rng.uniform(1e-3, 2.0, size=200))
        for prof in (DecayProfile("inverse-square", 3.0),
                     DecayProfile("power", 2.0, exponent=1.5),
                     DecayProfile("log", 0.7)):
            vals = potential.eval_profile(prof, rs)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            potential.eval_profile(DecayProfile("inverse-square", 1.0), 0.0)

    def test_inverse_square_flatness_constant(self, rng):
        prof = DecayProfile("inverse-square", 4.5)
        rs = rng.uniform(1e-4, 1.0, size=100)
        assert np.allclose(rs * rs * potential.eval_profile(prof, rs), 4.5)

    def test_bad_family(self):
        with pytest.raises(ConfigurationError):
            DecayProfile("gaussian", 1.0)


def h_at(pot, x, t):
    """h at the one point (x, t), through a one-row grid evaluation."""
    vals, _ = pot.evaluate_grid(np.array([[x]]), t)
    return vals[0]


class TestEvalH:
    def test_zero_on_curve(self, straight_curve):
        pot = Potential(DecayProfile("inverse-square", 10.0), "parabolic",
                        curve=straight_curve)
        assert h_at(pot, 0.5, 0.5) == 0.0

    def test_inverse_square_at_unit_distance(self, straight_curve):
        pot = Potential(DecayProfile("inverse-square", 10.0), "parabolic",
                        curve=straight_curve)
        val = h_at(pot, 2.0, 1.0)  # distance 1 (oracle)
        assert val == pytest.approx(math.exp(-10.0), rel=1e-6)

    def test_constant_floor(self):
        pot = Potential(None, "constant-floor", floor=1.0)
        assert h_at(pot, 3.0, 0.2) == 1.0

    def test_monotone_in_distance(self, straight_curve, rng):
        # at t = 0 the parabolic distance of x to the curve is |x|
        pot = Potential(DecayProfile("power", 2.0, exponent=1.0), "parabolic",
                        curve=straight_curve)
        rs = np.sort(rng.uniform(0.01, 2, 50))
        vals, _ = pot.evaluate_grid(rs[:, None], 0.0)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_underflow_counted(self, straight_curve):
        pot = Potential(DecayProfile("inverse-square", 50.0), "parabolic",
                        curve=straight_curve)
        pts = np.linspace(0.01, 0.2, 32)[:, None]  # tiny distances off-curve
        vals, n_under = pot.evaluate_grid(pts, 0.0)
        assert n_under == pts.size
        assert np.all(vals == 0.0)

    def test_grid_needs_parabolic_or_floor(self):
        # the anisotropic distance of a line in the initial plane is gone
        with pytest.raises(ConfigurationError, match="unknown distance mode"):
            Potential(DecayProfile("inverse-square", 8.0), "anisotropic")

    def test_grid_matches_pointwise(self, straight_curve):
        pot = Potential(DecayProfile("inverse-square", 2.0), "parabolic",
                        curve=straight_curve)
        pts = np.array([[1.5], [2.0], [-0.7]])
        vals, _ = pot.evaluate_grid(pts, 0.8)
        for p, v in zip(pts, vals):
            assert v == pytest.approx(
                math.exp(-2.0 / geometry.parabolic_distance(
                    (p, 0.8), straight_curve, refine=False) ** 2), rel=1e-12)

    def test_grid_levels(self, straight_curve):
        # every node of the grid, with the underflow count
        grid = Grid.interval(-1.0, 1.0, 21, 0.01)
        pot = Potential(DecayProfile("inverse-square", 50.0), "parabolic",
                        curve=straight_curve)
        vals, n_under = potential.grid_levels(pot, grid)(0.3)
        ref, ref_under = pot.evaluate_grid(grid.points(), 0.3)
        assert np.array_equal(vals, ref) and n_under == ref_under > 0

    def test_grid_levels_need_the_curve_dimension(self, straight_curve):
        pot = Potential(DecayProfile("log", 1.0), "parabolic",
                        curve=straight_curve)
        with pytest.raises(ConfigurationError, match="dimensions disagree"):
            potential.grid_levels(pot, Grid.unit_ball(11, 0.01, ndim=2))


class TestSplit:
    """h = s**gamma * exp(-l~(s)) with the shifted profile l~ = l + gamma ln s,
    the split of the weighted line-degeneracy form."""

    prof = DecayProfile("inverse-square", 8.0)

    def test_gamma_zero_degenerates(self):
        s = np.array([0.05, 0.3, 1.4])
        assert np.array_equal(potential.shifted_profile(self.prof, 0.0, s),
                              potential.eval_profile(self.prof, s))

    def test_product_identity_bulk(self, rng):
        # the split must reassemble h to 1e-12 relative on 1e4 random s
        gamma = 2.5
        s = rng.uniform(0.05, 1.5, size=10_000)
        h = np.exp(-potential.eval_profile(self.prof, s))
        split = s ** gamma * np.exp(-potential.shifted_profile(self.prof,
                                                               gamma, s))
        pos = h > 0
        assert pos.sum() > 9000
        assert np.allclose(split[pos], h[pos], rtol=1e-12, atol=0.0)

    def test_supercritical_gate(self):
        # N=2, p=3: requires gamma > 2
        potential.check_weight_gate(2.5, 3.0)
        with pytest.raises(ConfigurationError):
            potential.check_weight_gate(2.0, 3.0)

    def test_shifted_profile_matches_split(self):
        s = 0.37
        gamma = 1.2
        lt = potential.shifted_profile(self.prof, gamma, s)
        assert lt == pytest.approx(8.0 / s ** 2 + gamma * math.log(s),
                                   rel=1e-12)
