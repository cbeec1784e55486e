import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jn_zeros

from heatlab import harness, spectral
from heatlab.errors import ConfigurationError, DomainError
from heatlab.potential import DecayProfile

INTERVAL_LAMBDA = math.pi ** 2 / 4.0


def shooting_ball_eigenvalue(n_dim=2):
    """Independent oracle: first radial Dirichlet eigenvalue of the unit ball
    by shooting on psi'' + (N-1)/r psi' + lam psi = 0."""

    def boundary_value(lam):
        eps = 1e-6

        def rhs(r, y):
            return [y[1], -lam * y[0] - (n_dim - 1) * y[1] / r]

        y0 = [1.0 - lam * eps ** 2 / (2.0 * n_dim), -lam * eps / n_dim]
        sol = solve_ivp(rhs, (eps, 1.0), y0, rtol=1e-11, atol=1e-12)
        return sol.y[0, -1]

    return brentq(boundary_value, 3.0, 9.0, xtol=1e-10)


class TestGroundState:
    def test_interval_convergence_to_pi_sq_over_4(self):
        for n in (64, 128, 256):
            pair = spectral.dirichlet_ground_state("interval", n)
            assert abs(pair.lam - INTERVAL_LAMBDA) <= 5.0 * (2.0 / n) ** 2

    def test_interval_richardson_ratio(self):
        errs = [abs(spectral.dirichlet_ground_state("interval", n).lam
                    - INTERVAL_LAMBDA) for n in (64, 128, 256)]
        # eigenvalue error is O(h^2): halving h divides it by ~4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_ball_against_shooting_oracle(self):
        oracle = shooting_ball_eigenvalue()
        assert oracle == pytest.approx(jn_zeros(0, 1)[0] ** 2, abs=1e-7)
        pair = spectral.dirichlet_ground_state("ball", 512)
        assert abs(pair.lam - oracle) < 1e-4

    def test_eigenvector_positive_max_one(self, interval_pair, ball_pair):
        for pair in (interval_pair, ball_pair):
            assert np.all(pair.values > 0)
            assert pair.values.max() == pytest.approx(1.0)

    def test_eigenvector_symmetry(self, interval_pair):
        assert np.allclose(interval_pair.values,
                           interval_pair.values[::-1], atol=1e-10)

    def test_rayleigh_consistency(self, interval_pair, ball_pair):
        for pair in (interval_pair, ball_pair):
            assert pair.rayleigh_quotient() == pytest.approx(pair.lam,
                                                             rel=1e-8)

    def test_boundary_interpolation_zero(self, interval_pair):
        assert interval_pair.interpolate(1.0) == pytest.approx(0.0, abs=1e-12)
        assert interval_pair.interpolate(-1.5) == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            spectral.dirichlet_ground_state("interval", 8)


class TestDriftShift:
    def test_zero_drift_identity(self, interval_pair):
        d = spectral.drift_shift(0.0, interval_pair)
        assert d.lam == interval_pair.lam
        assert np.allclose(d.values, interval_pair.values)

    def test_norm_two_drift(self, interval_pair):
        d = spectral.drift_shift(2.0, interval_pair)
        assert d.lam == pytest.approx(interval_pair.lam + 1.0)

    def test_shift_exact_in_arithmetic(self, interval_pair, rng):
        # computed, not solved: the identity holds to rounding of one add
        for b in rng.uniform(-3, 3, size=20):
            d = spectral.drift_shift(b, interval_pair)
            assert d.lam - interval_pair.lam == \
                pytest.approx(b * b / 4.0, abs=1e-14)

    def test_discrete_residual_order_h2(self):
        errs = []
        for n in (128, 256):
            base = spectral.dirichlet_ground_state("interval", n)
            d = spectral.drift_shift(1.5, base)
            h = 2.0 / (n + 1)
            v = d.values
            lap = np.zeros(n)
            lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
            grad = np.zeros(n)
            grad[1:-1] = (v[2:] - v[:-2]) / (2 * h)
            # Dirichlet neighbors at the ends
            lap[0] = (v[1] - 2 * v[0]) / h ** 2
            lap[-1] = (v[-2] - 2 * v[-1]) / h ** 2
            grad[0] = v[1] / (2 * h)
            grad[-1] = -v[-2] / (2 * h)
            res = -lap + 1.5 * grad - d.lam * v
            errs.append(np.max(np.abs(res)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_independent_inverse_power_solve(self):
        for n in (128, 256):
            base = spectral.dirichlet_ground_state("interval", n)
            d = spectral.drift_shift(2.0, base)
            lam_direct, _ = spectral.drift_ground_state(2.0, n)
            h = 2.0 / (n + 1)
            assert abs(lam_direct - d.lam) < 5.0 * h * h

    def test_ball_drift_callable(self, ball_pair):
        d = spectral.drift_shift((0.5, 0.0), ball_pair)
        assert d.lam == pytest.approx(ball_pair.lam + 0.0625)
        pts = np.array([[0.0, 0.0], [0.3, 0.4]])
        vals = d.interpolate(pts)
        assert np.all(vals >= 0) and np.all(vals <= 1.0 + 1e-12)

    def test_dimension_mismatch(self, ball_pair):
        with pytest.raises(ConfigurationError):
            spectral.drift_shift((1.0, 0.0, 0.0), ball_pair)


class TestEnvelopes:
    def test_l2_bound_at_zero(self):
        l2, _ = spectral.decay_envelope(3.0, 2.4674, 0.0, 1)
        assert l2 == 3.0

    def test_l2_halves_at_ln2(self):
        l2, _ = spectral.decay_envelope(1.0, 1.0, math.log(2.0), 1)
        assert l2 == pytest.approx(0.5)

    def test_crossover_constant_matches_scan(self):
        # min over s of (t-s)^(-N/4) e^(-lam s) = const * e^(-lam t) for
        # t past the crossover; measured by a dense scan
        for n_dim, lam in ((1, INTERVAL_LAMBDA), (2, 5.7832)):
            const = spectral.crossover_constant(n_dim, lam)
            t = 2.0 * n_dim / (4.0 * lam) + 0.8
            s = np.linspace(1e-6, t - 1e-6, 400001)
            scan = np.min((t - s) ** (-n_dim / 4.0) * np.exp(-lam * s))
            assert scan == pytest.approx(const * math.exp(-lam * t), rel=1e-4)

    def test_linf_envelope_branch_switch(self):
        lam = 1.0
        t_cross = 1.0 / (4.0 * lam)
        _, early = spectral.decay_envelope(1.0, lam, 0.01, 1)
        _, late = spectral.decay_envelope(1.0, lam, 10.0, 1)
        assert early == pytest.approx(0.01 ** -0.25)
        assert late == pytest.approx(
            spectral.crossover_constant(1, lam) * math.exp(-10.0))
        # continuity at the branch point
        _, a = spectral.decay_envelope(1.0, lam, t_cross - 1e-9, 1)
        _, b = spectral.decay_envelope(1.0, lam, t_cross + 1e-9, 1)
        assert a == pytest.approx(b, rel=1e-6)

    def test_lower_envelope_at_one(self, interval_pair):
        vals = spectral.lower_envelope(0.3, interval_pair.lam, 0.0, 0.0, 0.0,
                                       1.0, interval_pair)
        assert np.allclose(vals, 0.3 * interval_pair.values)

    def test_lower_envelope_pure_decay(self, interval_pair):
        t = 2.5
        vals = spectral.lower_envelope(1.0, interval_pair.lam, 0.0, 0.0, 0.0,
                                       t, interval_pair)
        expect = math.exp(-interval_pair.lam * (t - 1.0)) * interval_pair.values
        assert np.allclose(vals, expect)

    def test_lower_envelope_below_exact_drift_mode(self, interval_pair):
        # the drifted mode c1 * e^{-lam_b (t-1)} e^{bx/2} psi0 dominates the
        # envelope with beta_tau = |b| pointwise on [1, tau]
        b = 0.8
        drifted = spectral.drift_shift(b, interval_pair)
        x = interval_pair.nodes
        c1 = 1.0
        for t in (1.0, 2.0, 4.0):
            exact = (c1 * math.exp(-drifted.lam * (t - 1.0))
                     * np.exp(0.5 * b * x) * interval_pair.values)
            bound = spectral.lower_envelope(c1 * np.exp(0.5 * b * x).min(),
                                            interval_pair.lam, b, 0.0, 0.0,
                                            t, interval_pair)
            assert np.all(exact - bound >= -1e-12)

    def test_domain_guard(self, interval_pair):
        with pytest.raises(DomainError):
            spectral.lower_envelope(1.0, 2.0, 0.0, 0.0, 0.0, 0.5, interval_pair)


def judged(trace, **rules):
    """The analytic outcome of a trace under the default rescaled rules
    (threshold 50, window 3), with ``rules`` replacing some of them."""
    return harness.decide("analytic", {"trace": trace.values.tolist()},
                          {**harness.Scenario("rules").rules, **rules})


class TestBlowupFunctional:
    lam0 = 2.4674

    def test_flat_profile_diverges(self):
        prof = DecayProfile("inverse-square", 50.0)
        tr = spectral.blowup_functional("point", 2.0, 1.0, 1, self.lam0, prof,
                                        [0.2, 0.1, 0.05])
        # hand-evaluated: -2 ln(eps) + 50/eps^2 - 2.4674/eps^2
        for e, v in zip(tr.eps, tr.values):
            expect = -2.0 * math.log(e) + (50.0 - self.lam0) / e ** 2
            assert v == pytest.approx(expect, rel=1e-12)
        assert np.all(np.diff(tr.values) > 0)
        assert judged(tr) == "propagation"

    def test_log_profile_localizes(self):
        prof = DecayProfile("log", 1.0)
        tr = spectral.blowup_functional("point", 2.0, 1.0, 1, self.lam0, prof,
                                        [0.2, 0.1, 0.05])
        for e, v in zip(tr.eps, tr.values):
            expect = (-2.0 * math.log(e) + math.log(1.0 / e)
                      - self.lam0 / e ** 2)
            assert v == pytest.approx(expect, rel=1e-12)
        assert judged(tr) == "localization"

    def test_alpha_scaling_flips_verdict(self):
        # bracketing amplitude: diverges at alpha=1, localizes at alpha=2
        prof = DecayProfile("inverse-square", 4.0)
        lo = spectral.blowup_functional("point", 2.0, 1.0, 1, self.lam0, prof,
                                        [0.2, 0.1, 0.05])
        hi = spectral.blowup_functional("point", 2.0, 2.0, 1, self.lam0, prof,
                                        [0.2, 0.1, 0.05])
        assert judged(lo) == "propagation"
        assert judged(hi) == "localization"

    def test_point_mass_differ_by_n_log_eps(self):
        prof = DecayProfile("inverse-square", 10.0)
        kw = dict(p=2.0, alpha=1.0, n_dim=2, lam0=self.lam0, profile=prof,
                  eps_seq=[0.2, 0.1, 0.05], beta_sup=1.0, delta_sup=0.5)
        a = spectral.blowup_functional("point", **kw)
        b = spectral.blowup_functional("mass", **kw)
        assert np.allclose(b.values - a.values, 2 * np.log(a.eps))

    def test_alpha_threshold_existence(self):
        # for flatness limit L > 0 every alpha below L/((p-1) rate) diverges
        prof = DecayProfile("inverse-square", 30.0)
        alpha0 = spectral.propagation_alpha_threshold(prof, 2.0, self.lam0)
        assert alpha0 == pytest.approx(30.0 / self.lam0)
        for alpha in (0.25 * alpha0, 0.5 * alpha0, 0.9 * alpha0):
            tr = spectral.blowup_functional("point", 2.0, alpha, 1, self.lam0,
                                            prof, [0.2, 0.1, 0.05, 0.025])
            assert judged(tr) == "propagation"
        tr = spectral.blowup_functional("point", 2.0, 1.5 * alpha0, 1,
                                        self.lam0, prof, [0.2, 0.1, 0.05, 0.025])
        assert judged(tr) == "localization"

    def test_growth_window_decides_verdict(self):
        # power profile l = 1/eps**3 against rate 10: the values fall from
        # eps = 0.5 to 0.25, then rise past the threshold at 0.05, so the
        # last two increase and the last three do not
        prof = DecayProfile("power", 1.0, 3.0)
        kw = dict(kind="point", p=2.0, alpha=1.0, n_dim=1, lam0=10.0,
                  profile=prof, eps_seq=[0.5, 0.25, 0.05])
        tr = spectral.blowup_functional(**kw)
        assert tr.values[1] < tr.values[0] and tr.values[2] > 50.0
        assert judged(tr, growth_window=2) == "propagation"
        assert judged(tr, growth_window=3) == "localization"
        assert judged(tr) == "localization"
        # one value above the threshold is no growth
        assert judged(tr, growth_window=1) == "localization"

    def test_eps_must_decrease(self):
        prof = DecayProfile("inverse-square", 10.0)
        with pytest.raises(ConfigurationError):
            spectral.blowup_functional("point", 2.0, 1.0, 1, self.lam0, prof,
                                       [0.1, 0.2])

    def test_limit_flatness_families(self):
        assert spectral.limit_flatness(DecayProfile("inverse-square", 7.0)) == 7.0
        assert spectral.limit_flatness(DecayProfile("log", 2.0)) == 0.0
        assert spectral.limit_flatness(DecayProfile("power", 3.0, 1.0)) == 0.0
        assert spectral.limit_flatness(DecayProfile("power", 3.0, 2.0)) == 3.0
        assert spectral.limit_flatness(DecayProfile("power", 3.0, 2.5)) == np.inf

    def test_trace_csv(self, tmp_path):
        prof = DecayProfile("inverse-square", 50.0)
        tr = spectral.blowup_functional("point", 2.0, 1.0, 1, self.lam0, prof,
                                        [0.2, 0.1])
        path = tmp_path / "trace.csv"
        spectral.write_trace(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,value"
        assert len(lines) == 3
