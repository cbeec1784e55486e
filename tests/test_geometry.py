import numpy as np
import pytest

from heatlab import geometry
from heatlab.errors import ConfigurationError
from heatlab.geometry import Curve


class TestParabolicDistance:
    def test_point_on_curve_is_zero(self, straight_curve):
        assert geometry.parabolic_distance((0.5, 0.5), straight_curve) == \
            pytest.approx(0.0, abs=1e-10)

    def test_grid_infimum_gap_between_samples(self, straight_curve):
        # on-curve point just before the next sample of x = t (dt_s = 1/512):
        # the refined distance is about 0, the sample infimum about
        # sqrt(dt_s), since the nearest earlier sample lies delta back
        dt_s = 1.0 / 512
        delta = 0.999 * dt_s
        t = 100 * dt_s + delta
        assert geometry.parabolic_distance((t, t), straight_curve) < 1e-5
        d = geometry.parabolic_distance_grid(np.array([[t]]), t,
                                             straight_curve)[0]
        assert d == pytest.approx(delta + np.sqrt(delta), rel=1e-12)
        assert d > np.sqrt(dt_s)

    def test_straight_curve_oracle(self, straight_curve):
        # brute force over s of (2 - s) + sqrt(1 - s): decreasing, min at s = 1
        s = np.linspace(0.0, 1.0, 200001)
        brute = np.min((2.0 - s) + np.sqrt(1.0 - s))
        assert brute == pytest.approx(1.0, abs=1e-9)
        d = geometry.parabolic_distance((2.0, 1.0), straight_curve)
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_origin_only_curve(self):
        c = Curve("general-parametric", np.array([0.0]), np.array([0.0]),
                  np.array([[0.0]]), horizon=1.0)
        assert geometry.parabolic_distance((0.0, 4.0), c) == pytest.approx(2.0)

    def test_empty_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            Curve("general-parametric", np.array([]), np.array([]),
                  np.zeros((0, 1)), horizon=1.0)

    def test_future_curve_returns_inf_with_warning(self):
        tau = np.array([0.0, 0.5, 1.0])
        c = Curve("general-parametric", tau, np.array([0.0, 0.6, 0.9]),
                  np.column_stack([tau]), horizon=1.0)
        with pytest.warns(UserWarning, match="future"):
            d = geometry.parabolic_distance((3.0, -0.5), c)
        assert d == np.inf

    def test_lipschitz_in_space(self, straight_curve, rng):
        t = 0.7
        for _ in range(200):
            x, y = rng.uniform(-3, 3, size=2)
            dx = geometry.parabolic_distance((x, t), straight_curve)
            dy = geometry.parabolic_distance((y, t), straight_curve)
            assert abs(dx - dy) <= abs(x - y) + 1e-8

    def test_grid_variant_matches_pointwise(self, straight_curve, rng):
        pts = rng.uniform(-2, 2, size=(50, 1))
        t = 0.9
        grid_d = geometry.parabolic_distance_grid(pts, t, straight_curve)
        for p, dg in zip(pts, grid_d):
            dp = geometry.parabolic_distance((p, t), straight_curve,
                                             refine=False)
            assert dg == pytest.approx(dp, rel=1e-12)


class TestClassifySegments:
    def test_monotone_graph_single_interval(self, straight_curve):
        seg = geometry.classify_segments(straight_curve)
        assert seg.labels == ("increasing",)
        assert seg.box is None

    def test_arc_increasing_then_decreasing(self):
        arc = Curve.parametric(lambda s: s, lambda s: s * (1 - s), 1.0, n=201)
        seg = geometry.classify_segments(arc)
        assert seg.labels == ("increasing", "decreasing")
        (lo1, hi1, _), (lo2, hi2, _) = seg.intervals
        assert hi1 == pytest.approx(0.5, abs=0.01)
        assert (lo1, hi2) == (0.0, 1.0)

    def test_box_witness(self):
        tau_k = [0.0, 0.4, 0.6, 0.8, 1.0]
        t_k = [0.0, 0.25, 0.12, 0.15, 0.1]

        def ft(s):
            return float(np.interp(s, tau_k, t_k))

        def fx(s):
            if s <= 0.4:
                return 2.0 * s
            return 0.8 + 0.1 * np.sin(2 * np.pi * (s - 0.4) / 0.6)

        c = Curve.parametric(fx, ft, 1.0, n=401)
        seg = geometry.classify_segments(c)
        assert "box" in seg.labels
        a, r0, (t_lo, t_hi) = seg.box
        assert t_hi == pytest.approx(0.25, abs=0.01)
        assert t_lo == pytest.approx(0.1, abs=0.01)
        assert r0 < 0.2
        # containment on every sample past the maximum
        k0 = np.argmax(c.t)
        assert np.all(np.linalg.norm(c.x[k0:] - a, axis=1) <= r0 + 1e-12)
        assert np.all(c.t[k0:] <= t_hi + 1e-9)
        assert np.all(c.t[k0:] >= t_lo - 1e-9)

    def test_plain_dip_is_not_a_box(self):
        # decreasing all the way to the end: no re-entry, no box
        arc = Curve.parametric(lambda s: 1.5 * s, lambda s: s * (1 - s),
                               1.0, n=201)
        assert geometry.classify_segments(arc).box is None

    def test_needs_three_samples(self):
        c = Curve("general-parametric", np.array([0.0, 1.0]),
                  np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), horizon=1.0)
        with pytest.raises(ConfigurationError):
            geometry.classify_segments(c)


class TestCurveConstruction:
    def test_graph_requires_increasing_t(self):
        tau = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ConfigurationError):
            Curve("graph-over-t", tau, np.array([0.0, 0.6, 0.4]),
                  np.column_stack([tau]), horizon=1.0)

    def test_must_start_at_origin(self):
        tau = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ConfigurationError):
            Curve("graph-over-t", tau, tau, np.column_stack([tau + 1.0]),
                  horizon=1.0)

    def test_self_intersection_rejected(self):
        tau = np.array([0.0, 0.5, 1.0])
        t = np.array([0.0, 0.5, 0.5])
        x = np.array([[0.0], [0.2], [0.2]])
        with pytest.raises(ConfigurationError):
            Curve("general-parametric", tau, t, x, horizon=1.0)

    def test_initial_line(self, tmp_path):
        # a line in the initial plane is no curve kind of its own: a table
        # of one issued from the origin is general-parametric, and one
        # centred on it is not issued from the origin
        path = tmp_path / "line.txt"
        span = np.linspace(0.0, 2.0, 9)
        np.savetxt(path, np.column_stack([span, 0.0 * span, span]))
        assert Curve.from_table(path).kind == "general-parametric"
        np.savetxt(path, np.column_stack([span, 0.0 * span, span - 1.0]))
        with pytest.raises(ConfigurationError, match="origin"):
            Curve.from_table(path)

    def test_table_roundtrip(self, tmp_path):
        path = tmp_path / "curve.txt"
        with open(path, "w") as fh:
            fh.write("# tau t x_1\n")
            for s in np.linspace(0.0, 1.0, 33):
                fh.write(f"{s} {s} {0.5 * s}\n")
        c = Curve.from_table(path, kind="graph-over-t")
        assert c.dim == 1
        assert geometry.parabolic_distance((0.25, 0.5), c) == \
            pytest.approx(0.0, abs=1e-3)

    def test_linear_descriptor_velocity(self):
        c = Curve.straight((2.0, 0.5), 1.0, n=65)
        v = c.velocity_at_time(0.3)
        assert v == pytest.approx([2.0, 0.5])
        assert c.sup_speed(0.0, 1.0) == pytest.approx(np.hypot(2.0, 0.5))
        assert c.sup_accel(0.0, 1.0) == 0.0
