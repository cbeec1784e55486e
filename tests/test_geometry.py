from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heatlab import geometry, harness, solver
from heatlab.errors import ConfigurationError
from heatlab.geometry import Curve

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EPS = np.finfo(float).eps


def brute_distance(points, t, curve):
    """The sample infimum by brute force over every node and sample: the
    grid distance as it was before its lower envelope."""
    mask = curve.t <= t + 1e-15
    if not np.any(mask):
        return np.full(points.shape[0], np.inf)
    d = np.abs(points - curve.x[mask, 0])
    d += np.sqrt(np.maximum(t - curve.t[mask], 0.0))
    return d.min(axis=1)


# coordinates on a 1/16 grid, so that x repeats, or any in range,
# subnormal ones included
_COORD = st.one_of(st.integers(-40, 40).map(lambda i: i / 16.0),
                   st.floats(-3.0, 3.0))
_TIME = st.one_of(st.integers(0, 30).map(lambda i: i / 32.0),
                  st.floats(0.0, 1.0))


@st.composite
def envelope_cases(draw):
    """A parametric curve with repeated x and non-monotone t, nodes inside
    and outside its x-range in no order, and a time: a sample's, one
    before every sample but the origin, or any."""
    samples = {(0.0, 0.0): (0.0, 0.0)}
    for _ in range(draw(st.integers(0, 12))):
        t, x = draw(_TIME), draw(_COORD)
        samples.setdefault((round(t, 12), round(x, 12)), (t, x))
    t, x = np.array(list(samples.values())).T
    curve = Curve("general-parametric", np.arange(t.size, dtype=float), t,
                  x[:, None], horizon=float(max(t.size - 1, 1)))
    nodes = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=1,
                                   max_size=20)))
    later = t[t > 0]
    when = draw(st.sampled_from(["sample", "early", "any"]))
    if when == "sample":
        tq = draw(st.sampled_from(t.tolist()))
    elif when == "early" and later.size:
        tq = draw(st.floats(0.0, float(later.min()), exclude_max=True))
    else:
        tq = draw(st.floats(0.0, 1.5))
    # the grid distance lets in samples up to 1e-15 late, the pointwise not
    assume(not np.any((t > tq) & (t <= tq + 1e-15)))
    return curve, nodes, tq


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

    @pytest.mark.parametrize("refine", [True, False])
    def test_tiny_distance_does_not_underflow(self, straight_curve, refine):
        # |x - y| used to be np.linalg.norm's sqrt(d * d): at t = 0 a node
        # at 6.5e-286 got 0, on the curve, and one at 1e-160 was 5.6e-6
        # relative off; the grid distance gives both exactly
        nodes = np.array([6.5e-286, 1e-160])
        got = [geometry.parabolic_distance((x, 0.0), straight_curve,
                                           refine=refine) for x in nodes]
        assert got == nodes.tolist()
        assert geometry.parabolic_distance_grid(
            nodes[:, None], 0.0, straight_curve).tolist() == got

    def test_grid_variant_matches_pointwise(self, straight_curve, rng):
        pts = rng.uniform(-2, 2, size=(50, 1))
        t = 0.9
        grid_d = geometry.parabolic_distance_grid(pts, t, straight_curve)
        for p, dg in zip(pts, grid_d):
            dp = geometry.parabolic_distance((p, t), straight_curve,
                                             refine=False)
            assert dg == pytest.approx(dp, rel=1e-12)


class TestLowerEnvelope:
    """The grid distance is the sample infimum |x - x_j| + sqrt(t - t_j)
    over t_j <= t, taken by its lower envelope."""

    @settings(max_examples=150, deadline=None)
    @given(envelope_cases())
    def test_matches_the_pointwise_sample_infimum(self, case):
        # each node's two candidates are picked by s_j -/+ x_j, which may
        # round apart from |x - x_j| + s_j in a near tie: allow a few ulps
        # of the coordinates (no such case has been seen; the values agree
        # bitwise)
        curve, nodes, t = case
        got = geometry.parabolic_distance_grid(nodes[:, None], t, curve)
        want = [geometry.parabolic_distance((x, t), curve, refine=False)
                for x in nodes]
        scale = np.abs(nodes) + np.max(np.abs(curve.x)) + np.sqrt(t)
        assert np.all(np.abs(got - want) <= 4 * EPS * scale)

    def test_shipped_ladders_match_the_brute_infimum(self):
        # bitwise at every node of every level each shipped ladder evaluates
        for name in ("box-reentry", "control-straight", "downslope-arc",
                     "remark-localmax"):
            sc = harness.load_scenario(SCENARIOS / f"{name}.ini")
            curve, grid = sc.build_curve(), sc.build_grid()
            t0 = solver.datum_start(grid, aligned=False)
            for t in (t0, *solver.step_times(t0, sc.horizon, grid.dt)):
                assert np.array_equal(
                    geometry.parabolic_distance_grid(grid.points(), t, curve),
                    brute_distance(grid.points(), t, curve))

    def test_before_the_curve(self, straight_curve):
        # no sample at or before t: infinitely far, as pointwise
        d = geometry.parabolic_distance_grid(np.array([[0.0], [1.0]]), -0.1,
                                             straight_curve)
        assert np.all(d == np.inf)


def labels(seg):
    return tuple(label for _, _, label in seg.intervals)


class TestClassifySegments:
    def test_monotone_graph_single_interval(self, straight_curve):
        seg = geometry.classify_segments(straight_curve)
        assert labels(seg) == ("increasing",)
        assert seg.box is None

    def test_arc_increasing_then_decreasing(self):
        arc = Curve.parametric(lambda s: s, lambda s: s * (1 - s), 1.0, n=201)
        seg = geometry.classify_segments(arc)
        assert labels(seg) == ("increasing", "decreasing")
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
        assert "box" in labels(seg)
        a, r0, (t_lo, t_hi) = seg.box
        assert t_hi == pytest.approx(0.25, abs=0.01)
        assert t_lo == pytest.approx(0.1, abs=0.01)
        assert r0 < 0.2
        # containment on every sample past the maximum
        k0 = np.argmax(c.t)
        assert np.all(np.linalg.norm(c.x[k0:] - a, axis=1) <= r0 + 1e-12)
        assert np.all(c.t[k0:] <= t_hi + 1e-9)
        assert np.all(c.t[k0:] >= t_lo - 1e-9)

    def test_shipped_box_radius_is_unchanged(self):
        # in 1D the radius's hypot is |x - a|, bitwise the sqrt((x - a)**2)
        # of the norm it replaced
        curve = harness.load_scenario(SCENARIOS / "box-reentry.ini") \
            .build_curve()
        a, r0, _ = geometry.classify_segments(curve).box
        xs = curve.x[np.argmax(curve.t):]
        assert curve.dim == 1
        assert r0 == float(np.max(np.linalg.norm(xs - a, axis=1))) + 1e-9

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

    def test_origin_is_tested_exactly(self):
        # the norm of x = 1e-170 underflows to 0: it used to pass as the
        # origin
        tau = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ConfigurationError, match="origin"):
            Curve("general-parametric", tau, tau,
                  np.column_stack([np.r_[1e-170, 0.5, 1.0]]), horizon=1.0)

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
        c = Curve.from_table(path)
        assert c.dim == 1
        assert geometry.parabolic_distance((0.25, 0.5), c) == \
            pytest.approx(0.0, abs=1e-3)

    def test_linear_descriptor_velocity(self):
        # the descriptor's velocity moves the curve: x(t) = v * t
        c = Curve.straight((2.0, 0.5), 1.0, n=65)
        assert c.position_at_time(0.3) == pytest.approx([0.6, 0.15])
        np.testing.assert_allclose(c.position_at_time([0.0, 1.0]),
                                   [[0.0, 0.0], [2.0, 0.5]], rtol=1e-15)
