import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from heatlab import barriers, geometry, harness, solver, spectral
from heatlab.errors import ConfigurationError, NumericalError
from heatlab.grids import Field, Grid, stencil_slices
from heatlab.potential import DecayProfile, Potential, grid_levels


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def box_grid(n=301, dt=2e-3, lo=-3.0, hi=3.0):
    return Grid.interval(lo, hi, n, dt)


def copies(t, values, log_scale):
    """An observer that keeps the whole field at each of its times."""
    return t, values.copy(), log_scale


def column_copies(t, values, log_scale):
    """A batch observer that keeps each column's field at each of its
    times."""
    return [copies(t, values[:, j], s) for j, s in enumerate(log_scale)]


def keep_copies(monkeypatch, kept):
    """Make every solver.evolve call also append a copy of the field at each
    observed time to ``kept``, ahead of the observer the caller passed."""
    real = solver.evolve

    def evolve(fld, spec, t_end, observe):
        times, fn = observe

        def both(t, values, log_scale):
            kept.append(copies(t, values, log_scale))
            return fn(t, values, log_scale)

        return real(fld, spec, t_end, observe=(times, both))

    monkeypatch.setattr(solver, "evolve", evolve)


class TestStepImex:
    def test_zero_field_stays_zero(self):
        g = box_grid()
        spec = solver.PDESpec(p=2.0, absorption=1.0)
        out = solver.evolve(Field(g, np.zeros(g.shape), 0.0), spec, g.dt).final
        assert np.all(out.values == 0.0)
        assert out.time == pytest.approx(g.dt)

    def test_gaussian_matches_kernel_under_refinement(self):
        # pure diffusion against the heat kernel
        errs = []
        for n in (151, 301):
            h = 6.0 / (n - 1)
            steps = int(round(0.05 / (0.2 * h * h)))
            dt = 0.05 / steps
            g = Grid.interval(-3.0, 3.0, n, dt)
            x = g.axes[0]
            fld = Field(g, barriers.heat_kernel(x, 0.0, 0.02), 0.02)
            spec = solver.PDESpec(p=2.0, absorption=None)
            res = solver.evolve(fld, spec, 0.07)
            exact = barriers.heat_kernel(x, 0.0, 0.07)
            errs.append(np.max(np.abs(res.final.values - exact)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.7

    def test_constant_state_matches_decayed_ode(self):
        # the absorption map alone, iterated on a constant state, is the
        # exact flow of u' = -a u**2
        g = box_grid(n=64, dt=1e-3)
        st_ = solver.Stepper(g, solver.PDESpec(p=2.0, absorption=1.0))
        vals = np.full(g.shape, 3.0)
        for i in range(500):
            vals = st_.absorb(vals, i * g.dt, 0.0).copy()
        expect = barriers.decayed_ode(3.0, 1.0, 2.0, 0.5)
        assert vals[7] == pytest.approx(expect, rel=1e-12)
        assert np.ptp(vals) == 0.0

    @pytest.mark.parametrize("p", [1.0 + 1e-12, math.nextafter(1.0, 2.0)])
    def test_absorption_map_tends_to_linear_decay(self, p):
        # u' = -a u**p near p = 1: one application of the absorption map
        # to a constant state must decay like u * exp(-a dt), the p -> 1
        # limit of the decay map
        g = box_grid(n=16, dt=1e-2)
        st_ = solver.Stepper(g, solver.PDESpec(p=p, absorption=5.0))
        vals = st_.absorb(np.full(16, 0.5), 0.0, 0.0)
        np.testing.assert_allclose(vals, 0.5 * math.exp(-5.0 * 1e-2),
                                   rtol=1e-12, atol=0)

    def test_field_absorption_matches_constant(self):
        # a level function equal to the constant gives the same map
        g = box_grid(n=33, dt=1e-2)
        vals = np.linspace(0.0, 4.0, 33)
        for p in (2.0, 2.5):
            const = solver.Stepper(g, solver.PDESpec(p=p, absorption=3.0))
            field = solver.Stepper(g, solver.PDESpec(
                p=p, absorption=lambda t: (np.full(33, 3.0), 0)))
            np.testing.assert_allclose(field.absorb(vals, 0.0, 0.5),
                                       const.absorb(vals, 0.0, 0.5),
                                       rtol=1e-14, atol=0)

    def test_overflowing_decay_rate_takes_its_limit(self):
        # p = 100: |u|**99 overflows for |u| > 1300, where the map used to
        # warn and return 0; one step of u' = -a u**p from there is the
        # closed form sign(u) ((p-1) dt a)**(-1/(p-1)), and an entry whose
        # x stays finite keeps the bits of the plain formula
        p, a = 100.0, 2.0
        g = box_grid(n=8, dt=1e-3)
        vals = np.array([0.0, 0.5, -3.0, 7.0, 1e3, 2e3, -1e8, 1e300])
        stepper = solver.Stepper(g, solver.PDESpec(p=p, absorption=a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stepper.absorb(vals, 0.0, 0.0)
        limit = ((p - 1.0) * g.dt * a) ** (-1.0 / (p - 1.0))
        np.testing.assert_allclose(out[5:], np.sign(vals[5:]) * limit,
                                   rtol=1e-13, atol=0)
        x = np.abs(vals[:5]) ** (p - 1.0) * (a * 1.0 * (p - 1.0) * g.dt)
        plain = vals[:5] * np.exp(np.log1p(x) * (-1.0 / (p - 1.0)))
        assert np.array_equal(out[:5], plain)
        # with max|u| known to be small the map takes the common path
        small = np.where(np.abs(vals) < 10.0, vals, 1.0)
        stepper.vmax = 7.0
        assert np.array_equal(stepper.absorb(small, 0.0, 0.0)[:4], plain[:4])

    def test_overflowing_rate_where_h_vanishes(self):
        # h = 0 makes x = 0 however large |u|**(p-1): the node keeps its
        # value (the overflowed power times 0 used to read NaN)
        p = 100.0
        g = box_grid(n=5, dt=1e-3)
        vals = np.array([1e8, 1e8, 0.5, 0.0, 0.5])
        h = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        stepper = solver.Stepper(g, solver.PDESpec(
            p=p, absorption=lambda t: (h, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stepper.absorb(vals, 0.0, 0.0)
        assert out[0] == 1e8 and out[2] == 0.5 and out[3] == 0.0
        assert out[1] == pytest.approx(((p - 1.0) * g.dt) ** (-1 / (p - 1)),
                                       rel=1e-13)

    def test_first_step_at_large_p_is_finite(self):
        # max|u| is unknown before the first step, so its map is guarded
        g = box_grid(n=61, dt=1e-3)
        fld = solver.dirac_family(1e6, g, solver.datum_start(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = solver.evolve(fld, solver.PDESpec(p=100.0, absorption=1.0),
                                fld.time + 2 * g.dt)
        assert run.times.size == 2
        assert 0.0 < run.final.values.max() < 1.1

    def test_cfl_guard(self):
        g = box_grid(n=61, dt=0.05)
        spec = solver.PDESpec(p=2.0, drift=np.array([2.0]), absorption=None)
        fld = Field(g, np.ones(g.shape), 0.0)
        with pytest.raises(ConfigurationError, match="CFL"):
            solver.evolve(fld, spec, g.dt)

    def test_positivity_preserved(self, rng):
        g = box_grid(n=101, dt=1e-3)
        vals = rng.uniform(0.0, 5.0, size=g.shape)
        vals[0] = vals[-1] = 0.0
        spec = solver.PDESpec(p=2.0, drift=np.array([0.4]), absorption=1.0)
        fld = solver.evolve(Field(g, vals, 0.0), spec, 50 * g.dt).final
        assert fld.values.min() >= -1e-12

    def test_huge_field_renormalizes(self):
        # a Dirac mass of 1e301 used to overflow squaring the field for its
        # L2 norm; scaled down at its first step, the linear run is the
        # unit-mass run shifted by ln 1e301 in log norms at every step
        g = box_grid()
        t0 = solver.datum_start(g)
        t_end = t0 + 3 * g.dt

        def log_norms(t, v, s):
            return math.log(math.sqrt(v @ v)) - s, \
                math.log(float(np.max(np.abs(v)))) - s

        runs = []
        for k in (1.0, 1e301):
            fld = solver.dirac_family(k, g, t0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(solver.evolve(
                    fld, solver.PDESpec(p=2.0), t_end,
                    observe=(solver.step_times(t0, t_end, g.dt), log_norms)))
        unit, huge = runs
        assert huge.renormalizations == 1
        assert huge.final.values.max() <= 1.0
        assert len(unit.observed) == len(huge.observed) == 3
        np.testing.assert_allclose(
            np.subtract(huge.observed, unit.observed), math.log(1e301),
            rtol=1e-13)

    def test_absorption_below_a_negative_log_scale(self):
        # physical = values * e**700: |physical / values|**(p-1) = e**1400
        # is out of double range, where it used to raise; each entry takes
        # the decay map of its physical value
        p, dt = 3.0, 1e-3
        g = box_grid(n=5, dt=dt)
        stepper = solver.Stepper(g, solver.PDESpec(p=p, absorption=1.0))
        vals = np.array([0.0, 1e-300, -1e-200, 0.5, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stepper.absorb(vals, 0.0, -700.0)
        phys = vals[:3] * math.exp(700.0)
        expect = vals[:3] / np.sqrt(1.0 + (p - 1.0) * dt * phys ** 2)
        np.testing.assert_allclose(out[:3], expect, rtol=1e-13, atol=0)
        limit = math.exp(-700.0) / math.sqrt((p - 1.0) * dt)
        np.testing.assert_allclose(out[3:], [limit, -limit], rtol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_exponent_at_most_one_rejected(self, p):
        # the absorption map used to return the field untouched, so such a
        # spec silently solved the linear heat equation
        with pytest.raises(ConfigurationError, match="must be > 1"):
            solver.PDESpec(p=p, absorption=1.0)

    @pytest.mark.parametrize("a", [-1.0, math.inf, math.nan])
    def test_constant_absorption_must_be_finite_and_nonnegative(self, a):
        # -1 is a source, under which max|u| can grow without bound
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            solver.PDESpec(p=2.0, absorption=a)

    def test_non_finite_field_fails_the_run(self):
        # such a run used to return a truncated result, read as any other
        g = box_grid(n=61, dt=1e-2)
        vals = np.zeros(g.shape)
        vals[30] = np.nan
        with pytest.raises(NumericalError, match=r"not finite at t = 0\.01"):
            solver.evolve(Field(g, vals, 0.0), solver.PDESpec(p=2.0),
                          10 * g.dt)



class TestDriftWidth:
    """A drift is one constant velocity per grid axis; any other drift is
    refused when the Stepper is built, before any step."""

    def test_one_column_drift_on_2d_grid_rejected(self):
        g = Grid.unit_ball(21, 1e-3, ndim=2)
        spec = solver.PDESpec(p=2.0, drift=np.array([0.1]))
        with pytest.raises(ConfigurationError,
                           match=r"drift of shape \(1,\) on a 2D grid"):
            solver.Stepper(g, spec)

    @pytest.mark.parametrize("drift, message", [
        (np.tile([0.1, 0.0], (4, 1)), r"drift of shape \(4, 2\)"),
        (lambda t: np.array([0.1, 0.0]), r"drift of shape \(\)"),
        (np.array([30.0, 0.0]), "drift CFL 3 exceeds 0.5"),
        (np.array([np.nan, 0.0]), "drift velocity is not finite")],
        ids=["rows", "callable", "cfl", "nan"])
    def test_refused_when_built(self, drift, message):
        # dt * 30 / h = 3 with h = 0.1; the old time-varying path took a
        # callable and checked the CFL limit only as its steps came due
        g = Grid.unit_ball(21, 0.01, ndim=2)
        with pytest.raises(ConfigurationError, match=message):
            solver.Stepper(g, solver.PDESpec(p=2.0, drift=drift))

    def test_constant_velocity_accepted(self):
        # a list or an array, folded into the same axis operators
        g = Grid.unit_ball(21, 1e-3, ndim=2)
        ops = [solver.Stepper(g, solver.PDESpec(p=2.0, drift=drift))._props
               for drift in ((0.1, 0.0), np.array([0.1, 0.0]))]
        for a, b in zip(*ops):
            assert np.array_equal(a, b)

    def test_1d_curve_on_2d_ball_rejected(self):
        # the one-column drift of a 1D curve used to move the zoomed field
        # diagonally across both axes
        g = Grid.unit_ball(21, 0.01, ndim=2)
        with pytest.raises(ConfigurationError, match="shape \\(1,\\)"):
            solver.solve_rescaled(0.5, (1.0,), 2.0, 0.25, g)


class TestPropagators:
    # node counts of axes with 63 to 65 interior nodes
    SIZES = (65, 66, 67)

    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_dense_axes_match_banded_solve(self, rng, dt):
        # a single field steps every axis by its dense operator, at any
        # length, and holds no LDL^T factor
        for n in self.SIZES + (301,):
            g = Grid("box", (-1.0, -1.0), (1.0, 1.0), (n, self.SIZES[0]), dt)
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
            assert st_._factor is None
            for ab, prop in zip(st_._ab, st_._props):
                m = ab.shape[1]
                assert prop.shape == (m, m)
                assert prop.min() >= 0.0
                b = rng.uniform(0.0, 1.0, size=(m, 7))
                ref = solve_banded((1, 1), ab, b)
                np.testing.assert_allclose(prop @ b, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_diffusion_step_matches_banded_solves(self, rng, dt):
        # one pure-diffusion step against per-step solves on both axes
        for shape in ((self.SIZES[0], self.SIZES[2]),
                      (self.SIZES[2], self.SIZES[1]), (self.SIZES[2],)):
            ndim = len(shape)
            g = Grid("box", (-1.0,) * ndim, (1.0,) * ndim, shape, dt)
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
            vals = rng.uniform(0.1, 1.0, size=shape)
            out, ls = st_.step(vals, 0.0, 0.0)
            inner = vals[(slice(1, -1),) * ndim]
            ref = np.zeros(shape)
            inner = solve_banded((1, 1), st_._ab[0], inner)
            if ndim == 2:
                inner = solve_banded((1, 1), st_._ab[1], inner.T).T
            ref[(slice(1, -1),) * ndim] = inner
            assert ls == 0.0
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)


    @staticmethod
    def explicit_step(g, c, vals):
        """One drift-and-diffusion step written out: upwind differences on
        the full grid, all from the pre-drift values, then a banded solve
        of I - dt * D2 along each axis, then the ball mask."""
        moved = vals.copy()
        for ax, h in enumerate(g.spacing):
            r = g.dt * c[ax] / h
            mid, back, fwd = stencil_slices(g.ndim, ax)
            diff = vals[mid] - vals[back] if r > 0 else vals[fwd] - vals[mid]
            moved[mid] -= r * diff
        block = moved[(slice(1, -1),) * g.ndim]
        for ax, (n, h) in enumerate(zip(g.shape, g.spacing)):
            r, m = g.dt / (h * h), n - 2
            ab = np.array([np.r_[0.0, np.full(m - 1, -r)],
                           np.full(m, 1.0 + 2.0 * r),
                           np.r_[np.full(m - 1, -r), 0.0]])
            block = np.moveaxis(solve_banded(
                (1, 1), ab, np.moveaxis(block, ax, 0)), 0, ax)
        out = np.zeros(g.shape)
        out[(slice(1, -1),) * g.ndim] = block
        return out * g.interior_mask()

    @pytest.mark.parametrize("g", [
        Grid.unit_ball(41, 0.005, ndim=2),
        Grid.unit_ball(69, 0.005, ndim=1)],
        ids=["shipped-ball", "long-1d-ball"])
    def test_drift_folds_into_axis_operators(self, rng, g):
        # one step with the upwind map inside each moving axis's operator
        # against the explicit step
        vals = rng.uniform(0.1, 1.0, size=g.shape) * g.interior_mask()
        for ax in range(g.ndim):
            for speed in (0.1, -0.1):
                c = np.zeros(g.ndim)
                c[ax] = speed
                st_ = solver.Stepper(g, solver.PDESpec(p=2.0, drift=c))
                out, ls = st_.step(vals, 0.0, 0.0)
                assert ls == 0.0
                np.testing.assert_allclose(out, self.explicit_step(g, c, vals),
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(21, 141), (141, 21), (141,), (21,)])
    def test_mirrored_step_matches_the_full_step(self, rng, shape):
        # a short and a long kept half, on either axis: one step of even
        # data, mirrored in every axis and whole
        ndim = len(shape)
        g = Grid("box", (-1.0,) * ndim, (1.0,) * ndim, shape, 2e-3)
        vals = rng.uniform(0.1, 1.0, size=shape)
        for ax in range(ndim):
            vals = vals + np.flip(vals, ax)
        full, quad = (solver.Stepper(g, solver.PDESpec(
            p=2.0, absorption=1.0, mirror=mirror)).step(vals, 0.0, 0.0)[0]
            for mirror in ((), tuple(range(ndim))))
        np.testing.assert_allclose(quad, full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("g", [
        Grid.unit_ball(41, 0.005, ndim=2),
        Grid("box", (-1.0, -1.0), (1.0, 1.0), (23, 66), 2e-3)])
    def test_drift_free_operator_is_the_inverse(self, g):
        # bit for bit the averaged banded inverse, on either axis
        st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
        for ab, prop in zip(st_._ab, st_._props):
            inv = solve_banded((1, 1), ab, np.eye(ab.shape[1]))
            assert np.array_equal(prop, 0.5 * (inv + inv.T))

    @pytest.mark.parametrize("n", [65, 66, 67, 199, 299])
    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_axis_solves_match_banded_solve(self, rng, n, dt):
        # every axis dense at any length, one product per axis,
        # nonnegative on nonnegative data (tiny tail values and exact zeros
        # included)
        for shape in ((n,), (n, 9), (9, n)):
            g = Grid("box", (-1.0,) * len(shape), (1.0,) * len(shape),
                     shape, dt)
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
            assert st_._factor is None
            for ab, prop in zip(st_._ab, st_._props):
                assert prop.shape == (ab.shape[1],) * 2
            inner = tuple(m - 2 for m in shape)
            b = rng.uniform(0.0, 1.0, size=inner) \
                * (rng.random(inner) < 0.5) * 10.0 ** rng.integers(-300, 1, inner)
            ref = solve_banded((1, 1), st_._ab[0], b)
            if len(shape) == 2:
                ref = solve_banded((1, 1), st_._ab[1], ref.T).T
            out = st_._diffuse(b)
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)
            assert out.min() >= 0.0


@st.composite
def comparison_cases(draw):
    """A grid of 5 to 80 nodes an axis, a constant drift with any sign
    pattern below the CFL limit, and an absorption; or a mirrored box with
    odd counts up to 161, drifting along no mirrored axis."""
    kind = draw(st.sampled_from(["box1", "ball1", "box2", "ball2", "tunnel",
                                 "mirrored1", "mirrored2"]))
    n_max = 160 if kind.startswith("mirrored") else 80
    n0 = draw(st.integers(5, n_max))
    n1 = draw(st.integers(5, n_max))
    dt = draw(st.floats(1e-4, 5e-2))
    if kind == "box1":
        g = Grid.interval(-2.0, 2.0, n0, dt)
    elif kind == "ball1":
        g = Grid.unit_ball(n0, dt, ndim=1)
    elif kind == "box2":
        g = Grid("box", (-1.0, -2.0), (1.0, 2.0), (n0, n1), dt)
    elif kind == "ball2":
        g = Grid.unit_ball(n0, dt, ndim=2)
    elif kind == "tunnel":
        g = Grid.tunnel(3.0, n0, n1, dt)
    elif kind == "mirrored1":
        g = Grid.interval(-2.0, 2.0, n0 | 1, dt)
    else:
        g = Grid.tunnel(3.0, n0 | 1, n1 | 1, dt)
    mirror = tuple(ax for ax in range(g.ndim) if draw(st.booleans())) \
        if kind.startswith("mirrored") else ()
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=g.ndim,
                          max_size=g.ndim))
    signs = [0 if ax in mirror else s for ax, s in enumerate(signs)]
    frac = draw(st.floats(0.0, 1.0))
    c = np.array([s * frac * 0.5 * h / (g.ndim * dt)
                  for s, h in zip(signs, g.spacing)])
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    a = draw(st.floats(0.0, 10.0))
    if draw(st.booleans()):
        absorption = a
    else:
        def absorption(t):
            return a * (1.0 + np.sum(g.points() ** 2, axis=1)) * (1.0 + t), 0
    spec = solver.PDESpec(p=p, drift=c, absorption=absorption, mirror=mirror)
    return g, spec, draw(st.integers(0, 2 ** 32 - 1))


class TestComparisonPrinciple:
    @settings(max_examples=150, deadline=None)
    @given(comparison_cases())
    def test_step_is_monotone_and_positive(self, case):
        g, spec, seed = case
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 3.0, size=g.shape)
        v = u + rng.uniform(0.0, 3.0, size=g.shape) \
            * (rng.random(g.shape) < 0.5)
        for ax in spec.mirror:  # even data, as a mirrored run steps
            u, v = u + np.flip(u, ax), v + np.flip(v, ax)
        stepper = solver.Stepper(g, spec)
        su, lu = stepper.step(u, 0.1, 0.0)
        sv, lv = stepper.step(v, 0.1, 0.0)
        su, sv = su * math.exp(-lu), sv * math.exp(-lv)
        tol = 1e-12 * max(float(np.max(np.abs(sv))), 1e-300)
        assert np.all(su <= sv + tol)
        assert su.min() >= -tol
        # no step raises max|u| (the maximum principle of an absorption
        # equation), so a run needs no divergence ceiling
        for before, after in ((u, su), (v, sv)):
            assert after.max() <= before.max() * (1.0 + 1e-12)


class TestDiracFamily:
    def test_mass_matches_k(self):
        g = box_grid(n=601, dt=1e-4)
        for k in (1.0, 100.0):
            fld = solver.dirac_family(k, g, 0.01)
            mass = fld.values.sum() * g.cell_volume * math.exp(-fld.log_scale)
            assert mass == pytest.approx(k, rel=1e-4)

    def test_zero_mass(self):
        g = box_grid()
        assert np.all(solver.dirac_family(0.0, g, 0.01).values == 0.0)

    def test_runs_start_at_ladder_top(self, monkeypatch):
        # the zoomed and tunnel runs start from the top of DEFAULT_LADDER
        masses = []

        class Started(Exception):
            pass

        def spy(k, grid, t_start):
            masses.append(k)
            raise Started

        monkeypatch.setattr(solver, "dirac_family", spy)
        with pytest.raises(Started):
            solver.solve_rescaled(0.5, (1.0,), 2.0, 0.25,
                                  Grid.unit_ball(21, 0.01))
        with pytest.raises(Started):
            solver.tunnel_run(2.0, Grid.tunnel(10.0, 41, 11, 0.01))
        assert masses == [max(solver.DEFAULT_LADDER)] * 2

    def test_under_resolved_kernel_rejected(self):
        g = box_grid(n=61, dt=1e-3)  # h = 0.1, needs t0 >= 0.04
        with pytest.raises(ConfigurationError, match="under-resolved"):
            solver.dirac_family(1.0, g, 0.001)


class TestSolveUk:
    def setup_method(self):
        self.grid = box_grid(n=301, dt=2e-3)
        self.curve = geometry.Curve.straight(1.0, 0.25, n=257)

    def test_k_monotone_comparison(self):
        levels = grid_levels(Potential(DecayProfile("log", 2.0), "parabolic",
                                       curve=self.curve), self.grid)
        times = np.array([0.1, 0.2])
        ks = (1e2, 1e4, 1e6)
        runs = solver.solve_uk(ks, levels, 2.0, 0.25, self.grid,
                               observe=(times, column_copies))
        snaps = {k: [v * math.exp(-s) for (_, v, s) in run.observed]
                 for k, run in zip(ks, runs)}
        for a, b in ((1e2, 1e4), (1e4, 1e6)):
            for va, vb in zip(snaps[a], snaps[b]):
                assert np.all(va <= vb + 1e-8)

    def test_absorption_below_linear_flow(self):
        # absorption only removes mass: pointwise below the matching linear
        # run, and near the closed-form kernel at the center
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        k = 0.5
        run, = solver.solve_uk((k,), levels, 2.0, 0.1, self.grid,
                               t_start=0.01)
        lin_fld = solver.dirac_family(k, self.grid, 0.01)
        lin = solver.evolve(lin_fld, solver.PDESpec(p=2.0, absorption=None),
                            0.1)
        assert np.all(run.final.values <= lin.final.values + 1e-12)
        center = self.grid.shape[0] // 2
        exact_center = k * barriers.heat_kernel(0.0, 0.0, 0.1)
        assert run.final.values[center] <= exact_center * 1.02

    def test_brezis_friedman_ceiling(self):
        # constant-floor absorption: the flat ODE ceiling plus the boundary
        # barrier dominates at every interior node and probed time
        beta, q = 1.0, 2.0
        levels = grid_levels(Potential(None, "constant-floor", floor=beta),
                             self.grid)
        t0 = 0.01
        times = np.array([0.05, 0.1, 0.2])
        run, = solver.solve_uk((1e6,), levels, q, 0.25, self.grid,
                               t_start=t0, observe=(times, column_copies))
        x = self.grid.axes[0]
        r = 2.9
        inside = np.abs(x) < r * 0.999
        psi = barriers.drift_radial_barrier(r, 0.0, beta, q, 0.0, x[inside])
        for (t, vals, s) in run.observed:
            u = vals * math.exp(-s)
            ceiling = barriers.ode_maximal(beta, q, t, t0=t0) + psi
            assert np.all(u[inside] <= ceiling + 1e-8)

    def test_annulus_estimate(self):
        # bounded-entry cylinder: value at the center stays below
        # mu + C / (beta ((r1 - r0)/2)**2)**(1/(q-1))
        beta, q, mu = 1.0, 2.0, 1.0
        g = box_grid(n=401, dt=5e-4, lo=-2.0, hi=2.0)
        x = g.axes[0]
        vals = np.where(np.abs(x) <= 1.0, mu, 1e4).astype(float)
        vals[0] = vals[-1] = 0.0
        pot = Potential(None, "constant-floor", floor=beta)
        spec = solver.PDESpec(p=q, absorption=grid_levels(pot, g))
        fld = Field(g, vals, 0.0)
        res = solver.evolve(fld, spec, 0.05)
        rho = 0.25  # annulus 0.5 < |x| < 1.0 crossed by a ball of this radius
        bound = mu + barriers.drift_radial_barrier(rho, 0.0, beta, q, 0.0, 0.0)
        assert res.final.values[200] <= bound

    def test_observer_timing(self):
        # one call per time, in order, at the first step at or after
        # time - dt/2: off the step grid, several at one step, at the last
        # step and none past it; an absorbing run that steps to the end
        g = box_grid(n=61, dt=1e-2)
        vals = np.full(g.shape, 2.0)
        vals[[0, -1]] = 0.0
        times = np.array([0.0, 0.0049, 0.0051, 0.2, 0.2, 0.4567, 0.995,
                          1.004, 1.2])
        calls = []
        run = solver.evolve(Field(g, vals, 0.0),
                            solver.PDESpec(p=2.0, absorption=1.0), 1.0,
                            observe=(times, lambda t, v, s: calls.append(t)))
        stepped = run.times.tolist()
        assert run.linear_from is None and len(stepped) == 100
        expected = []
        for time in times:
            later = [t for t in stepped if t >= time - g.dt / 2.0]
            if not later:
                break
            expected.append(later[0])
        assert calls == expected and len(calls) == len(times) - 1
        assert calls[:3] == [stepped[0]] * 3 and calls[-1] == stepped[-1]
        assert run.observed == [None] * len(calls)

    def test_probe_series_lengths_match(self):
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        steps = solver.solve_uk((1.0,), levels, 2.0, 0.1, self.grid,
                                t_start=0.01)[0].times
        run, = solver.solve_uk((1.0,), levels, 2.0, 0.1, self.grid,
                               t_start=0.01,
                               observe=(steps, lambda t, v, s: [t]))
        # an observer at the time of every step is called once a step
        assert run.observed == steps.tolist()
        assert np.array_equal(run.times, steps)

    def test_end_before_the_datum_start_rejected(self):
        # the datum starts at 4h**2 = 0.16 > 0.1; np.empty used to fail
        # with "negative dimensions are not allowed"
        g = Grid.interval(-3.0, 3.0, 31, 0.002)
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0), g)
        with pytest.raises(ConfigurationError,
                           match=r"t_end = 0\.1 lies before the field's "
                                 r"time 0\.16"):
            solver.solve_uk((1.0,), levels, 2.0, 0.1, g)

    def probed(self, curve):
        """u_1000 run to t = 0.3 and observed by the ladder's curve probe
        (see harness.ladder_runs): per step (t, probe, the batch of this one
        field, its log_scale)."""
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        steps, probe = harness._curve_probe(curve, self.grid, None, 0.3)
        run, = solver.solve_uk(
            (1e3,), levels, 2.0, 0.3, self.grid,
            observe=(steps, lambda t, v, s: [(t, probe(t, v, s)[0], v.copy(),
                                              s.copy())]))
        assert [t for t, *_ in run.observed] == run.times.tolist()
        return run

    def test_graph_curve_probed_at_every_step(self):
        # one probe per step, tau = t, at x(min(t, horizon)): the run goes
        # past the curve's horizon 0.25
        run = self.probed(self.curve)
        assert run.times[-1] > 0.25
        for t, v, vals, s in run.observed:
            x = self.curve.position_at_time(min(t, 0.25))[0]
            assert v > 0
            assert v == float(np.interp(x, self.grid.axes[0], vals[:, 0])) \
                * math.exp(-s[0])
        # tau = t: a window keeps only the steps inside it
        _, probe = harness._curve_probe(self.curve, self.grid, (0.1, 0.2),
                                        0.3)
        inside = [0.1 <= t <= 0.2 for t, *_ in run.observed]
        assert 0 < sum(inside) < len(inside)
        for keep, (t, v, vals, s) in zip(inside, run.observed):
            assert probe(t, vals, s) == [v if keep else 0.0]

    def test_parametric_curve_probed_at_its_samples(self):
        # each sample whose t lies within dt/2 of a step, with its own tau;
        # the arc's ends at t = 0 lie before the first step
        arc = geometry.Curve.parametric(lambda s: 0.8 * s,
                                        lambda s: s * (1.0 - s), 1.0, n=65)
        run = self.probed(arc)
        half = self.grid.dt / 2.0
        hits = {t: np.flatnonzero(np.abs(arc.t - t) <= half)
                for t in run.times}
        probed = np.concatenate(list(hits.values()))
        assert 0 < probed.size < arc.tau.size
        assert 0 not in probed and arc.tau.size - 1 not in probed
        for t, v, vals, s in run.observed:
            values = [float(np.interp(arc.x[j, 0], self.grid.axes[0],
                                      vals[:, 0])) * math.exp(-s[0])
                      for j in hits[t]]
            assert v == max(values, default=0.0)
            for j, vj in zip(hits[t], values):
                # a window holding only this sample's tau keeps its value
                tau = arc.tau[j]
                _, probe = harness._curve_probe(arc, self.grid, (tau, tau),
                                                0.3)
                assert probe(t, vals, s) == [vj]


class TestBatch:
    def test_batch_needs_a_1d_grid_without_drift(self):
        tunnel = Grid.tunnel(10.0, 21, 11, 1e-3)
        with pytest.raises(ConfigurationError, match="batch"):
            solver.Stepper(box_grid(), solver.PDESpec(
                p=2.0, drift=np.array([0.1])), columns=2)
        with pytest.raises(ConfigurationError, match="batch"):
            solver.Stepper(tunnel, solver.PDESpec(p=2.0), columns=2)
        # a mirrored batch would solve the halved centre row against an
        # unhalved right-hand side
        with pytest.raises(ConfigurationError, match="batch"):
            solver.Stepper(box_grid(), solver.PDESpec(p=2.0, mirror=(0,)),
                           columns=2)
        batch = solver.Stepper(box_grid(), solver.PDESpec(p=2.0), columns=2)
        assert batch._props is None and len(batch._factor) == 2
        with pytest.raises(ConfigurationError, match="field shape"):
            Field(tunnel, np.zeros((21, 11, 2)), 0.0)
        assert Field(box_grid(), np.zeros((301, 2)), 0.0).values.shape \
            == (301, 2)

    def test_columns_step_as_alone(self):
        # an axis that a single field steps by its dense inverse: in a
        # batch every column takes the LDL^T sweeps of a batch of one
        g = box_grid(n=41, dt=1e-2)
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0), g)
        obs = (np.array([0.2, 0.5]), column_copies)
        batch = solver.solve_uk((1e-3, 1.0, 1e3), levels, 2.5, 0.6, g,
                                observe=obs)
        for k, run in zip((1e-3, 1.0, 1e3), batch):
            alone, = solver.solve_uk((k,), levels, 2.5, 0.6, g, observe=obs)
            assert np.array_equal(run.final.values, alone.final.values)
            assert run.final.log_scale == alone.final.log_scale
            for (t, v, s), (t_a, v_a, s_a) in zip(run.observed,
                                                  alone.observed):
                assert (t, s) == (t_a, s_a) and np.array_equal(v, v_a)


    def test_a_non_finite_column_fails_the_batch(self):
        # a NaN in one column's datum: the batch raises at its first step,
        # where each column used to leave the batch on its own
        g = box_grid(n=61, dt=1e-2)
        vals = np.zeros(g.shape + (2,))
        vals[1:-1] = [0.1, 2.0]
        vals[30, 1] = np.nan
        spec = solver.PDESpec(p=3.0, absorption=1.0)
        with pytest.raises(NumericalError,
                           match=r"column is not finite at t = 0\.01"):
            solver.evolve(Field(g, vals, 0.0), spec, 1.0,
                          observe=(np.arange(0.05, 1.0, 0.05),
                                   column_copies))


class TestFrameConsistency:
    def test_fixed_vs_moving_frame(self):
        # translating-curve problem with constant absorption: the moving-frame
        # solve must match the fixed-frame solve after shifting coordinates
        v = 0.5
        errs = []
        for n, dt in ((301, 2e-3), (601, 1e-3)):
            g = Grid.interval(-3.0, 3.0, n, dt)
            x = g.axes[0]
            t0, t1 = 0.01, 0.21
            data = barriers.heat_kernel(x, 0.0, t0)
            fixed_spec = solver.PDESpec(p=2.0, absorption=1.0)
            fixed = solver.evolve(Field(g, data.copy(), t0), fixed_spec, t1)
            moving_spec = solver.PDESpec(
                p=2.0, absorption=1.0, drift=np.array([v]))
            moving = solver.evolve(Field(g, data.copy(), t0), moving_spec, t1)
            # with the +<v, grad> drift convention, w(y, t) = u(y - v(t-t0), t)
            shift = v * (t1 - t0)
            mapped = np.interp(x - shift, x, fixed.final.values)
            core = np.abs(x) < 1.5
            errs.append(np.max(np.abs(moving.final.values - mapped)[core]))
        assert errs[1] < errs[0] * 0.7
        assert errs[1] < 0.05


class TestRescaled:
    def setup_method(self):
        self.velocity = (0.5,)
        self.grid = Grid.unit_ball(81, 0.005, ndim=1)

    def test_instrumentation(self):
        prof = DecayProfile("inverse-square", 50.0)
        res = solver.solve_rescaled(0.2, self.velocity, 2.0, 1.0, self.grid)
        assert res.c1 > 0
        assert res.sigma_tau > 0
        assert res.beta_tau == pytest.approx(0.2 * 0.5)
        assert res.conformance_margin >= -1e-6
        expect_amp = (-2.0 * math.log(0.2) + 50.0 / 0.04
                      + res.log_center_final)
        assert spectral.log_amplification(2.0, prof, 0.2) \
            + res.log_center_final == pytest.approx(expect_amp)

    def test_aligned_start_hits_t_one(self):
        # solve_rescaled starts its datum at a multiple of dt, so its first
        # observed time, which sets the Hopf ratio c1, falls on t = 1 exactly
        fld = solver.dirac_family(1.0, self.grid,
                                  solver.datum_start(self.grid))
        run = solver.evolve(fld, solver.PDESpec(p=2.0, absorption=1.0), 1.5,
                            observe=(np.array([1.0]), copies))
        assert run.observed[0][0] == 1.0

    def test_reductions_match_a_walk_of_copies(self, monkeypatch):
        # c1 from the first observed field, sigma the feedback sup, the
        # margin against c1 psi0 exp(-rate (t - 1)), all over full copies
        # and with the drift's tilt taken anew at every copy
        kept, eps, p = [], 0.2, 2.0
        keep_copies(monkeypatch, kept)
        res = solver.solve_rescaled(eps, self.velocity, p, 1.0, self.grid)
        psi0 = solver._ground_state_for(self.grid)
        psi = solver._psi_on_grid(psi0, self.grid)
        core = self.grid.interior_mask() & (psi >= 1e-3)
        x = self.grid.axes[0]
        _, v1, s1 = kept[0]
        c1 = float(np.min(v1[core] * math.exp(-s1) / psi[core]))
        sigma = 0.0
        for t, v, s in kept:
            b = eps * self.velocity[0]
            wmax = float(np.max(v * np.exp(-0.5 * x * b))) * math.exp(-s)
            sigma = max(sigma, math.exp(0.5 * (p - 1.0) * abs(b))
                        * wmax ** (p - 1.0))
        rate = spectral.envelope_rate(psi0.lam, res.beta_tau, sigma)
        margin = min(float(np.min(
            np.log(v[core]) - s
            - (math.log(c1) + np.log(psi[core]) - rate * (t - 1.0))))
            for t, v, s in kept)
        assert len(kept) == 49
        assert (res.c1, res.sigma_tau, res.conformance_margin) \
            == (c1, sigma, margin)

    def test_no_drift_reduces_constants(self):
        res = solver.solve_rescaled(0.2, (0.0,), 2.0, 1.0, self.grid)
        assert res.beta_tau == 0.0
        assert res.conformance_margin >= -1e-6

    def test_budget_guard(self):
        with pytest.raises(ConfigurationError, match="raise eps above"):
            solver.solve_rescaled(1e-3, self.velocity, 2.0, 1.0, self.grid)

    def test_budget_guard_takes_an_underflowing_eps(self):
        # eps**2 underflows to 0, which was a ZeroDivisionError
        with pytest.raises(ConfigurationError, match="raise eps above"):
            solver.check_step_budget(1e-200, 1.0, 0.002)

    @pytest.mark.parametrize("velocity, dt, message", [
        ((1e4, 0.0), 0.005, "drift CFL 100 exceeds 0.5"),
        ((2e5, 0.0), 1e-6, r"feedback lift exp\(2e\+04\) exceeds exp\(700\)")],
        ids=["cfl", "lift"])
    def test_drift_refused_before_it_is_used(self, velocity, dt, message):
        # both used to overflow exp in the drift's tilt (a RuntimeWarning)
        # and math.exp in the lift (an OverflowError)
        g = Grid.unit_ball(21, dt, ndim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=message):
                solver.solve_rescaled(0.2, velocity, 2.0, 0.04, g)

    def test_drift_constants_are_exact(self):
        # a straight frame has one speed; derivatives sampled from
        # Curve.straight(0.3, 1.0) used to give this run at eps = 0.2 a
        # beta_tau 2.4e-15 off
        for eps in (0.2, 0.1):
            res = solver.solve_rescaled(eps, (0.3,), 2.0, 0.25, self.grid)
            assert res.beta_tau == pytest.approx(eps * 0.3, rel=1e-15, abs=0)


class TestTunnel:
    def test_short_truncation_rejected(self):
        g = Grid.tunnel(4.0, 81, 21, 1e-3)
        with pytest.raises(ConfigurationError, match="truncation"):
            solver.tunnel_run(2.0, g)

    def test_reductions_match_a_walk_of_copies(self, monkeypatch):
        # c from the first observed field, deflated and capped at 1; the
        # conformance minimum of w - c W over every observed field
        kept = []
        keep_copies(monkeypatch, kept)
        g = Grid.tunnel(10.0, 101, 21, 2e-3)
        res = solver.tunnel_run(2.0, g)
        pair = spectral.dirichlet_ground_state("interval", g.shape[1] - 2)

        def W(t):
            return barriers.tunnel_subsolution(*g.axes, t - res.a, pair.lam,
                                               pair.interpolate)

        t0, v0, s0 = kept[0]
        sel = W(t0) >= 1e-10 * W(t0).max()
        c = min(float(np.min(v0[sel] * math.exp(-s0) / W(t0)[sel])) * 0.9,
                1.0)
        conf = min(float(np.min(v * math.exp(-s) - c * W(t)))
                   for t, v, s in kept)
        assert len(kept) == 17
        assert (res.c, res.conformance_min) == (c, conf)

    def test_weight_powers_each_level_as_the_max(self):
        # the weight takes |xi'|**gamma once: at every level the shipped
        # weighted tunnel steps through (its datum's time and every step
        # time), bitwise the power of the max
        sc = harness.load_scenario(SCENARIOS / "line-blowup-weighted.ini")
        g, gamma = sc.build_grid(), sc.gamma
        levels = solver._tunnel_weight(g, gamma)
        xperp = np.abs(g.points()[:, 1])
        t0 = solver.datum_start(g)
        for t in (t0, *solver.step_times(t0, 1.0, g.dt)):
            h, n_under = levels(t)
            assert n_under == 0
            assert np.array_equal(
                h, np.maximum(math.sqrt(max(t, 0.0)), xperp) ** gamma)

    @pytest.mark.parametrize("p, gamma", [(2.0, None), (2.5, None),
                                          (3.0, 2.5)])
    def test_mirrored_quadrant_matches_the_full_grid(self, monkeypatch, p,
                                                     gamma):
        # the shipped tunnel grid, stepped as tunnel_run declares it (one
        # quadrant mirrored in both axes) and whole: the same c and
        # conformance minimum, and the final fields 1e-12 apart
        g = Grid.tunnel(10.0, 201, 41, 5e-4)
        real, finals, mirror = solver.evolve, {}, None

        def evolve(fld, spec, t_end, **kwargs):
            assert spec.mirror == (0, 1)
            run = real(fld, dataclasses.replace(spec, mirror=mirror), t_end,
                       **kwargs)
            finals[mirror] = run.final.values * math.exp(-run.final.log_scale)
            return run

        monkeypatch.setattr(solver, "evolve", evolve)
        res = {}
        for mirror in ((0, 1), ()):
            res[mirror] = solver.tunnel_run(p, g, gamma=gamma)
        quad, full = finals[(0, 1)], finals[()]
        assert np.max(np.abs(quad - full)) <= 1e-12 * np.max(full)
        assert (res[(0, 1)].c, res[(0, 1)].conformance_min) \
            == (res[()].c, res[()].conformance_min)

    @pytest.mark.parametrize("grid, drift, mirror", [
        (Grid.tunnel(10.0, 200, 41, 1e-3), None, (0,)),
        (Grid("box", (-1.0, -2.0), (1.0, 3.0), (21, 21), 1e-3), None, (1,)),
        (Grid.tunnel(10.0, 201, 41, 1e-3), (0.0, 1.0), (1,)),
        (Grid.unit_ball(21, 1e-3, ndim=2), None, (0,))],
        ids=["even-count", "off-centre", "drift-along", "ball"])
    def test_mirror_needs_a_centred_odd_box(self, grid, drift, mirror):
        with pytest.raises(ConfigurationError, match="mirrors"):
            solver.Stepper(grid, solver.PDESpec(p=2.0, drift=drift,
                                                mirror=mirror))
        # a drift across the mirrored axis is fine
        solver.Stepper(Grid.tunnel(10.0, 201, 41, 1e-3), solver.PDESpec(
            p=2.0, drift=(1.0, 0.0), mirror=(1,)))

    def test_even_grid_rejected_before_any_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("Stepper.step called")

        monkeypatch.setattr(solver.Stepper, "step", step)
        for shape in ((200, 41), (201, 40)):
            with pytest.raises(ConfigurationError, match="odd node count"):
                solver.tunnel_run(2.0, Grid.tunnel(10.0, *shape, 1e-3))

    def test_tail_fraction_counts_corners_once(self):
        g = Grid.tunnel(4.0, 9, 9, 1e-3)
        # the two-node band along the faces is 81 - 5 * 5 = 56 of 81 nodes
        assert solver._tail_fraction(np.ones((9, 9)), g) == \
            pytest.approx(56 / 81, rel=1e-15)

    def test_supercritical_gate(self):
        g = Grid.tunnel(10.0, 201, 41, 5e-4)
        with pytest.raises(ConfigurationError, match="gamma"):
            solver.tunnel_run(3.0, g, gamma=1.0)

    @pytest.mark.parametrize("length, n_cross, match", [
        (10.0, 11, "n >= 16"), (4.0, 41, "truncation")],
        ids=["n_cross", "truncation"])
    def test_rejected_before_any_step(self, monkeypatch, length, n_cross,
                                      match):
        # a cross section too coarse for its ground state used to fail only
        # after the whole run
        def evolve(*args, **kwargs):
            raise AssertionError("solver.evolve called")

        monkeypatch.setattr(solver, "evolve", evolve)
        with pytest.raises(ConfigurationError, match=match):
            solver.tunnel_run(3.0, Grid.tunnel(length, 201, n_cross, 0.002))

    def test_floors_check_the_shifted_profile(self):
        # the weighted bound needs l(s) + gamma ln s nonincreasing, which
        # the log profile with gamma = 2.5 is not; no run is needed to see it
        res = solver.TunnelResult(a=0.1, c=1.0, conformance_min=0.0, lam=2.5,
                                  gamma=2.5)
        with pytest.raises(ConfigurationError, match="shifted profile"):
            solver.tunnel_floors(res, (0.2, 0.1), 3.0,
                                 DecayProfile("log", 1.0))

    def test_envelope_mass_is_the_half_time_kernel_integral(self):
        # (4 pi)**(-1/2) * integral of exp(-z**2/2) cos(z) over
        # [-pi/2, pi/2], the constant of the half-width law, is the
        # Gaussian-cos integral at y = 0, tau = 1/2 over sqrt(2)
        z = np.linspace(-np.pi / 2.0, np.pi / 2.0, 20001)
        trapezoid = float(np.trapezoid(np.exp(-z * z / 2.0) * np.cos(z), z)
                          / math.sqrt(4.0 * math.pi))
        quadrature = barriers.gaussian_cos_integral(0.0, 0.5) / math.sqrt(2.0)
        assert quadrature == pytest.approx(trapezoid, rel=1e-9)

    def test_subsolution_conformance_and_widths(self):
        prof = DecayProfile("inverse-square", 8.0)
        g = Grid.tunnel(10.0, 201, 41, 1e-3)
        res = solver.tunnel_run(2.0, g)
        assert res.c > 0
        assert res.conformance_min >= -1e-8
        floors = solver.tunnel_floors(res, (0.2, 0.1), 2.0, prof)
        for dm, df in zip(floors["delta_measured"], floors["delta_formula"]):
            assert dm < df
        assert floors["log_floor_center"][1] > floors["log_floor_center"][0]


def stepped(fld, spec, t_end, observe=None):
    """The oracle of a run without a curve: Stepper.step at every step to
    t_end, each observer time matched to the first step at or after it -
    dt/2, as solver.evolve matches it, and no early stop."""
    grid = fld.grid
    stepper = solver.Stepper(grid, spec)
    values, s, t = fld.values.copy(), fld.log_scale, fld.time
    obs_times, fn = observe or ((), None)
    times, observed = [], []
    for i in range(int(round((t_end - t) / grid.dt))):
        values, s = stepper.step(values, t, s)
        t = fld.time + (i + 1) * grid.dt
        times.append(t)
        while len(observed) < len(obs_times) and \
                t >= obs_times[len(observed)] - grid.dt / 2.0:
            observed.append(fn(t, values, s))
    return solver.RunResult(final=Field(grid, values, t, s),
                            times=np.array(times), observed=observed,
                            renormalizations=stepper.renorm_count,
                            underflows=stepper.underflow_count,
                            tail_mass=solver._tail_fraction(values, grid))


def with_oracle(monkeypatch, call):
    """Run ``call()``, which evolves one field, then step that run again by
    the oracle; returns (the run, the oracle's run)."""
    seen, real = [], solver.evolve

    def evolve(fld, spec, t_end, **kwargs):
        run = real(fld, spec, t_end, **kwargs)
        seen.append((run, fld, spec, t_end, kwargs.get("observe")))
        return run

    monkeypatch.setattr(solver, "evolve", evolve)
    call()
    (run, fld, spec, t_end, observe), = seen
    return run, stepped(fld, spec, t_end, observe)


def assert_same_run(run, oracle):
    """Bitwise the same run: step times, counters, final field and
    observations."""
    assert run.linear_from is None
    assert np.array_equal(run.times, oracle.times)
    for name in ("renormalizations", "underflows", "tail_mass"):
        assert getattr(run, name) == getattr(oracle, name), name
    assert np.array_equal(run.final.values, oracle.final.values)
    assert (run.final.time, run.final.log_scale) \
        == (oracle.final.time, oracle.final.log_scale)
    assert run.observed == oracle.observed


class TestLinearTail:
    """A run whose absorption map has become a no-op fast-forwards once one
    step multiplies the field by its Rayleigh quotient; any other run steps
    to the end.  The oracle steps every run to the end."""

    def setup_method(self):
        # a small field on [-1, 1] reaches the no-op regime at once and its
        # top mode within about 150 steps
        self.grid = Grid.interval(-1.0, 1.0, 41, 1e-2)
        x = self.grid.axes[0]
        vals = 1e-20 * np.cos(0.5 * math.pi * x) ** 3
        vals[[0, -1]] = 0.0
        self.fld = Field(self.grid, vals, 0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_zoomed_runs_match_the_stepped_oracle(self, monkeypatch, p, eps):
        # the shipped zoom's ball, step and frame; a feedback term below
        # the normal range (p = 3, late times) is compared absolutely
        grid = Grid.unit_ball(41, 0.005, ndim=2)
        run, oracle = with_oracle(monkeypatch, lambda: solver.solve_rescaled(
            eps, (1.0, 0.0), p, 1.0, grid))
        assert run.linear_from is not None
        assert run.linear_from < 1.0 / eps ** 2 - 1.0
        assert np.array_equal(run.times, oracle.times)
        assert len(run.observed) == len(oracle.observed) > 40
        for (t, feedback, gap), (t_o, feedback_o, gap_o) in \
                zip(run.observed, oracle.observed):
            assert t == t_o
            assert feedback == pytest.approx(feedback_o, rel=1e-12,
                                             abs=sys.float_info.min)
            assert gap == pytest.approx(gap_o, rel=1e-12, abs=1e-12)
        center = (grid.shape[0] // 2,) * 2
        log_center = [math.log(r.final.values[center]) - r.final.log_scale
                      for r in (run, oracle)]
        assert log_center[0] == pytest.approx(log_center[1], rel=1e-11)

    def test_level_function_run_steps_to_the_end(self, monkeypatch):
        # constant h = 1 through a level function: the same run with the
        # constant 1 fast-forwards
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        fld = solver.dirac_family(
            1e-20, self.grid, solver.datum_start(self.grid, aligned=False))
        run, oracle = with_oracle(monkeypatch, lambda: solver.evolve(
            fld, solver.PDESpec(p=2.0, absorption=levels), 6.0))
        assert_same_run(run, oracle)
        assert solver.evolve(fld, solver.PDESpec(p=2.0, absorption=1.0),
                             6.0).linear_from is not None

    def test_tunnel_run_steps_to_the_end(self, monkeypatch):
        g = Grid.tunnel(10.0, 101, 21, 2e-3)
        run, oracle = with_oracle(monkeypatch,
                                  lambda: solver.tunnel_run(2.0, g))
        assert_same_run(run, oracle)

    @pytest.mark.parametrize("absorption", [None, 1.0])
    def test_observer_times_past_the_switch(self, absorption):
        # off the step grid, two at one step, dt/2 after one (3.005: the
        # step at 3.0 is the first at or after it), at the last step and
        # past it
        times = np.array([0.5, 2.0, 2.0043, 2.0051, 2.0052, 3.005, 5.999,
                          6.004, 6.2])
        assert times[5] - self.grid.dt / 2.0 == 300 * self.grid.dt

        def obs(t, v, s):
            return t, float(v.max()) * math.exp(-s)

        spec = solver.PDESpec(p=2.0, absorption=absorption)
        run = solver.evolve(self.fld, spec, 6.0, observe=(times, obs))
        oracle = stepped(self.fld, spec, 6.0, (times, obs))
        assert 0.5 < run.linear_from < 2.0
        assert run.times.size == 600
        assert [t for t, _ in run.observed] == \
            [t for t, _ in oracle.observed]
        assert len(run.observed) == 8
        for (_, linf), (_, linf_o) in zip(run.observed, oracle.observed):
            assert linf == pytest.approx(linf_o, rel=1e-12, abs=0)
        assert run.final.time == oracle.final.time

    def test_times_are_the_step_grid(self):
        # one entry per step, stepped or fast-forwarded: the step count a
        # run's times give; a level function's run never switches
        dt = self.grid.dt
        steps = solver.step_times(0.0, 6.0, dt)
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        fast = solver.evolve(self.fld, solver.PDESpec(p=2.0, absorption=1.0),
                             6.0)
        slow = solver.evolve(self.fld,
                             solver.PDESpec(p=2.0, absorption=levels), 6.0)
        assert fast.linear_from is not None and slow.linear_from is None
        for run in (fast, slow):
            assert np.array_equal(run.times, steps)
        steps = solver.step_times(0.013, 1.0, dt)
        # the arithmetic of a step at a time: t0 + k dt
        assert steps.tolist() == [0.013 + k * dt for k in range(1, 100)]
