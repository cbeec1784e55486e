import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from heatlab import barriers, geometry, potential, solver, spectral
from heatlab.errors import BudgetError, ConfigurationError
from heatlab.grids import Field, Grid
from heatlab.potential import DecayProfile, Potential, grid_levels


def box_grid(n=301, dt=2e-3, lo=-3.0, hi=3.0):
    return Grid.interval(lo, hi, n, dt)


def copies(t, values, log_scale):
    """An observer that keeps the whole field at each of its times."""
    return t, values.copy(), log_scale


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
        # pure diffusion against the closed-form representation
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
            exact = barriers.represent_linear(1.0, None, g, 0.07).values
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

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_exponent_at_most_one_rejected(self, p):
        # the absorption map used to return the field untouched, so such a
        # spec silently solved the linear heat equation
        with pytest.raises(ConfigurationError, match="must be > 1"):
            solver.PDESpec(p=p, absorption=1.0)

    def test_non_finite_field_stops_the_run(self):
        g = box_grid(n=61, dt=1e-2)
        vals = np.zeros(g.shape)
        vals[30] = np.nan
        res = solver.evolve(Field(g, vals, 0.0), solver.PDESpec(p=2.0),
                            10 * g.dt)
        assert res.diverged
        assert res.stop == "non-finite"
        assert res.times.size == res.log_linf.size == 1
        # the step froze before its norms: they are NaN, not leftover memory
        assert np.isnan(res.log_l2[-1]) and np.isnan(res.log_linf[-1])

    def test_curve_on_2d_grid_rejected(self):
        # curves are probed by 1D interpolation only
        g = Grid.unit_ball(21, 1e-3, ndim=2)
        curve = geometry.Curve.straight((1.0, 0.0), 1.0, n=65)
        fld = Field(g, np.zeros(g.shape), 0.0)
        with pytest.raises(ConfigurationError, match="1D grid"):
            solver.evolve(fld, solver.PDESpec(p=2.0), 10 * g.dt, curve=curve)


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
        # a list or an array; each moving axis keeps dt * c / h, once
        g = Grid.unit_ball(21, 1e-3, ndim=2)
        for drift in ((0.1, 0.0), np.array([0.1, 0.0])):
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0, drift=drift))
            assert st_._moving == [(0, 1e-3 * 0.1 * (1.0 / g.spacing[0]))]
        assert solver.Stepper(g, solver.PDESpec(p=2.0))._moving == []

    def test_1d_curve_on_2d_ball_rejected(self):
        # the one-column drift of a 1D curve used to move the zoomed field
        # diagonally across both axes
        g = Grid.unit_ball(21, 0.01, ndim=2)
        with pytest.raises(ConfigurationError, match="shape \\(1,\\)"):
            solver.solve_rescaled(0.5, (1.0,), 2.0, 0.25, g)


class TestPropagators:
    # interior sizes just below, at and just above the dense-inverse cutoff
    SIZES = (solver.DENSE_AXIS_MAX + 1, solver.DENSE_AXIS_MAX + 2,
             solver.DENSE_AXIS_MAX + 3)

    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_dense_axes_match_banded_solve(self, rng, dt):
        for n in self.SIZES:
            g = Grid("box", (-1.0, -1.0), (1.0, 1.0), (n, self.SIZES[0]), dt)
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
            for ab, prop in zip(st_._ab, st_._props):
                m = ab.shape[1]
                if m > solver.DENSE_AXIS_MAX:
                    assert prop is None
                    continue
                assert prop.shape == (m, m)
                assert prop.min() >= 0.0
                b = rng.uniform(0.0, 1.0, size=(m, 7))
                ref = solve_banded((1, 1), ab, b)
                np.testing.assert_allclose(prop @ b, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_diffusion_step_matches_banded_solves(self, rng, dt):
        # one pure-diffusion step against per-step solves on both axes,
        # on each side of the cutoff
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


    @pytest.mark.parametrize("n", [65, 66, 67, 199, 299])
    @pytest.mark.parametrize("dt", [2e-4, 2e-3])
    def test_axis_solves_match_banded_solve(self, rng, n, dt):
        # dense up to the cutoff, LDL^T factors above it; either way one
        # solve per axis, nonnegative on nonnegative data (tiny tail values
        # and exact zeros included)
        for shape in ((n,), (n, 9), (9, n)):
            g = Grid("box", (-1.0,) * len(shape), (1.0,) * len(shape),
                     shape, dt)
            st_ = solver.Stepper(g, solver.PDESpec(p=2.0))
            for ab, prop, fac in zip(st_._ab, st_._props, st_._factors):
                long_axis = ab.shape[1] > solver.DENSE_AXIS_MAX
                assert (prop is None) == long_axis
                assert (fac is None) != long_axis
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
    """A grid on either side of the dense cutoff, a constant drift with
    any sign pattern below the CFL limit, and an absorption."""
    kind = draw(st.sampled_from(["box1", "ball1", "box2", "ball2", "tunnel"]))
    n0 = draw(st.integers(5, 80))
    n1 = draw(st.integers(5, 80))
    dt = draw(st.floats(1e-4, 5e-2))
    if kind == "box1":
        g = Grid.interval(-2.0, 2.0, n0, dt)
    elif kind == "ball1":
        g = Grid.unit_ball(n0, dt, ndim=1)
    elif kind == "box2":
        g = Grid("box", (-1.0, -2.0), (1.0, 2.0), (n0, n1), dt)
    elif kind == "ball2":
        g = Grid.unit_ball(n0, dt, ndim=2)
    else:
        g = Grid.tunnel(3.0, n0, n1, dt)
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=g.ndim,
                          max_size=g.ndim))
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
    spec = solver.PDESpec(p=p, drift=c, absorption=absorption)
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
        stepper = solver.Stepper(g, spec)
        su, lu = stepper.step(u, 0.1, 0.0)
        sv, lv = stepper.step(v, 0.1, 0.0)
        su, sv = su * math.exp(-lu), sv * math.exp(-lv)
        tol = 1e-12 * max(float(np.max(np.abs(sv))), 1e-300)
        assert np.all(su <= sv + tol)
        assert su.min() >= -tol


class TestDiracFamily:
    def test_mass_matches_k(self):
        g = box_grid(n=601, dt=1e-4)
        for k in (1.0, 100.0):
            fld = solver.dirac_family(k, g, 0.01)
            assert fld.mass() == pytest.approx(k, rel=1e-4)

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
        snaps = {}
        times = np.array([0.1, 0.2])
        for k in (1e2, 1e4, 1e6):
            run = solver.solve_uk(k, self.curve, levels, 2.0, 0.25, self.grid,
                                  observe=(times, copies))
            snaps[k] = [v * math.exp(-s) for (_, v, s) in run.observed]
        for a, b in ((1e2, 1e4), (1e4, 1e6)):
            for va, vb in zip(snaps[a], snaps[b]):
                assert np.all(va <= vb + 1e-8)

    def test_absorption_below_linear_flow(self):
        # absorption only removes mass: pointwise below the matching linear
        # run, and near the closed-form kernel at the center
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        k = 0.5
        run = solver.solve_uk(k, self.curve, levels, 2.0, 0.1, self.grid,
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
        run = solver.solve_uk(1e6, self.curve, levels, q, 0.25, self.grid,
                              t_start=t0, observe=(times, copies))
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

    def test_divergence_ceiling_freezes_run(self):
        levels = grid_levels(Potential(DecayProfile("inverse-square", 50.0),
                                       "parabolic", curve=self.curve),
                             self.grid)
        run = solver.solve_uk(1e6, self.curve, levels, 2.0, 0.25, self.grid,
                              ceiling=1e3)
        assert run.diverged
        assert run.stop == "divergence-ceiling"
        assert run.times.size < int(round(0.25 / self.grid.dt))

    def test_observer_timing(self):
        # one call per time, in order, at the first step at or after
        # time - dt/2, and none from the step that hits the ceiling on;
        # absorption -1 is a source, so the field grows like u' = u**2
        g = box_grid(n=61, dt=1e-2)
        vals = np.full(g.shape, 2.0)
        vals[[0, -1]] = 0.0
        times = np.arange(0.0, 1.0, 0.0125)  # 0.4125 matches the stop
        calls = []
        run = solver.evolve(Field(g, vals, 0.0),
                            solver.PDESpec(p=2.0, absorption=-1.0), 1.0,
                            ceiling=10.0,
                            observe=(times, lambda t, v, s: calls.append(t)))
        assert run.stop == "divergence-ceiling"
        stepped = run.times[:-1].tolist()
        expected = []
        for time in times:
            later = [t for t in stepped if t >= time - g.dt / 2.0]
            if not later:
                break
            expected.append(later[0])
        assert 1 < len(expected) < len(times)
        assert calls == expected
        assert run.observed == [None] * len(calls)

    def test_probe_series_lengths_match(self):
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        run = solver.solve_uk(1.0, self.curve, levels, 2.0, 0.1, self.grid,
                              t_start=0.01)
        assert run.times.size == len(run.tau_probes) == run.log_l2.size \
            == run.log_linf.size

    def test_end_before_the_datum_start_rejected(self):
        # the datum starts at 4h**2 = 0.16 > 0.1; np.empty used to fail
        # with "negative dimensions are not allowed"
        g = Grid.interval(-3.0, 3.0, 31, 0.002)
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0), g)
        with pytest.raises(ConfigurationError,
                           match=r"t_end = 0\.1 lies before the field's "
                                 r"time 0\.16"):
            solver.solve_uk(1.0, None, levels, 2.0, 0.1, g)

    def test_graph_curve_probed_at_every_step(self):
        # one probe per step, tau = t, at x(min(t, horizon)): the run goes
        # past the curve's horizon 0.25
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        run = solver.solve_uk(1e3, self.curve, levels, 2.0, 0.3, self.grid,
                              observe=(np.array([0.1, 0.3]), copies))
        assert [tau for tau, _, _ in run.tau_probes] \
            == [t for _, t, _ in run.tau_probes] == run.times.tolist()
        probes = {t: v for _, t, v in run.tau_probes}
        assert len(run.observed) == 2 and run.observed[1][0] > 0.25
        for t, vals, s in run.observed:
            x = self.curve.position_at_time(min(t, 0.25))[0]
            assert probes[t] > 0
            assert probes[t] == float(np.interp(x, self.grid.axes[0], vals)) \
                * math.exp(-s)

    def test_parametric_curve_probed_at_its_samples(self):
        # each sample whose t lies within dt/2 of a step, with its own tau;
        # the arc's ends at t = 0 lie before the first step
        arc = geometry.Curve.parametric(lambda s: 0.8 * s,
                                        lambda s: s * (1.0 - s), 1.0, n=65)
        levels = grid_levels(Potential(None, "constant-floor", floor=1.0),
                             self.grid)
        run = solver.solve_uk(1e3, arc, levels, 2.0, 0.3, self.grid)
        half = self.grid.dt / 2.0
        hits = [(float(arc.tau[j]), t) for t in run.times
                for j in np.flatnonzero(np.abs(arc.t - t) <= half)]
        assert 0 < len(hits) < arc.tau.size
        assert [(tau, t) for tau, t, _ in run.tau_probes] == hits
        # the values, against the fields at the probed steps
        again = solver.solve_uk(1e3, arc, levels, 2.0, 0.3, self.grid,
                                observe=(sorted({t for _, t in hits}), copies))
        fields = {t: (vals, s) for t, vals, s in again.observed}
        tau_x = dict(zip(arc.tau.tolist(), arc.x[:, 0].tolist()))
        for tau, t, v in run.tau_probes:
            vals, s = fields[t]
            assert v == float(np.interp(tau_x[tau], self.grid.axes[0], vals)) \
                * math.exp(-s)


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
        rate = spectral.envelope_rate(psi0.lam, res.beta_tau, res.delta_tau,
                                      sigma)
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
        assert res.delta_tau == 0.0
        assert res.conformance_margin >= -1e-6

    def test_budget_guard(self):
        with pytest.raises(BudgetError) as exc:
            solver.solve_rescaled(1e-3, self.velocity, 2.0, 1.0, self.grid)
        assert exc.value.limiting_parameter == "eps"

    def test_drift_constants_are_exact(self):
        # a straight frame has no acceleration and one speed; derivatives
        # sampled from Curve.straight(0.3, 1.0) used to give this run at
        # eps = 0.2 a delta_tau of 7.3e-15 and a beta_tau 2.4e-15 off
        for eps in (0.2, 0.1):
            res = solver.solve_rescaled(eps, (0.3,), 2.0, 0.25, self.grid)
            assert res.delta_tau == 0.0
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
                                               pair)

        t0, v0, s0 = kept[0]
        sel = W(t0) >= 1e-10 * W(t0).max()
        c = min(float(np.min(v0[sel] * math.exp(-s0) / W(t0)[sel])) * 0.9,
                1.0)
        conf = min(float(np.min(v * math.exp(-s) - c * W(t)))
                   for t, v, s in kept)
        assert len(kept) == 17
        assert (res.c, res.conformance_min) == (c, conf)

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
