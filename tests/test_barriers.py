import math

import numpy as np
import pytest

from heatlab import barriers, spectral
from heatlab.errors import ConfigurationError, DomainError
from heatlab.grids import Grid


class TestHeatKernel:
    def test_prefactor_only(self):
        t = 1.0 / (4.0 * math.pi)
        assert barriers.heat_kernel(0.3, 0.3, t) == pytest.approx(1.0)

    def test_normalization_by_quadrature(self):
        x = np.linspace(-12.0, 12.0, 20001)
        for t in (0.3, 1.0, 2.5):
            mass = np.trapezoid(barriers.heat_kernel(x, 0.0, t), x)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_scalar_value(self):
        # (4 pi)^(-1/2) e^(-1), cross-checked against quadrature of the
        # semigroup identity in test_semigroup below
        val = barriers.heat_kernel(2.0, 0.0, 1.0)
        assert val == pytest.approx(0.10377687, abs=1e-7)

    def test_semigroup(self):
        z = np.linspace(-14.0, 14.0, 4001)
        s, t = 0.4, 0.8
        x, y = 0.3, -0.5
        conv = np.trapezoid(barriers.heat_kernel(x, z, s)
                            * barriers.heat_kernel(z, y, t), z)
        assert conv == pytest.approx(barriers.heat_kernel(x, y, s + t),
                                     abs=1e-6)

    def test_needs_positive_time(self):
        with pytest.raises(DomainError):
            barriers.heat_kernel(0.0, 0.0, 0.0)

    def test_2d_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        vals = barriers.heat_kernel(pts, np.zeros(2), 0.5, n_dim=2)
        assert vals[0] == pytest.approx(1.0 / (4 * math.pi * 0.5))
        assert vals[1] == pytest.approx(vals[0] * math.exp(-2.0 / 2.0))


class TestOdeBarriers:
    @pytest.mark.parametrize("beta,q,dt,expected", [
        (1.0, 2.0, 1.0, 1.0),
        (1.0, 2.0, 0.5, 2.0),
    ])
    def test_maximal_values(self, beta, q, dt, expected):
        assert barriers.ode_maximal(beta, q, dt) == pytest.approx(expected)

    def test_maximal_beta_scaling(self):
        v1 = barriers.ode_maximal(1.0, 2.0, 1.0)
        v2 = barriers.ode_maximal(2.0, 2.0, 1.0)
        assert v2 == pytest.approx(v1 / 2.0)

    def test_maximal_satisfies_ode(self, rng):
        # analytic differentiation of y = (beta (q-1) t)^(-1/(q-1))
        beta, q = 0.7, 2.5
        a = 1.0 / (q - 1.0)
        for t in rng.uniform(0.1, 4.0, size=25):
            y0 = barriers.ode_maximal(beta, q, t)
            yp = -a * y0 / t
            assert yp + beta * y0 ** q == \
                pytest.approx(0.0, abs=1e-10 * max(1.0, y0 ** q))

    def test_maximal_domain(self):
        with pytest.raises(DomainError):
            barriers.ode_maximal(1.0, 2.0, 0.5, t0=0.5)

    def test_decayed_initial_condition(self):
        assert barriers.decayed_ode(3.7, 1.0, 2.0, 0.0) == pytest.approx(3.7)

    def test_decayed_value(self):
        assert barriers.decayed_ode(1.0, 1.0, 2.0, 1.0) == pytest.approx(0.5)

    def test_decayed_monotone_to_zero(self):
        ts = np.linspace(0.0, 50.0, 200)
        vals = barriers.decayed_ode(2.0, 0.5, 3.0, ts)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 0.15

    def test_decayed_satisfies_ode(self, rng):
        m, eta, q = 2.0, 0.8, 2.2
        for t in rng.uniform(0.0, 5.0, size=25):
            eps = 1e-6
            p0 = barriers.decayed_ode(m, eta, q, t + eps)
            p1 = barriers.decayed_ode(m, eta, q, max(t - eps, 0.0))
            phi = barriers.decayed_ode(m, eta, q, t if t > eps else eps)
            span = (t + eps) - max(t - eps, 0.0)
            assert (p0 - p1) / span + eta * phi ** q == \
                pytest.approx(0.0, abs=1e-8)


class TestDriftRadialBarrier:
    def test_center_value(self):
        q, rho = 2.0, 0.5
        C = barriers.drift_barrier_constant(1, q, c=1.0, eta=1.0, rho=rho)
        val = barriers.drift_radial_barrier(rho, 1.0, 1.0, q, 0.0, 0.0)
        assert val == pytest.approx(C / rho ** (2.0 / (q - 1.0)))

    def test_residual_nonnegative_two_grids(self):
        for rep in barriers.standard_reports():
            assert rep.violations == 0, rep.name
            assert rep.min_residual >= -rep.tol

    def test_reaction_dominates_near_boundary(self):
        # on a 1D ray the q-power term must beat the Laplacian close to the rim
        q, eta = 2.0, 1.0
        x = np.linspace(0.9, 0.98, 200)
        h = 1e-4
        psi = barriers.drift_radial_barrier(1.0, 0.0, eta, q, 0.0, x)
        lap = (barriers.drift_radial_barrier(1.0, 0.0, eta, q, 0.0, x + h)
               - 2 * psi
               + barriers.drift_radial_barrier(1.0, 0.0, eta, q, 0.0, x - h)) / h ** 2
        assert np.all(eta * psi ** q >= lap * 0.5)

    def test_eta_scaling_closed_form(self):
        C1 = barriers.drift_barrier_constant(1, 2.0, c=0.5, eta=1.0)
        C4 = barriers.drift_barrier_constant(1, 2.0, c=0.5, eta=4.0)
        assert C4 == pytest.approx(C1 / 4.0)

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            barriers.drift_radial_barrier(1.0, 0.0, 1.0, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("n", [49, 97])
    def test_2d_constant_is_the_smallest_passing(self, n):
        # on the calibration grids the residual of C * g has no violation
        # on the band |x| <= 1 - 2h, and that of 0.9 * C has one; so has
        # (1 - 1e-9) * C on the finer grid, which sets the constant
        q, c = 2.0, 1.0
        grid = Grid.unit_ball(n, 0.005, ndim=2)
        pts = grid.points()
        r2 = np.sum(pts * pts, axis=1)
        psi = np.full(r2.shape, np.inf)
        psi[r2 < 1.0] = barriers.drift_radial_barrier(
            1.0, c, 1.0, q, (0.0, 0.0), pts[r2 < 1.0])
        psi = psi.reshape(grid.shape)
        band = (np.sqrt(r2) <= 1.0 - 2.0 * grid.spacing[0]).reshape(grid.shape)
        C = barriers.drift_barrier_constant(2, q, c=c)
        assert C > 1.0  # not the lower end of [1, 1e6]
        with np.errstate(invalid="ignore"):
            reps = [barriers.verify_supersolution(
                scale * psi, grid, None, q, absorption=1.0, drift=c,
                mask=band) for scale in (1.0, 0.9, 1.0 - 1e-9)]
        assert reps[0].violations == 0 and reps[0].n_checked > 0
        assert reps[1].violations >= 1
        assert reps[2].violations >= (n == 97)


class TestTunnelSubsolution:
    lam = math.pi ** 2 / 4.0

    @staticmethod
    def phi(xi):
        return math.cos(math.pi * xi / 2.0)

    def test_bounded_zero_one(self, rng):
        for _ in range(200):
            xi1 = rng.uniform(-4, 4)
            xi_p = rng.uniform(-1, 1)
            tau = rng.uniform(0.01, 1.0)
            w = barriers.tunnel_subsolution(xi1, xi_p, tau, self.lam, self.phi)
            assert 0.0 <= w <= 1.0

    def test_tensor_grid_of_nodal_ground_state(self):
        # on the tunnel grid's cross axis the 39-node ground state gives
        # its nodal values, zero on the boundary: W is their outer product
        xi1, xi_perp = Grid.tunnel(10.0, 201, 41, 5e-4).axes
        pair = spectral.dirichlet_ground_state("interval", 39)
        phi = np.concatenate([[0.0], pair.values, [0.0]])
        for tau in (0.05, 0.3, 0.9):
            w = barriers.tunnel_subsolution(xi1, xi_perp, tau, pair.lam,
                                             pair.interpolate)
            expect = np.exp(-(pair.lam + 1.0) * tau) * np.outer(
                barriers.gaussian_cos_integral(xi1, tau), phi)
            assert np.array_equal(w, expect)

    def test_vanishes_on_cross_boundary(self):
        w = barriers.tunnel_subsolution(0.0, 1.0, 0.3, self.lam, self.phi)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_envelope_lower_bound(self):
        # integral >= exp(-y**2/2) * integral of exp(-z**2/2) cos z
        z = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        i0 = np.trapezoid(np.exp(-z * z / 2) * np.cos(z), z)
        for y in np.linspace(-6.0, 6.0, 25):
            lhs = barriers.gaussian_cos_integral(y, 1.0) * math.sqrt(4 * math.pi)
            assert lhs >= math.exp(-y * y / 2.0) * i0 - 1e-12

    def test_exact_solution_fd_residual_refines(self):
        # W solves d_tau W - lap W + W = 0; centered FD residual ~ O(h**2)
        errs = []
        for n in (41, 81):
            xs = np.linspace(-2.0, 2.0, n)
            ys = np.linspace(-1.0, 1.0, n)
            hx, hy = xs[1] - xs[0], ys[1] - ys[0]
            dt = 1e-4
            tau = 0.3
            X, Y = np.meshgrid(xs, ys, indexing="ij")

            def W(t):
                g = barriers.gaussian_cos_integral(xs, t)
                phi = np.cos(np.pi * ys / 2.0)
                return math.exp(-(self.lam + 1.0) * t) * np.outer(g, phi)

            w0, wp, wm = W(tau), W(tau + dt), W(tau - dt)
            res = (wp - wm) / (2 * dt)
            res[1:-1, :] -= (w0[2:, :] - 2 * w0[1:-1, :] + w0[:-2, :]) / hx ** 2
            res[:, 1:-1] -= (w0[:, 2:] - 2 * w0[:, 1:-1] + w0[:, :-2]) / hy ** 2
            res += w0
            errs.append(np.max(np.abs(res[2:-2, 2:-2])))
        assert errs[1] < errs[0] / 3.0

    def test_needs_positive_tau(self):
        with pytest.raises(DomainError):
            barriers.tunnel_subsolution(0.0, 0.0, 0.0, self.lam, self.phi)


class TestVerifySupersolution:
    def test_zero_field_passes_exactly(self):
        grid = Grid.interval(-1.0, 1.0, 65, dt=0.01)
        rep = barriers.verify_supersolution(np.zeros(65), grid, None, 2.0,
                                            absorption=1.0)
        assert rep.violations == 0
        assert rep.min_residual == 0.0

    def test_subsolution_sign_flip(self):
        grid = Grid.interval(-1.0, 1.0, 65, dt=0.01)
        x = grid.axes[0]
        # a steady positive bump is a supersolution of -lap + |u|**(q-1) u;
        # its negative, a subsolution, has a negative residual
        u = 0.01 * np.cos(np.pi * x / 2.0)
        rep_sup = barriers.verify_supersolution(u, grid, None, 2.0,
                                                absorption=1.0, tol=1e-12)
        rep_sub = barriers.verify_supersolution(-u, grid, None, 2.0,
                                                absorption=1.0, tol=1e-12)
        assert rep_sup.violations == 0
        assert rep_sub.violations > 0

    def test_time_dependent_needs_three_levels(self):
        grid = Grid.interval(-1.0, 1.0, 65, dt=0.01)
        with pytest.raises(ConfigurationError):
            barriers.verify_supersolution(np.zeros((2, 65)), grid,
                                          np.array([0.0, 0.01]), 2.0)
