"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Each test prints a single summary line (visible under ``pytest -s`` or in
the captured output) so the gate can be read off directly.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from heatlab import barriers, harness, solver, spectral
from heatlab.errors import ConfigurationError
from heatlab.grids import Field, Grid
from heatlab.potential import Potential, grid_levels

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
INTERVAL_LAMBDA = math.pi ** 2 / 4.0


def _line(n, label, detail):
    print(f"ACCEPTANCE {n} ({label}): PASS - {detail}")


def test_criterion_01_linear_solver_fidelity():
    start = time.perf_counter()
    errs = []
    for n in (301, 601):
        h = 6.0 / (n - 1)
        steps = int(round(0.1 / (0.1 * h * h)))
        dt = 0.1 / steps
        grid = Grid.interval(-3.0, 3.0, n, dt)
        x = grid.axes[0]
        t0 = 0.01
        fld = Field(grid, barriers.heat_kernel(x, 0.0, t0), t0)
        res = solver.evolve(fld, solver.PDESpec(p=2.0, absorption=None),
                            t0 + 0.1)
        exact = barriers.heat_kernel(x, 0.0, t0 + 0.1)
        errs.append(float(np.max(np.abs(res.final.values - exact))))
    order = math.log2(errs[0] / errs[1])
    wall = time.perf_counter() - start
    assert order >= 1.9
    assert errs[1] < 1e-3
    assert wall < 30.0
    _line(1, "linear fidelity",
          f"order={order:.2f}, Linf={errs[1]:.2e}, {wall:.1f}s")


def test_criterion_02_eigen_oracles():
    start = time.perf_counter()
    for n in (64, 128, 256):
        pair = spectral.dirichlet_ground_state("interval", n)
        assert abs(pair.lam - INTERVAL_LAMBDA) <= 5.0 * (2.0 / n) ** 2
    from test_spectral import shooting_ball_eigenvalue
    oracle = shooting_ball_eigenvalue()
    ball = spectral.dirichlet_ground_state("ball", 512)
    err = abs(ball.lam - oracle)
    wall = time.perf_counter() - start
    assert err < 1e-4
    assert wall < 10.0
    _line(2, "eigen oracles",
          f"interval errors within 5(2/n)^2, ball |err|={err:.2e}, {wall:.1f}s")


def test_criterion_03_drift_shift_identity():
    beta = 1.5
    residuals = []
    for n in (128, 256):
        base = spectral.dirichlet_ground_state("interval", n)
        d = spectral.drift_shift(beta, base)
        assert d.lam - base.lam == pytest.approx(beta * beta / 4.0, abs=1e-14)
        h = 2.0 / (n + 1)
        v = d.values
        lap = np.zeros(n)
        grad = np.zeros(n)
        lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
        lap[0] = (v[1] - 2 * v[0]) / h ** 2
        lap[-1] = (v[-2] - 2 * v[-1]) / h ** 2
        grad[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        grad[0] = v[1] / (2 * h)
        grad[-1] = -v[-2] / (2 * h)
        residuals.append(float(np.max(np.abs(-lap + beta * grad - d.lam * v))))
        lam_direct, _ = spectral.drift_ground_state(beta, n)
        assert abs(lam_direct - d.lam) < 5.0 * h * h
    ratio = residuals[0] / residuals[1]
    assert ratio >= 3.0
    _line(3, "drift shift",
          f"residual ratio={ratio:.2f} (order h^2), independent solve within 5h^2")


def test_criterion_04_barrier_residuals():
    reports = barriers.standard_reports()
    for rep in reports:
        assert rep.violations == 0, rep.name
    c_plain = barriers.drift_barrier_constant(1, 2.0, c=0.0, eta=1.0)
    c_drift = barriers.drift_barrier_constant(1, 2.0, c=1.0, eta=1.0)
    _line(4, "barrier residuals",
          f"{len(reports)} checks, 0 violations; "
          f"C(1,2,0,1)={c_plain:.4g}, C(1,2,1,1)={c_drift:.4g}")


def test_criterion_05_decay_envelopes():
    n = 129
    dt = 1e-4
    grid = Grid.unit_ball(n, dt, ndim=1)
    pair = spectral.dirichlet_ground_state("interval", n - 2)
    x = grid.axes[0]
    data = pair.interpolate(x)
    h = grid.spacing[0]
    l2_start = float(np.linalg.norm(data) * math.sqrt(grid.cell_volume))
    beta = 0.8
    spec = solver.PDESpec(p=2.0, absorption=None, drift=np.array([beta]))
    half_log_vol = 0.5 * math.log(grid.cell_volume)

    def log_norms(t, v, s):
        """(t, log L2, log L-infinity) of the physical field v * exp(-s)."""
        return (t, math.log(math.sqrt(v @ v)) + half_log_vol - s,
                math.log(float(np.max(np.abs(v)))) - s)

    res = solver.evolve(Field(grid, data, 0.0), spec, 2.0,
                        observe=(solver.step_times(0.0, 2.0, dt), log_norms))
    assert len(res.observed) == res.times.size
    slack = 1.0 + 5.0 * h * h
    lam0 = INTERVAL_LAMBDA
    worst = -np.inf
    for t, ll2, _ in res.observed:
        bound = math.log(l2_start * slack) - lam0 * t
        worst = max(worst, ll2 - bound)
    assert worst <= 0.0

    c_linf = 3.0
    for t, _, lli in res.observed:
        _, linf_bound = spectral.decay_envelope(l2_start, lam0, t, 1,
                                                c_linf=c_linf)
        assert lli <= math.log(linf_bound)

    # measured crossover of the two-step chain vs the matching constant
    const = spectral.crossover_constant(1, lam0)
    rel = []
    for t in (0.5, 1.0, 2.0):
        s = np.linspace(1e-8, t - 1e-8, 200001)
        measured = float(np.min((t - s) ** -0.25 * np.exp(-lam0 * s)))
        rel.append(abs(measured - const * math.exp(-lam0 * t))
                   / (const * math.exp(-lam0 * t)))
    assert max(rel) <= 0.10
    _line(5, "decay envelopes",
          f"L2 margin={worst:.2e} (<=0), crossover dev={max(rel):.2%} (<=10%)")


def test_criterion_06_monotonicity_and_comparison():
    grid = Grid.interval(-3.0, 3.0, 301, 2e-3)
    levels = grid_levels(Potential(None, "constant-floor", floor=1.0), grid)
    t0 = 0.01
    times = np.array([0.05, 0.1, 0.2])
    ks = (1e2, 1e4, 1e6)
    runs = solver.solve_uk(ks, levels, 2.0, 0.25, grid, t_start=t0,
                           observe=(times, lambda t, v, s: [
                               (t, v[:, j].copy(), s[j])
                               for j in range(s.size)]))
    snaps = {k: run.observed for k, run in zip(ks, runs)}
    for a, b in ((1e2, 1e4), (1e4, 1e6)):
        for (ta, va, sa), (tb, vb, sb) in zip(snaps[a], snaps[b]):
            assert np.all(va * math.exp(-sa) <= vb * math.exp(-sb) + 1e-8)

    x = grid.axes[0]
    r = 2.9
    inside = np.abs(x) < 0.999 * r
    psi = barriers.drift_radial_barrier(r, 0.0, 1.0, 2.0, 0.0, x[inside])
    worst = -np.inf
    for (t, vals, s) in snaps[1e6]:
        u = vals * math.exp(-s)
        ceiling = barriers.ode_maximal(1.0, 2.0, t, t0=t0) + psi
        worst = max(worst, float(np.max(u[inside] - ceiling)))
    assert worst <= 1e-8
    _line(6, "monotone comparison",
          f"ladder pointwise ordered; supersolution margin={worst:.2e}")


def test_criterion_07_propagation_dichotomy():
    start = time.perf_counter()
    flat = harness.run_scenario(
        harness.load_scenario(SCENARIOS / "propagation-straight.ini"))
    weak = harness.run_scenario(
        harness.load_scenario(SCENARIOS / "localization-weak.ini"))
    wall = time.perf_counter() - start

    amp = flat.evidence["log_amplified"]
    assert flat.outcome == "propagation"
    assert np.all(np.diff(amp) > 0)
    assert amp[-1] > math.log(1e6)
    assert all(m >= -1e-6 for m in flat.evidence["conformance_margins"])

    amp_w = weak.evidence["log_amplified"]
    assert weak.outcome == "localization"
    assert max(amp_w) <= math.log(1e2)
    assert all(m >= -1e-6 for m in weak.evidence["conformance_margins"])
    assert wall < 600.0
    _line(7, "dichotomy",
          f"flat log-amplified {amp[0]:.0f}->{amp[-1]:.0f} (diverging), "
          f"weak max={max(amp_w):.0f} (bounded), {wall:.0f}s")


def test_criterion_08_geometry_boundedness():
    start = time.perf_counter()
    gaps = {}
    for name in ("downslope-arc", "box-reentry", "control-straight"):
        v = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.ini"))
        gaps[name] = v.evidence["stabilization_gap"]
        assert v.matches, name
    wall = time.perf_counter() - start
    assert gaps["downslope-arc"] <= 0.01
    assert gaps["box-reentry"] <= 0.01
    assert gaps["control-straight"] > 0.01
    assert wall < 300.0
    _line(8, "geometry boundedness",
          f"gaps: downslope={gaps['downslope-arc']:.2%}, "
          f"box={gaps['box-reentry']:.2%}, control={gaps['control-straight']:.0%},"
          f" {wall:.0f}s")


def test_criterion_09_tunnel_line():
    # exact arithmetic of the half-width formula
    delta = math.sqrt(2.0 * 0.1 ** 2 * (8.0 / 0.1 ** 2) / (2.0 - 1.0))
    assert delta == 4.0

    line = harness.run_scenario(harness.load_scenario(SCENARIOS / "line-blowup.ini"))
    assert line.outcome == "line-propagation"
    assert line.evidence["conformance_min"] >= -1e-8
    for df, dm in zip(line.evidence["delta_formula"],
                      line.evidence["delta_measured"]):
        assert dm < df
        assert dm >= 0.8 * df
    floors = line.evidence["log_floor_center"]
    assert floors[1] > floors[0]

    weighted = harness.run_scenario(
        harness.load_scenario(SCENARIOS / "line-blowup-weighted.ini"))
    assert weighted.outcome == "line-propagation"
    assert weighted.evidence["conformance_min"] >= -1e-8
    wf = weighted.evidence["log_floor_center"]
    assert wf[1] > wf[0]
    # gating: gamma below N(p-1)-2 must be rejected
    grid = Grid.tunnel(10.0, 201, 41, 5e-4)
    with pytest.raises(ConfigurationError):
        solver.tunnel_run(3.0, grid, gamma=1.0)
    _line(9, "tunnel line",
          f"delta formula 4.0 exact; measured/formula="
          f"{[round(m/f, 3) for m, f in zip(line.evidence['delta_measured'], line.evidence['delta_formula'])]},"
          f" conformance={line.evidence['conformance_min']:.1e}, gate enforced")


def test_criterion_10_determinism(tmp_path):
    scenario = harness.load_scenario(SCENARIOS / "downslope-arc.ini")
    dirs = []
    for tag in ("one", "two"):
        v = harness.run_scenario(scenario)
        out = tmp_path / tag
        harness.emit_report([v], out)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"nondeterministic bytes in {name}"
    _line(10, "determinism", f"{len(names)} report files byte-identical on rerun")
