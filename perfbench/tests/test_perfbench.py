"""Tests of the benchmark itself: metric names and units, failure
accounting, evidence comparison and self-time aggregation.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instrument import StepCounter, aggregate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.SPAN_METRICS) <= set(run.PER_LAYER)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workload_names_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_workload_verdict():
    ref = checks.load_reference()
    for wl in workloads.WORKLOADS.values():
        for name in wl.scenario_names:
            assert name in ref
    for a in workloads.AMPLITUDES:
        for p in workloads.P_VALUES:
            key = checks.combo_key({"amplitude": a, "p": p})
            assert f"{workloads.SWEEP_BASE}/{key}" in ref


class _Pair(workloads.Workload):
    name = "pair"
    scenario_names = ("line-blowup",)


def _run_once(tmp_path, expected=None):
    counter = StepCounter(tmp_path)
    import heatlab
    counter.install(heatlab.solver)
    try:
        wl = _Pair(ROOT, 0, tmp_path, counter)
        if expected is not None:
            wl.scenarios[0].expected = expected
        tally = checks.Tally()
        runner = run.Runner(wl, 0.0, tmp_path, checks.load_reference(), tally)
        (res,) = runner.passes(0.0)
    finally:
        heatlab.solver.evolve = heatlab.solver.evolve.__wrapped__
    return tally, res


def test_correct_verdict_passes_and_counts_node_steps(tmp_path):
    tally, res = _run_once(tmp_path)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert res.node_steps == res.items[0].node_steps > 0


def test_injected_wrong_expected_counts_as_failure(tmp_path):
    tally, _ = _run_once(tmp_path, expected="propagation")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "!= expected propagation" in tally.reasons[0]


def test_raised_verdict_and_missing_reference_fail():
    raised = checks.Item("x", "ladder", None, None, error="ValueError: boom")
    assert checks.check_item(raised, {}) == ["raised ValueError: boom"]
    unknown = checks.Item("x", "ladder", "propagation", {}, "unknown")
    assert checks.check_item(unknown, {}) == ["no reference recorded"]


def test_pass_problems_fail_the_item():
    ref = {"x": {"outcome": "box-bounded", "evidence": {"v": 1.0}}}
    ok = checks.Item("x", "ladder", "box-bounded", {"v": 1.0}, "box-bounded")
    assert checks.check_item(ok, ref) == []
    ok.problems.append("report bytes differ from the first pass")
    assert checks.check_item(ok, ref) == ["report bytes differ from the first pass"]


@pytest.mark.parametrize("got, same", [
    (17886.417466362454, True),
    (17886.417466362454 * (1 + 5e-10), True),
    (17886.417466362454 * (1 + 2e-9), False),
    (-17886.417466362454, False),
])
def test_relative_tolerance(got, same):
    assert (checks.compare(got, 17886.417466362454) == []) is same


def test_rounding_noise_around_zero_is_tolerated():
    assert checks.compare(0.0, -4.440892098500626e-16) == []
    assert checks.compare(1e-11, 0.0) != []


def test_non_finite_values_must_be_identical():
    assert checks.compare(math.inf, math.inf) == []
    assert checks.compare(math.nan, math.nan) == []
    assert checks.compare(1e308, math.inf) != []
    assert checks.compare(0.0, math.nan) != []


def test_structure_and_type_mismatches():
    ref = {"probe_maxima": [1.0, 2.0], "box_window": None, "ok": True,
           "verdict": "bounded"}
    assert checks.compare(dict(ref), ref) == []
    assert checks.compare({**ref, "probe_maxima": [1.0]}, ref) != []
    assert checks.compare({**ref, "box_window": 0.0}, ref) != []
    assert checks.compare({**ref, "ok": 1}, ref) != []
    assert checks.compare({**ref, "verdict": "diverging"}, ref) != []
    assert checks.compare({k: v for k, v in ref.items() if k != "ok"}, ref) != []
    assert checks.compare(checks.plain({"eps": (0.2, 0.1)}), {"eps": [0.2, 0.1]}) == []


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["harness.verdict", 0.0, 10.0, -1, 0],
        ["solver.evolve", 1.0, 9.0, 0, 0],
        ["solver.step", 2.0, 5.0, 1, 0],
        ["solver.diffusion", 3.0, 4.0, 2, 0],
        ["solver.step", 5.0, 8.0, 1, 0],
    ]
    agg = aggregate([spans, [["harness.verdict", 0.0, 2.0, -1, 3]]])
    assert agg["harness.verdict"] == [2, 12.0, 2.0 + 2.0, 3]
    assert agg["solver.evolve"][2] == pytest.approx(2.0)
    assert agg["solver.step"][0] == 2
    assert agg["solver.step"][2] == pytest.approx(2.0 + 3.0)
    assert agg["solver.diffusion"][1:3] == [1.0, 1.0]
