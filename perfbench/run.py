"""heatlab benchmark: verdict wall time and node-step throughput.

Run from the root of a heatlab checkout:

    python3 perfbench/run.py --workload zoom --seed 1 --seconds 25 --trace 0

``--workload`` is ``zoom``, ``ladder`` or ``tunnel-sweep`` (README.md says
what each one exercises).  The run repeats passes of the workload for
``--seconds`` seconds (a pass in progress is finished) and checks every
verdict against ``reference.json``.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import Tally, check_item, load_reference
from instrument import StepCounter, Tracer, aggregate, install_tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15

END_TO_END = {
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
KINDS = ("rescaled", "ladder", "tunnel")
PER_LAYER = {
    "solver.steps": "count",
    "solver.node_steps": "count",
    "solver.runs": "count",
    "solver.diffusion_s": "s",
    "solver.diffusion_calls": "count",
    "solver.step_self_s": "s",
    "solver.evolve_self_s": "s",
    "solver.driver_self_s": "s",
    "solver.us_per_step": "us",
    **{f"solver.s_per_node_step.{kind}": "s" for kind in KINDS},
    "geometry.distance_s": "s",
    "geometry.distance_pairs": "count",
    "geometry.distance_unique_ratio": "ratio",
    "potential.h_eval_s": "s",
    "potential.h_eval_calls": "count",
    "potential.h_underflow": "count",
    "spectral.ground_state_s": "s",
    "spectral.ground_state_iters": "count",
    "spectral.functional_s": "s",
    "barriers.kernel_s": "s",
    "barriers.envelope_s": "s",
    "harness.verdict_self_s": "s",
    "harness.report_s": "s",
    "harness.report_bytes": "bytes",
    "harness.sweep_s": "s",
    "harness.pool_busy_ratio": "ratio",
    "harness.resume_skipped_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# per-layer metric <- (span name, column of instrument.aggregate: 0 calls,
# 1 seconds, 2 self seconds, 3 attribute sum), reported per pass
SPAN_METRICS = {
    "solver.diffusion_s": ("solver.diffusion", 2),
    "solver.diffusion_calls": ("solver.diffusion", 0),
    "solver.step_self_s": ("solver.step", 2),
    "solver.evolve_self_s": ("solver.evolve", 2),
    "solver.driver_self_s": ("solver.driver", 2),
    "geometry.distance_s": ("geometry.distance", 2),
    "geometry.distance_pairs": ("geometry.distance", 3),
    "potential.h_eval_s": ("potential.h_eval", 2),
    "potential.h_eval_calls": ("potential.h_eval", 0),
    "potential.h_underflow": ("potential.h_eval", 3),
    "spectral.ground_state_s": ("spectral.ground_state", 2),
    "spectral.ground_state_iters": ("spectral.ground_state", 3),
    "spectral.functional_s": ("spectral.functional", 2),
    "barriers.kernel_s": ("barriers.kernel", 2),
    "barriers.envelope_s": ("barriers.envelope", 2),
    "harness.verdict_self_s": ("harness.verdict", 2),
    "harness.report_s": ("harness.report", 2),
    "harness.report_bytes": ("harness.report", 3),
    "harness.sweep_s": ("harness.sweep", 1),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("zoom", "ladder", "tunnel-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_heatlab():
    """Import heatlab from this checkout's sources, or stop."""
    pkg = ROOT / "src" / "heatlab"
    missing = [p for p in (pkg / "__init__.py", ROOT / "scenarios")
               if not p.exists()]
    if missing:
        raise SystemExit("perfbench: not a heatlab checkout; missing "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    sys.path.insert(0, str(ROOT / "src"))
    import heatlab
    if Path(heatlab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported heatlab from {heatlab.__file__}, "
                         f"not from {pkg}")
    return heatlab


class Runner:
    """Runs passes of one workload and checks every verdict they return."""

    def __init__(self, workload, seconds, workdir, reference, tally):
        self.wl = workload
        self.seconds = seconds
        self.workdir = workdir
        self.reference = reference
        self.tally = tally
        self.report = None
        self.n_passes = 0

    def passes(self, seconds, after_pass=None):
        """Run passes until ``seconds`` have elapsed, at least one."""
        done = []
        t0 = perf_counter()
        while not done or perf_counter() - t0 < seconds:
            pass_dir = self.workdir / f"pass-{self.n_passes}"
            self.n_passes += 1
            res = self.wl.run_pass(pass_dir)
            if after_pass is not None:
                after_pass(res)
            if self.report is None:
                self.report = res.report
            elif res.report != self.report:
                for item in res.items:
                    item.problems.append("report bytes differ from the first pass")
            for item in res.items:
                self.tally.add(item.name, check_item(item, self.reference))
            shutil.rmtree(pass_dir, ignore_errors=True)
            done.append(res)
        return done


def setup_seconds(workload, seed, workdir):
    """Median wall time of fresh processes that import heatlab, load the
    workload's scenario and sweep files and build their grids and curves."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(workdir)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def untraced(runner, args, workdir):
    passes = runner.passes(runner.seconds)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # sum of per-process peaks: this process plus each pool worker at the
    # largest worker peak (ru_maxrss is in KiB on Linux)
    rss_kib = own + runner.wl.workers * pool
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "node_steps_per_s": statistics.median(p.node_steps / p.wall_s
                                              for p in passes),
        "setup_s": setup_seconds(args.workload, args.seed, workdir),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    print(f"  passes: {len(passes)}; pass walls (s): "
          + " ".join(f"{p.wall_s:.4f}" for p in passes))
    return values, END_TO_END


def traced(runner, heatlab, workdir):
    """Untraced passes for the first half of the time, traced passes for
    the second; per-layer numbers come from the traced half, the
    per-kind costs and the overhead baseline from the untraced half."""
    wl, counter = runner.wl, runner.wl.counter
    half = runner.seconds / 2.0

    c0 = counter.snapshot()
    plain = runner.passes(half)
    c1 = counter.snapshot()
    kind_cost = {kind: [0.0, 0] for kind in KINDS}
    for p in plain:
        for item in p.items:
            if item.kind in kind_cost and item.node_steps:
                kind_cost[item.kind][0] += item.wall_s
                kind_cost[item.kind][1] += item.node_steps

    tracer = Tracer(workdir)
    install_tracer(tracer, heatlab)
    wl.tagged.append(tracer)
    trees = []
    acc = {"distinct": 0, "busy": 0.0}

    def after_pass(res):
        trees.append(tracer.take())
        fresh = tracer.collect_workers("fresh")
        trees.extend(fresh + tracer.collect_workers("resume"))
        acc["busy"] += sum(end - start for tree in fresh
                           for name, start, end, parent, _ in tree
                           if parent < 0 and name == "harness.verdict")
        acc["distinct"] += tracer.end_pass()

    try:
        spanned = runner.passes(half, after_pass)
    finally:
        tracer.uninstall()
        wl.tagged.remove(tracer)
    c2 = counter.snapshot()

    agg = aggregate(trees)
    n = len(spanned)
    values = {name: agg.get(span, [0, 0.0, 0.0, 0])[col] / n
              for name, (span, col) in SPAN_METRICS.items()}
    values["solver.runs"] = (c2[0] - c1[0]) / n
    values["solver.steps"] = (c2[1] - c1[1]) / n
    values["solver.node_steps"] = (c2[2] - c1[2]) / n
    values["solver.us_per_step"] = ((c1[3] - c0[3]) / (c1[1] - c0[1]) * 1e6
                                    if c1[1] > c0[1] else 0.0)
    for kind, (secs, node_steps) in kind_cost.items():
        values[f"solver.s_per_node_step.{kind}"] = \
            secs / node_steps if node_steps else 0.0
    calls = agg.get("geometry.distance", [0])[0]
    values["geometry.distance_unique_ratio"] = \
        acc["distinct"] / calls if calls else 0.0
    sweep_s = sum(p.stats.get("sweep_s", 0.0) for p in spanned)
    values["harness.pool_busy_ratio"] = \
        acc["busy"] / (wl.workers * sweep_s) if wl.workers and sweep_s else 0.0
    combos = sum(p.stats.get("combos", 0) for p in spanned)
    values["harness.resume_skipped_ratio"] = \
        1.0 - sum(p.stats["resume_runs"] for p in spanned) / combos \
        if combos else 0.0
    wall_plain = statistics.median(p.wall_s for p in plain)
    wall_traced = statistics.median(p.wall_s for p in spanned)
    values["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0

    print(f"  passes: {len(plain)} untraced (median {wall_plain:.4f} s), "
          f"{n} traced (median {wall_traced:.4f} s)")
    for name in PER_LAYER:
        if PER_LAYER[name] == "s" and name.endswith("_s"):
            print(f"  {name:28s} {values[name]:10.4f} s/pass "
                  f"{100.0 * values[name] / wall_traced:6.1f}% of traced wall")
    return values, PER_LAYER


def main(argv=None):
    args = parse_args(argv)
    heatlab = import_heatlab()
    from workloads import WORKLOADS  # imports heatlab

    work_root = ROOT / ".perfbench-work"
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        counter = StepCounter(workdir)
        counter.install(heatlab.solver)
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir, counter)
        runner = Runner(wl, args.seconds, workdir, load_reference(), tally)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            values, units = traced(runner, heatlab, workdir)
        else:
            values, units = untraced(runner, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for reason in tally.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    if not args.trace:
        for name, unit in units.items():
            print(f"  {name} {values[name]:.6g} {unit}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} verdicts")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
