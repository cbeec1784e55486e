"""The three workloads, built from the shipped scenarios.

Each workload loads its inputs once from the seed and then runs passes;
a pass runs every verdict of the workload and writes its report, and is
timed from the first call to the written report.  See README.md for why
each workload was chosen and which layers it exercises.
"""

import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from heatlab import harness

from checks import Item, combo_key, compare, digest_files

# Lattice the tunnel sweep draws its combos from; reference.json holds the
# evidence of every point, so any seed's combos can be checked.
SWEEP_BASE = "line-blowup"
AMPLITUDES = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
P_VALUES = (2.0, 2.25, 2.5, 2.75, 3.0)
SWEEP_AMPLITUDES, SWEEP_PS = 3, 2


def pool_workers():
    """Sweep workers: never more than the CPUs this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class PassResult:
    wall_s: float
    items: list
    node_steps: int
    report: dict
    stats: dict = field(default_factory=dict)


class Workload:
    """Scenario files run in a seeded order through ``harness.run_scenario``."""

    name = ""
    scenario_names = ()
    workers = 0  # processes in the sweep pool, 0 when none is started

    def __init__(self, root, seed, workdir, counter):
        self.root = Path(root)
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.counter = counter
        self.tagged = [counter] if counter is not None else []
        names = list(self.scenario_names)
        self.rng.shuffle(names)
        self.scenarios = [self._load(n) for n in names]

    def _load(self, name):
        return harness.load_scenario(self.root / "scenarios" / f"{name}.ini")

    def build_inputs(self):
        """Build the grids and curves the scenarios declare."""
        for sc in self.scenarios:
            sc.build_grid()
            if sc.curve_cfg:
                sc.build_curve()

    def _tag(self, tag):
        for owner in self.tagged:
            owner.tag = tag

    def _verdicts(self, out_dir):
        items, verdicts = [], []
        for sc in self.scenarios:
            before = self.counter.snapshot()
            try:
                v = harness.run_scenario(sc)
            except Exception as exc:  # counted as a failed verdict
                items.append(Item(sc.name, sc.kind, None, None, sc.expected,
                                  error=f"{type(exc).__name__}: {exc}"))
                continue
            after = self.counter.snapshot()
            items.append(Item(sc.name, sc.kind, v.outcome, v.evidence,
                              sc.expected, wall_s=v.wall_time,
                              node_steps=after[2] - before[2]))
            verdicts.append(v)
        return items, harness.emit_report(verdicts, out_dir)

    def run_pass(self, pass_dir):
        start = self.counter.snapshot()
        t0 = perf_counter()
        items, paths = self._verdicts(Path(pass_dir) / "report")
        wall = perf_counter() - t0
        return PassResult(wall, items, self.counter.snapshot()[2] - start[2],
                          digest_files(paths))


class Zoom(Workload):
    name = "zoom"
    scenario_names = ("propagation-straight", "localization-weak")


class Ladder(Workload):
    name = "ladder"
    scenario_names = ("box-reentry", "control-straight", "downslope-arc",
                      "remark-localmax")


class TunnelSweep(Workload):
    """The tunnel pair, then a numerical sweep and its resume pass."""

    name = "tunnel-sweep"
    scenario_names = (SWEEP_BASE, "line-blowup-weighted")

    def __init__(self, root, seed, workdir, counter):
        super().__init__(root, seed, workdir, counter)
        amps = sorted(self.rng.sample(AMPLITUDES, SWEEP_AMPLITUDES))
        ps = sorted(self.rng.sample(P_VALUES, SWEEP_PS))
        ini = self.workdir / "tunnel-sweep.ini"
        if not ini.exists():
            base = (self.root / "scenarios" / f"{SWEEP_BASE}.ini").resolve()
            ini.write_text(
                "[sweep]\nname = tunnel-sweep\nmode = numerical\n"
                f"base = {base}\n"
                f"amplitude = {', '.join(repr(a) for a in amps)}\n"
                f"p = {', '.join(repr(p) for p in ps)}\n")
        self.spec = harness.load_sweep(ini)
        self.n_combos = len(amps) * len(ps)
        workers = pool_workers()
        self.workers = workers if workers > 1 else 0

    def build_inputs(self):
        super().build_inputs()
        self.spec["base"].build_grid()

    def _sweep(self, log, tag):
        self._tag(tag)
        try:
            return harness.sweep(self.spec, log, workers=max(self.workers, 1)), None
        except Exception as exc:  # every combo of this sweep counts as failed
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self._tag("main")

    def run_pass(self, pass_dir):
        pass_dir = Path(pass_dir)
        log = pass_dir / "sweep.jsonl"
        start = self.counter.snapshot()
        t0 = perf_counter()
        items, paths = self._verdicts(pass_dir / "report")
        t1 = perf_counter()
        pre = self.counter.snapshot()
        fresh, fresh_err = self._sweep(log, "fresh")
        t2 = perf_counter()
        mid = self.counter.snapshot()
        resumed, resume_err = self._sweep(log, "resume")
        wall = perf_counter() - t0
        resume_local = self.counter.snapshot()[0] - mid[0]
        fresh_w = self.counter.collect_workers("fresh")
        resume_w = self.counter.collect_workers("resume")
        resume_runs = resume_local + resume_w[0]
        if fresh is not None and mid[0] - pre[0] + fresh_w[0] == 0:
            raise RuntimeError("no PDE run of the sweep was counted; its pool "
                               "workers must be forked from this process")

        items += self._sweep_items(fresh, fresh_err, [])
        problems = []
        if resume_runs:
            problems.append(f"resume pass computed {resume_runs} runs")
        if fresh is not None and resumed is not None and \
                compare(resumed, fresh, 0.0, 0.0, "records"):
            problems.append("resumed records differ from the fresh sweep")
        if log.exists() and len(log.read_text().splitlines()) != self.n_combos:
            problems.append("sweep log does not hold one line per combo")
        items += self._sweep_items(resumed, resume_err, problems)
        stats = {"sweep_s": t2 - t1, "resume_runs": resume_runs,
                 "combos": self.n_combos}
        return PassResult(wall, items,
                          self.counter.snapshot()[2] - start[2],
                          digest_files(paths), stats)

    def _sweep_items(self, records, error, problems):
        if records is None or len(records) != self.n_combos:
            error = error or f"sweep returned {len(records)} records"
            return [Item(f"sweep {i}", "sweep", None, None, error=error)
                    for i in range(self.n_combos)]
        return [Item(f"{SWEEP_BASE}/{combo_key(rec['combo'])}", "sweep",
                     rec["outcome"], rec.get("evidence"), problems=problems)
                for rec in records]


WORKLOADS = {w.name: w for w in (Zoom, Ladder, TunnelSweep)}
