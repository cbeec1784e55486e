"""Outside-in instrumentation of heatlab: a step counter and a span tracer.

Both work by replacing public functions of the heatlab modules with
wrappers from this file, so the package itself stays unchanged.  Sweep
workers are forked from the benchmark process and inherit the wrappers;
what they record is spilled to one small file per worker call, tagged with
the sweep phase that forked them, and merged by the parent afterwards.
"""

import functools
import json
import os
from pathlib import Path
from time import perf_counter


def _forked(owner):
    """True in a forked worker; resets the owner's inherited state once."""
    pid = os.getpid()
    if pid == owner.pid:
        return False
    if owner.child_pid != pid:
        owner.child_pid = pid
        owner.reset_child()
    return True


class StepCounter:
    """Once-per-run counter around ``solver.evolve``.

    Counts PDE runs, steps (``len(RunResult.times)``), node-steps (grid
    nodes x steps) and seconds inside ``evolve``.  This is the only wrapper
    the untraced run installs.
    """

    def __init__(self, spill_dir):
        self.pid = os.getpid()
        self.child_pid = None
        self.spill_dir = Path(spill_dir)
        self.tag = "main"
        self.totals = [0, 0, 0, 0.0]  # runs, steps, node_steps, seconds

    def reset_child(self):
        self.totals = [0, 0, 0, 0.0]

    def install(self, solver):
        orig = solver.evolve

        @functools.wraps(orig)
        def evolve(fld, *args, **kwargs):
            t0 = perf_counter()
            result = orig(fld, *args, **kwargs)
            self._add(len(result.times), fld.values.size, perf_counter() - t0)
            return result

        solver.evolve = evolve

    def _add(self, steps, nodes, seconds):
        if _forked(self):
            path = self.spill_dir / f"steps-{self.tag}-{os.getpid()}.txt"
            with open(path, "a") as fh:
                fh.write(f"{steps} {steps * nodes} {seconds!r}\n")
            return
        tot = self.totals
        tot[0] += 1
        tot[1] += steps
        tot[2] += steps * nodes
        tot[3] += seconds

    def snapshot(self):
        return tuple(self.totals)

    def collect_workers(self, tag):
        """Fold the spill files of workers forked under ``tag`` into the
        totals; returns (runs, steps, node_steps, seconds) they added."""
        added = [0, 0, 0, 0.0]
        for path in sorted(self.spill_dir.glob(f"steps-{tag}-*.txt")):
            for line in path.read_text().splitlines():
                steps, node_steps, seconds = line.split()
                added[0] += 1
                added[1] += int(steps)
                added[2] += int(node_steps)
                added[3] += float(seconds)
            path.unlink()
        for i, v in enumerate(added):
            self.totals[i] += v
        return tuple(added)


class Tracer:
    """Span recorder: (name, start, end, parent index, attributes).

    Spans stay in memory; a forked worker writes its spans to a file when
    the outermost wrapped call it serves returns.
    """

    def __init__(self, spill_dir):
        self.pid = os.getpid()
        self.child_pid = None
        self.spill_dir = Path(spill_dir)
        self.tag = "main"
        self.spans = []
        self.stack = []
        self._seq = 0
        self._restore = []
        self.distance_keys = set()
        self.distance_curves = []

    def reset_child(self):
        self.spans = []
        self.stack = []
        self._seq = 0

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a wrapper recording a span ``name``;
        ``attrs(args, kwargs, result)`` may return a number kept with it."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            in_worker = _forked(self)
            span = [name, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            if in_worker and not self.stack:
                self._spill()
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _spill(self):
        path = self.spill_dir / f"spans-{self.tag}-{os.getpid()}-{self._seq}.json"
        self._seq += 1
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def collect_workers(self, tag):
        """Span lists written by workers forked under ``tag`` (one list per
        served call); the files are removed."""
        trees = []
        for path in sorted(self.spill_dir.glob(f"spans-{tag}-*.json")):
            trees.append(json.loads(path.read_text()))
            path.unlink()
        return trees

    def take(self):
        """Spans recorded in this process so far; the buffer is emptied."""
        spans, self.spans = self.spans, []
        return spans

    def note_distance(self, points, t, curve):
        """Record the identity of one distance evaluation: (curve, t,
        grid nodes).

        Curves are held until :meth:`end_pass`, so their ids stay unique.
        """
        self.distance_curves.append(curve)
        key = (id(curve), float(t), hash(points.tobytes()))
        self.distance_keys.add(key)

    def end_pass(self):
        distinct = len(self.distance_keys)
        self.distance_keys = set()
        self.distance_curves = []
        return distinct


def install_tracer(tracer, heatlab):
    """Wrap the public functions of each layer, as called by its callers."""
    solver, potential, geometry = heatlab.solver, heatlab.potential, heatlab.geometry
    spectral, harness = heatlab.spectral, heatlab.harness

    def distance_attrs(args, kwargs, result):
        points, t, curve = args
        tracer.note_distance(points, t, curve)
        return int(points.shape[0]) * int((curve.t <= t + 1e-15).sum())

    tracer.wrap(harness, "run_scenario", "harness.verdict")
    tracer.wrap(harness, "emit_report", "harness.report",
                lambda a, k, paths: sum(os.path.getsize(p) for p in paths))
    tracer.wrap(harness, "sweep", "harness.sweep")
    for driver in ("solve_rescaled", "solve_uk", "tunnel_run"):
        tracer.wrap(solver, driver, "solver.driver")
    tracer.wrap(solver, "evolve", "solver.evolve")
    tracer.wrap(solver.Stepper, "step", "solver.step")
    tracer.wrap(solver, "solve_banded", "solver.diffusion")
    tracer.wrap(solver, "heat_kernel", "barriers.kernel")
    tracer.wrap(solver, "gaussian_cos_integral", "barriers.envelope")
    tracer.wrap(potential.Potential, "evaluate_grid", "potential.h_eval",
                lambda a, k, res: res[1])
    tracer.wrap(geometry, "parabolic_distance_grid", "geometry.distance",
                distance_attrs)
    tracer.wrap(spectral, "dirichlet_ground_state", "spectral.ground_state",
                lambda a, k, pair: pair.iterations)
    tracer.wrap(spectral, "blowup_functional", "spectral.functional")


def aggregate(trees):
    """Per span name: calls, total seconds, self seconds, attribute sum.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest, so children never overlap.
    """
    out = {}
    for spans in trees:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, attr) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += attr
    return out
