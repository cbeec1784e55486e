"""Scenario runner reproducing the propagation/localization phenomenology.

A scenario file (INI-style ``key = value`` sections) declares a curve, a
potential, a grid, the decision rules, and an expected verdict; running it
produces a :class:`Verdict` whose outcome is derived from the recorded
evidence by those rules alone.  Sweeps run grids of scenarios with an
append-only, resumable log.

All decision constants live in the scenario files (section ``[rules]``);
the defaults of ``_KIND_KEYS`` only back missing keys.
"""

import configparser
import functools
import hashlib
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dfield, replace
from pathlib import Path

import numpy as np

from . import geometry, potential as potential_mod, solver, spectral
from .errors import BudgetError, ConfigurationError
from .grids import Grid

KINDS = ("rescaled", "ladder", "tunnel")
OUTCOMES = ("propagation", "localization", "non-propagation-segment",
            "box-bounded", "line-propagation", "inconclusive", "unknown")

_DT = 0.002  # the time step of a [grid] section without one
_EPS = (0.2, 0.1, 0.05)  # the zoom levels of a scenario without eps

# The keys each scenario reads, by kind and section, with their defaults:
# a key maps to its default, or, for a choice, to the keys each choice adds
# (the first choice is the default); a type marks a key without a default.
# A rescaled curve is linear and its velocity's width fixes the ball's
# dimension; a ladder curve is one-dimensional (a line in the initial plane
# is a tunnel's case); the kind fixes the grid.
_CURVES = {"linear": {"velocity": (1.0,), "horizon": 1.0, "samples": 513},
           "arc": {"speed": 0.8, "t_max": 0.25, "horizon": 1.0,
                   "samples": 513},
           "boxed": {"speed": 2.0, "t_max": 0.25, "wobble": 0.1,
                     "samples": 513},
           "local-max": {"speed": 1.25, "t_max": 0.25, "samples": 513},
           "table": {"path": str}}
_PROFILE = {"family": {potential_mod.INVERSE_SQUARE: {},
                       potential_mod.POWER: {"exponent": float},
                       potential_mod.LOG: {}},
            "amplitude": 1.0}
_KIND_KEYS = {
    "rescaled": {"scenario": {"alpha": 1.0, "eps": _EPS},
                 "curve": _CURVES["linear"],
                 "potential": _PROFILE,
                 "grid": {"n": 301, "dt": _DT},
                 "rules": {"functional_threshold": 50.0,
                           "amplified_ceiling": 1e6, "bounded_ceiling": 1e2,
                           "conformance_tol": 1e-6, "growth_window": 3}},
    "ladder": {"scenario": {"k_ladder": solver.DEFAULT_LADDER[1:],
                            "horizon": 1.0},
               "curve": {"form": _CURVES},
               "potential": {"distance": {
                   potential_mod.PARABOLIC: _PROFILE,
                   potential_mod.CONSTANT_FLOOR: {"floor": 1.0}}},
               "grid": {"lo": -3.0, "hi": 3.0, "n": 301, "dt": _DT},
               "rules": {"divergence_ceiling": 1e12, "stabilization": 0.01,
                         "probe_margin": 0.3}},
    "tunnel": {"scenario": {"eps": _EPS, "gamma": None}, "curve": {},
               "potential": _PROFILE,
               "grid": {"length": 10.0, "n_axis": 201, "n_cross": 41,
                        "dt": _DT},
               "rules": {"tunnel_tol": 1e-8, "halfwidth_band": 0.2}},
}
# the [scenario] keys that every kind reads but name (the choices add no
# keys); the Scenario field of each tabled [scenario] key and of each
# other section, and the grid of each kind but the rescaled ball
_COMMON = {"kind": dict.fromkeys(KINDS, {}),
           "expected": dict.fromkeys(OUTCOMES, {}), "p": 2.0}
_HEAD = {"alpha": "alpha", "eps": "eps_list", "k_ladder": "k_ladder",
         "horizon": "horizon", "gamma": "gamma"}
_FIELDS = {"curve": "curve_cfg", "potential": "potential_cfg",
           "grid": "grid_cfg", "rules": "rules"}
_GRIDS = {"ladder": Grid.interval, "tunnel": Grid.tunnel}
# the range of each number that no builder checks: a rule and its test
_RANGES = {"p": ("must be > 1", lambda v: v > 1),
           "alpha": ("must be > 0", lambda v: v > 0),
           "horizon": ("must be > 0", lambda v: v > 0),
           "eps": ("must be one or more strictly decreasing positive numbers",
                   lambda v: min(v, default=0) > 0
                   and all(a > b for a, b in zip(v, v[1:]))),
           # the verdict compares the last two rungs
           "k_ladder": ("must be two or more positive numbers",
                        lambda v: len(v) > 1 and min(v) > 0),
           # the Dirac datum sits at the origin of a ladder's interval
           "lo": ("must be < 0", lambda v: v < 0),
           "hi": ("must be > 0", lambda v: v > 0),
           # the segment classification needs three or more samples
           "samples": ("must be at least 3", lambda v: v >= 3),
           # the cross-section ground state needs 16 interior nodes
           "n_cross": ("must be at least 18", lambda v: v >= 18),
           # the functional reads the tail of two or more values
           "growth_window": ("must be at least 2", lambda v: v >= 2)}


def _require(ok, section, key, value, rule):
    if not ok:
        raise ConfigurationError(f"[{section}] {key} = {value}: {rule}")


def _fill(table, cfg, section):
    """The values of the keys ``table`` reads: ``cfg``'s, else defaults."""
    out = {}
    for key, default in table.items():
        choices = default if isinstance(default, dict) else {}
        out[key] = value = cfg.get(key, next(iter(choices), default))
        _require(not isinstance(value, type), section, key, "(unset)",
                 "required")
        rule, ok = _RANGES.get(key, ("", None))
        _require(ok is None or ok(value), section, key, value, rule)
        if choices:
            _require(value in choices, section, key, value,
                     f"unknown {section} {key}, not one of "
                     f"{', '.join(choices)}")
            out.update(_fill(choices[value], cfg, section))
    return out


def _read(kind, section, cfg):
    """``cfg`` (a None value is unset) filled with the defaults of the
    keys that a ``kind`` scenario reads in ``section``; others are errors."""
    cfg = {key: value for key, value in cfg.items() if value is not None}
    read = _fill(_KIND_KEYS[kind][section], cfg, section)
    takes = (("name", *_COMMON) if section == "scenario" else ()) \
        + tuple(read)
    for key, value in cfg.items():
        _require(key in read, section, key, value,
                 f"not read by this {kind} scenario, whose [{section}] "
                 f"takes {', '.join(takes) or 'no keys'}")
    return read


def _built(build, section, cfg, rule=""):
    """``build()``, its error naming the section and the ``cfg`` values."""
    try:
        return build()
    except (OSError, ValueError, BudgetError) as exc:  # ConfigurationError too
        values = ", ".join(f"{key} = {value}" for key, value in cfg.items())
        raise ConfigurationError(f"[{section}] {values}: "
                                 f"{rule}{str(exc).splitlines()[0]}") from None


@dataclass
class Scenario:
    """Declarative description of one experiment, checked on construction.

    The ``*_cfg`` dicts and ``rules`` hold the typed values of their file
    sections.  The constructor fills them, and the [scenario] fields left
    None, from ``_KIND_KEYS`` (a field the kind does not read stays None),
    checks every value but the step budget and builds the grid, curve and
    profile or potential once.  A tunnel is weighted (supercritical)
    exactly when gamma is set.
    """

    name: str
    kind: str = "rescaled"         # rescaled | ladder | tunnel
    expected: str = "unknown"
    p: float = 2.0
    alpha: float | None = None
    eps_list: tuple | None = None
    k_ladder: tuple | None = None
    horizon: float | None = None
    gamma: float | None = None
    curve_cfg: dict = dfield(default_factory=dict)
    potential_cfg: dict = dfield(default_factory=dict)
    grid_cfg: dict = dfield(default_factory=dict)
    rules: dict = dfield(default_factory=dict)

    def __post_init__(self):
        _fill(_COMMON, vars(self), "scenario")  # kind first: it picks a table
        head = _read(self.kind, "scenario", {
            key: getattr(self, attr) for key, attr in _HEAD.items()})
        for key, attr in _HEAD.items():
            setattr(self, attr, head.get(key))
        for section, attr in _FIELDS.items():
            setattr(self, attr, _read(self.kind, section, getattr(self, attr)))
        dt, horizon = self.grid_cfg["dt"], min(self._run_ends())
        _require(0 < dt < horizon, "grid", "dt", dt,
                 f"must be > 0 and below the run horizon {horizon:.12g}")
        curve, cfg = None, self.curve_cfg
        if cfg:  # a tunnel reads no curve; a table is read here
            key = "path" if cfg.get("form") == "table" else "velocity"
            curve = _built(self.build_curve, "curve", {key: cfg[key]}
                           if key == "path" else cfg,
                           "no curve table: " if key == "path" else "")
            width, count = (2, "1 or 2 components") \
                if self.kind == "rescaled" else (1, "1 component")
            _require(curve.dim <= width, "curve", key, cfg.get(key),
                     f"must have {count}, one per axis of the grid (in a "
                     "table, one x column each)")
        grid = _built(self.build_grid, "grid", self.grid_cfg)
        if self.kind == "tunnel":
            _built(lambda: solver.check_tunnel_axis(self.grid_cfg["length"]),
                   "grid", {"length": self.grid_cfg["length"]})
        # the datum starts at 4h**2, h set by n (by n_axis in a tunnel,
        # whose n_cross is 18 or more), and must start before the run ends
        key = "n_axis" if self.kind == "tunnel" else "n"
        start = solver.datum_start(grid, aligned=self.kind != "ladder")
        _require(start < horizon, "grid", key, self.grid_cfg[key],
                 f"the Dirac datum starts at t = {start:.6g} (4h**2), not "
                 f"before the run's end {horizon:.12g}")
        _built(lambda: self.build_potential(curve) if self.kind == "ladder"
               else self.build_profile(), "potential", self.potential_cfg)
        if self.gamma is not None:
            _built(lambda: potential_mod.check_weighted_tunnel(
                self.gamma, self.p, self.build_profile(), self.eps_list),
                "scenario", {"gamma": self.gamma})

    def check_step_budget(self):
        """The zoomed runs' step budget: checked where runs are due, not by
        the constructor, which builds an analytic sweep's combos too."""
        if self.kind == "rescaled":  # the last, smallest eps runs longest
            _built(lambda: solver.check_step_budget(
                self.eps_list[-1], self.alpha, self.grid_cfg["dt"]),
                "scenario", {"eps": self.eps_list})

    def _run_ends(self):
        """The end time of each evolution the scenario runs."""
        if self.kind == "rescaled":
            return [self.alpha / (e * e) for e in self.eps_list]
        return [self.horizon] * len(self.k_ladder) \
            if self.kind == "ladder" else [1.0]

    def build_curve(self):
        """The closed-form curve of the [curve] section (see ``_CURVES``)."""
        cfg = self.curve_cfg
        form = cfg.get("form", "linear")  # rescaled curves name no form
        if form == "linear":
            return geometry.Curve.straight(cfg["velocity"], cfg["horizon"],
                                           n=cfg["samples"])
        if form == "arc":
            speed, t_max = cfg["speed"], cfg["t_max"]
            return geometry.Curve.parametric(
                lambda s: speed * s, lambda s: 4.0 * t_max * s * (1.0 - s),
                cfg["horizon"], n=cfg["samples"])
        if form in ("boxed", "local-max"):
            return _knotted_curve(cfg)
        return geometry.Curve.from_table(cfg["path"])

    def build_profile(self):
        cfg = self.potential_cfg
        return potential_mod.DecayProfile(cfg["family"], cfg["amplitude"],
                                          cfg.get("exponent"))

    def build_potential(self, curve):
        cfg = self.potential_cfg
        return potential_mod.Potential(
            None if "floor" in cfg else self.build_profile(),
            cfg["distance"], curve=curve, floor=cfg.get("floor"))

    def build_grid(self):
        if self.kind == "rescaled":  # a ball of the curve's dimension
            return Grid.unit_ball(**self.grid_cfg,
                                  ndim=len(self.curve_cfg["velocity"]))
        return _GRIDS[self.kind](**self.grid_cfg)


def _knotted_curve(cfg):
    """Parametric curve on [0, 1] with t piecewise linear between knots:
    ``boxed`` re-enters the box after its t maximum; ``local-max`` has a
    local strict maximum of t followed by a climb past the box window (the
    conjectural configuration; shipped as exploratory)."""
    speed, t_max = cfg["speed"], cfg["t_max"]
    if cfg["form"] == "boxed":
        wobble = cfg["wobble"]
        knots = [0.0, 0.4, 0.6, 0.8, 1.0], [0.0, t_max, 0.12, 0.15, 0.1]

        def fx(s):
            if s <= 0.4:
                return speed * s
            return speed * 0.4 + wobble * math.sin(
                2.0 * math.pi * (s - 0.4) / 0.6)
    else:
        knots = [0.0, 0.4, 0.7, 1.0], [0.0, t_max, 0.1, 0.2]

        def fx(s):
            return speed * min(s, 0.4) + 0.3 * max(s - 0.4, 0.0)
    return geometry.Curve.parametric(
        fx, lambda s: float(np.interp(s, *knots)), 1.0, n=cfg["samples"])


# ----------------------------------------------------------------------
# scenario and sweep files: one key table
# ----------------------------------------------------------------------
def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# sweep axis -> the scenario section holding the key it replaces
_AXES = {"amplitude": "potential", "alpha": "scenario", "p": "scenario",
         "velocity": "curve"}


def _parsers(table):
    """The parser of each key of ``table`` and of its choices: ``str`` for
    a choice, ``_floats`` for a tuple default, the type that stands for no
    default, else the default's type."""
    out = {}
    for key, default in table.items():
        if isinstance(default, dict):  # a choice, then the keys of each
            for keys in default.values():
                out.update(_parsers(keys))
            default = str
        out[key] = _floats if isinstance(default, tuple) else \
            default if isinstance(default, type) else type(default)
    return out


# Every key a scenario or sweep file may hold, by section, with the parser
# of its text; the values land typed in Scenario, which checks them, and
# whose tabled sections take their parsers from _KIND_KEYS.
_KEYS = {
    "scenario": {"name": str, "kind": str, "expected": str, "p": float,
                 "alpha": float, "eps": _floats, "k_ladder": _floats,
                 "horizon": float, "gamma": float},
    **{section: {key: parse for keys in _KIND_KEYS.values()
                 for key, parse in _parsers(keys[section]).items()}
       for section in _FIELDS},
    "sweep": {"name": str, "base": str, "mode": str, "budget_combos": int,
              **dict.fromkeys(_AXES, _floats)},
}


def _read_ini(path, sections):
    """The parsed INI file, every section of ``sections`` present, and the
    typed values of their keys through ``_KEYS``.  A parse error (such as a
    duplicate key), a missing first section, or any other section or key
    is a ConfigurationError."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {str(exc).splitlines()[0]}") \
            from None
    if not read or sections[0] not in cp:
        raise ConfigurationError(
            f"cannot read a [{sections[0]}] section from {path}")
    for name in cp.sections():
        if name not in sections:
            raise ConfigurationError(f"{path}: [{name}]: unknown section")
    return cp, {name: {key: _value(path, cp[name], key)
                       for key in (cp[name] if name in cp else ())}
                for name in sections}


def _value(path, section, key):
    """The key's text in an INI section, parsed through ``_KEYS``."""
    parse = _KEYS[section.name].get(key)
    _check(parse is not None, path, section, key,
           "unknown rule" if section.name == "rules" else "unknown key")
    try:
        return parse(section[key])
    except ValueError:
        rule = {float: "not a number", int: "not an integer",
                _floats: "not a list of numbers"}[parse]
    _check(False, path, section, key, rule)


def _check(ok, path, section, key, rule):
    if not ok:
        raise ConfigurationError(f"{path}: [{section.name}] {key} = "
                                 f"{section.get(key, '(default)')}: {rule}")


def load_scenario(path):
    """Scenario from an INI file, each key parsed to its type and a curve
    table ``path`` resolved next to the file; an error of the file or of
    the :class:`Scenario` checks names the file, section and key."""
    _, cfg = _read_ini(path, ("scenario",) + tuple(_FIELDS))
    if "path" in cfg["curve"]:
        cfg["curve"]["path"] = str(Path(path).parent / cfg["curve"]["path"])
    head = {_HEAD.get(key, key): value
            for key, value in cfg["scenario"].items()}
    try:
        scenario = Scenario(**{"name": Path(path).stem, **head}, **{
            attr: cfg[name] for name, attr in _FIELDS.items()})
        scenario.check_step_budget()
        return scenario
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    scenario: str
    kind: str
    outcome: str
    expected: str
    evidence: dict
    wall_time: float = 0.0

    @property
    def matches(self):
        return self.expected in ("unknown", self.outcome)


def run_scenario(scenario, budget=None):
    """The verdict of a scenario: its driver's evidence, judged by decide."""
    start = time.perf_counter()
    scenario.check_step_budget()
    if budget is not None:
        _check_budget(scenario, budget)
    evidence = {"rescaled": _run_rescaled, "ladder": _run_ladder,
                "tunnel": _run_tunnel}[scenario.kind](scenario)
    return Verdict(scenario=scenario.name, kind=scenario.kind,
                   outcome=decide(scenario.kind, evidence, scenario.rules),
                   expected=scenario.expected, evidence=evidence,
                   wall_time=time.perf_counter() - start)


def decide(kind, evidence, rules):
    """The outcome that a scenario's ``rules`` give its ``evidence``: a
    verdict's, or a sweep-log record's, which lacks the None-valued keys.
    ``kind`` is the scenario's, or ``analytic`` for the point functional
    alone, an analytic sweep record's ``trace``.  Every rule lives here."""
    ev = evidence
    if kind == "analytic":
        return "propagation" if _diverging(ev["trace"], rules) \
            else "localization"
    if kind == "rescaled":
        amp = ev["log_amplified"]
        clean = _conformant(ev["conformance_margins"], rules)
        if clean and np.all(np.diff(amp) > 0.0) \
                and amp[-1] > math.log(rules["amplified_ceiling"]) \
                and _diverging(ev["functional_measured"], rules):
            return "propagation"
        return "localization" if clean and max(amp) <= math.log(
            rules["bounded_ceiling"]) else "inconclusive"
    if kind == "ladder":
        if ev["probe_maxima"][-2] == 0:  # no probe hit (see _window_max)
            return "inconclusive"
        if not ev["stabilization_gap"] <= rules["stabilization"]:
            return "propagation"
        if ev.get("box_center") is not None:
            return "box-bounded"
        return "non-propagation-segment" if "decreasing" in [
            label for _, _, label in ev["segments"]] else "localization"
    ok = ev["conformance_min"] >= -rules["tunnel_tol"] \
        and np.all(np.diff(ev["log_floor_center"]) > 0.0) \
        and all(1.0 - rules["halfwidth_band"] <= m / f <= 1.0 for m, f in zip(
            ev["delta_measured"], ev["delta_formula"])) \
        and ev["calibration_c"] > 0
    return "line-propagation" if ok else "inconclusive"


def _conformant(margins, rules):
    """Whether the zoomed runs stay above their lower envelope."""
    return all(m >= -rules["conformance_tol"] for m in margins)


def _diverging(values, rules):
    """Whether the last ``growth_window`` values of a blow-up functional,
    two or more, increase strictly, the last above ``functional_threshold``."""
    tail = np.asarray(values[-rules["growth_window"]:])
    return bool(tail.size >= 2 and np.all(np.diff(tail) > 0)
                and tail[-1] > rules["functional_threshold"])


# Measured verdict seconds per node-step, by scenario kind: the medians
# of ``solver.s_per_node_step.*`` over three runs of
# ``python3 perfbench/run.py --workload W --seed 1 --seconds 25 --trace 1``
# for W in zoom, ladder and tunnel-sweep (rescaled 3.09e-8, ladder 4.21e-7,
# tunnel 2.57e-8 on a shared 2-CPU x86-64 host, Python 3.11, numpy 2.4,
# scipy 1.17).  Ladder runs cost more per node: a time level of their
# 1D grid is a few hundred nodes, so per-step call overhead and the
# evaluation of h (a distance to every curve sample so far) dominate.
_SECONDS_PER_NODE_STEP = {"rescaled": 3.1e-8, "ladder": 4.2e-7,
                          "tunnel": 2.6e-8}


def _check_budget(scenario, budget_seconds):
    """Coarse step-count screen naming the limiting parameter."""
    grid = scenario.build_grid()
    nodes = float(np.prod(grid.shape))
    steps = sum(scenario._run_ends()) / grid.dt
    est = steps * nodes * _SECONDS_PER_NODE_STEP[scenario.kind]
    if est > budget_seconds:
        raise BudgetError(
            f"estimated {est:.0f}s exceeds budget {budget_seconds}s",
            limiting_parameter="eps" if scenario.kind == "rescaled" else "dt")


def _run_rescaled(scenario):
    """Evidence of the zoomed runs (see :func:`decide` for its rules)."""
    rules = scenario.rules
    curve = scenario.build_curve()
    profile = scenario.build_profile()
    grid = scenario.build_grid()
    psi0 = solver._ground_state_for(grid)
    per_eps = [solver.solve_rescaled(e, curve, scenario.p, scenario.alpha,
                                     grid, psi0=psi0)
               for e in scenario.eps_list]
    log_amp = [r.log_center_final + spectral.log_amplification(
        scenario.p, profile, e) for e, r in zip(scenario.eps_list, per_eps)]
    margins = [r.conformance_margin for r in per_eps]
    sigmas = [r.sigma_tau for r in per_eps]
    measured, analytic = (spectral.blowup_functional(
        "point", scenario.p, scenario.alpha, grid.ndim, psi0.lam, profile,
        scenario.eps_list, curve=curve, sigma=sigma).values.tolist()
        for sigma in (sigmas, 0.0))
    return {
        "eps": list(scenario.eps_list),
        "log_amplified": log_amp,
        "conformance_margins": margins,
        "conformance_ok": _conformant(margins, rules),
        "c1": [r.c1 for r in per_eps],
        "sigma_tau": sigmas,
        "beta_tau": [r.beta_tau for r in per_eps],
        "functional_measured": measured,
        "functional_verdict": _functional_verdict(measured, rules),
        "functional_analytic": analytic,
        "functional_analytic_verdict": _functional_verdict(analytic, rules),
        "lam0": psi0.lam,
    }


def _functional_verdict(values, rules):
    return "diverging" if _diverging(values, rules) else "bounded"


def ladder_runs(scenario, curve):
    """The runs u_k of the scenario's Dirac ladder, one per k, in order.

    The rungs step through the same time levels of the same h, so they
    share one cache of :func:`potential.grid_levels`, keyed by the exact
    float t and freed on return; each run equals an independent
    :func:`solver.solve_uk`, underflow count and divergence stop included.
    """
    grid = scenario.build_grid()
    levels = functools.cache(potential_mod.grid_levels(
        scenario.build_potential(curve), grid))
    return [solver.solve_uk(k, curve, levels, scenario.p, scenario.horizon,
                            grid, ceiling=scenario.rules["divergence_ceiling"])
            for k in scenario.k_ladder]


def _run_ladder(scenario):
    """Evidence of boundedness: the probe maxima of the ladder's rungs
    (see :func:`ladder_runs`) in the curve's box or decreasing window."""
    curve = scenario.build_curve()
    seg = geometry.classify_segments(curve)
    window = _probe_window(seg, scenario.rules["probe_margin"])
    maxima = [_window_max(run, window)
              for run in ladder_runs(scenario, curve)]
    m_lo, m_hi = maxima[-2], maxima[-1]
    gap = abs(m_hi - m_lo) / m_lo if m_lo > 0 else math.inf
    a, r0, tw = (None, None, None) if seg.box is None else seg.box
    return {
        "k_ladder": list(scenario.k_ladder),
        "probe_maxima": maxima,
        "stabilization_gap": gap,
        "segments": [list(map(str, iv)) for iv in seg.intervals],
        "box_center": None if a is None else np.atleast_1d(a).tolist(),
        "box_radius": r0,
        "box_window": None if tw is None else list(tw),
        "probe_window": list(window) if window else None,
    }


def _probe_window(seg, margin):
    """Parameter window probed for boundedness: the box interval or the
    last decreasing interval, entered past a fractional margin to stay
    clear of the junction with the singular branch."""
    spans = [(lo, hi) for lo, hi, label in seg.intervals
             if label in ("box", "decreasing")]
    if not spans:
        return None
    lo, hi = spans[-1]
    return (lo + margin * (hi - lo), hi)


def _window_max(run, window):
    if window is None:  # monotone curve: on-curve probes of the whole run
        return float(np.max(run.probes)) if run.log_probes.size else 0.0
    lo, hi = window
    vals = [v for (tau, t, v) in run.tau_probes if lo - 1e-12 <= tau <= hi + 1e-12]
    return float(max(vals)) if vals else 0.0


def _run_tunnel(scenario):
    """Evidence of the calibrated tunnel floor (see :func:`decide`)."""
    res = solver.tunnel_run(scenario.p, scenario.build_grid(),
                            gamma=scenario.gamma)
    return {
        "eps": list(scenario.eps_list),
        **solver.tunnel_floors(res, scenario.eps_list, scenario.p,
                               scenario.build_profile()),
        "conformance_min": res.conformance_min,
        "calibration_a": res.a,
        "calibration_c": res.c,
        "lam_cross": res.lam,
        "gamma": scenario.gamma,
    }


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# per-scenario trace table by kind: CSV header, then the evidence lists
# that fill its columns
_TRACE_COLUMNS = {
    "rescaled": ("eps,log_amplified,functional_measured,functional_analytic,"
                 "conformance_margin",
                 ("eps", "log_amplified", "functional_measured",
                  "functional_analytic", "conformance_margins")),
    "ladder": ("k,probe_max", ("k_ladder", "probe_maxima")),
    "tunnel": ("eps,log_floor_center,delta_formula,delta_measured",
               ("eps", "log_floor_center", "delta_formula", "delta_measured")),
}


def emit_report(verdicts, out_dir):
    """Write verdict tables, per-scenario traces, and a gnuplot script.

    Output bytes are a pure function of the verdicts: fixed orderings,
    fixed float formatting, wall times excluded.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "verdicts.csv"
    with open(path, "w") as fh:
        fh.write("scenario,kind,outcome,expected,match\n")
        for v in verdicts:
            fh.write(f"{v.scenario},{v.kind},{v.outcome},{v.expected},"
                     f"{_fmt(bool(v.matches))}\n")
    written = [path]
    for v in verdicts:
        tpath = out / f"{v.scenario}_trace.csv"
        header, keys = _TRACE_COLUMNS[v.kind]
        with open(tpath, "w") as fh:
            fh.write(header + "\n")
            for row in zip(*(v.evidence[key] for key in keys)):
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        written.append(tpath)
    path = out / "plots.gp"
    with open(path, "w") as fh:
        fh.write("# gnuplot script generated by heatlab\n")
        fh.write("set datafile separator ','\nset key autotitle columnhead\n")
        for v in verdicts:
            fh.write(f"set title '{v.scenario} ({v.outcome})'\n")
            fh.write("set logscale x\n" if v.kind == "ladder"
                     else "unset logscale\n")
            fh.write(f"plot '{v.scenario}_trace.csv' using 1:2 "
                     f"with linespoints\npause -1\n")
    written.append(path)
    return written


# ----------------------------------------------------------------------
# sweeps with an append-only resumable log
# ----------------------------------------------------------------------
def load_sweep(path):
    """Sweep spec from an INI file; its base scenario is loaded (and
    checked) with :func:`load_scenario`.  Each axis must name a key that
    the base reads, and each value build a scenario (a numerical one also
    keep alpha within the base curve's horizon, and steps in the budget);
    an analytic sweep needs a rescaled base or none (``_ANALYTIC_BASE``)."""
    cp, cfg = _read_ini(path, ("sweep",))
    sw, section = cfg["sweep"], cp["sweep"]
    mode = sw.get("mode", "analytic")
    _check(mode in ("analytic", "numerical"), path, section, "mode",
           "unknown sweep mode, not one of analytic, numerical")
    base = load_scenario(Path(path).parent / sw["base"]) \
        if sw.get("base") else None
    target = base or _ANALYTIC_BASE
    if mode == "analytic":
        _check(target.kind == "rescaled", path, section, "base",
               "an analytic sweep needs a rescaled base")
    else:
        _check(base is not None, path, section, "base",
               "a numerical sweep needs a base")
    axes = {key: sw[key] for key in _AXES if key in sw}
    read = {**vars(target), **target.curve_cfg, **target.potential_cfg}
    for key, values in axes.items():
        _check(read.get(key) is not None, path, section, key,  # None: unread
               f"not read by the {target.kind} base {target.name}")
        _check(values, path, section, key, "must be one or more numbers")
        for value in values:
            try:
                combo = _scenario_for(target, {key: value})
                if mode == "numerical":  # an analytic combo never steps
                    combo.check_step_budget()
            except ConfigurationError as exc:
                _check(False, path, section, key, str(exc))
    if "alpha" in axes and mode == "numerical":  # runs follow the curve
        horizon = base.curve_cfg["horizon"]
        _check(max(axes["alpha"]) <= horizon + 1e-12, path, section, "alpha",
               f"beyond the base curve's horizon {horizon:g}")
    return {"name": sw.get("name", Path(path).stem), "mode": mode,
            "base": base, "axes": axes,
            "budget_combos": sw.get("budget_combos", 512)}


def _combo_key(combo):
    return json.dumps(combo, sort_keys=True)


# the base of an analytic sweep without one: inverse-square amplitude 50,
# unit speed, p = 2, alpha = 1
_ANALYTIC_BASE = Scenario("analytic", potential_cfg={"amplitude": 50.0})


def _analytic_verdict(combo, base):
    """Analytic point-functional outcome of the base scenario (default:
    ``_ANALYTIC_BASE``) with the combo's values, and its record; lambda0
    is the unit ball's in the base's dimension."""
    sc = _scenario_for(base or _ANALYTIC_BASE, combo)
    n_dim = len(sc.curve_cfg["velocity"])
    record = {"trace": spectral.blowup_functional(
        "point", sc.p, sc.alpha, n_dim, spectral.BALL_LAMBDA[n_dim],
        sc.build_profile(), sc.eps_list,
        curve=sc.build_curve()).values.tolist()}
    return decide("analytic", record, sc.rules), record


def read_sweep_log(path):
    """The records of a sweep log, in file order."""
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read sweep log {path}: {exc}") \
            from None


def sweep(spec, log_path, workers=1):
    """Run the Cartesian product of the axes, appending one fsynced JSON
    line per verdict as soon as it is known; reruns skip combos already in
    the log, so a sweep stopped by a failing combo or an interrupt resumes
    where it stopped.  Each record carries the ``spec`` digest of its
    sweep, and a log holding a record of another spec is refused."""
    names = sorted(spec["axes"])
    combos = [dict(zip(names, values)) for values in
              itertools.product(*(spec["axes"][name] for name in names))]
    if len(combos) > spec["budget_combos"]:
        raise BudgetError(
            f"{len(combos)} combinations exceed budget {spec['budget_combos']}",
            limiting_parameter="axes")
    log_path = Path(log_path)
    # the spec: the mode and what of the base decides outcomes, all but
    # its labels, with a curve table's text in place of its path
    fields = asdict(spec["base"] or _ANALYTIC_BASE)
    del fields["name"], fields["expected"]
    curve = fields["curve_cfg"]
    if curve.get("form") == "table":
        curve["path"] = Path(curve["path"]).read_text()
    digest = hashlib.sha256(json.dumps([spec["mode"], fields], sort_keys=True)
                            .encode()).hexdigest()
    records = read_sweep_log(log_path) if log_path.exists() else []
    if any(rec.get("spec") != digest for rec in records):
        raise ConfigurationError(f"sweep log {log_path} holds a record of "
                                 "another spec (sweep mode or base scenario)")
    done = {_combo_key(rec["combo"]): rec for rec in records}
    todo = [c for c in combos if _combo_key(c) not in done]
    with open(log_path, "a") as fh:
        for rec in _sweep_records(spec, todo, workers):
            rec["spec"] = digest
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            done[_combo_key(rec["combo"])] = rec
    return [done[_combo_key(c)] for c in combos]


def _sweep_records(spec, todo, workers):
    """Log records of the combos in ``todo``, yielded in order as each
    verdict completes (a numerical combo is built where it runs)."""
    if spec["mode"] == "analytic":
        for combo in todo:
            outcome, record = _analytic_verdict(combo, spec["base"])
            yield {"combo": combo, "outcome": outcome, **record}
        return
    bases = itertools.repeat(spec["base"])
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_combo_record, bases, todo)
    else:
        yield from map(_combo_record, bases, todo)


def _combo_record(base, combo):
    v = run_scenario(_scenario_for(base, combo))
    return {"combo": combo, "outcome": v.outcome,
            "evidence": {k: val for k, val in v.evidence.items()
                         if isinstance(val, (int, float, str, bool, list))}}


def _scenario_for(base, combo):
    """The base scenario with the combo's values: ``amplitude``, ``alpha``
    and ``p`` replace the base's, and ``velocity`` rescales the base's
    linear curve to that speed along the same direction."""
    curve_cfg = dict(base.curve_cfg)
    if "velocity" in combo:
        u = np.asarray(base.curve_cfg.get("velocity", ()))
        _require(u.any(), "curve", "velocity", base.curve_cfg.get("velocity"),
                 "the base curve has no direction to keep")
        curve_cfg["velocity"] = tuple(
            (combo["velocity"] / np.linalg.norm(u) * u).tolist())
    return replace(
        base, expected="unknown", curve_cfg=curve_cfg,
        potential_cfg={**base.potential_cfg, **{
            k: v for k, v in combo.items() if _AXES[k] == "potential"}},
        name=base.name + "/" + "/".join(f"{k}={v:g}"
                                        for k, v in sorted(combo.items())),
        **{k: v for k, v in combo.items() if _AXES[k] == "scenario"})


def write_sweep_summary(records, out_path):
    """Phase-diagram table: one row per combo, fixed ordering."""
    keys = sorted({k for rec in records for k in rec["combo"]})
    with open(out_path, "w") as fh:
        fh.write(",".join(keys + ["outcome"]) + "\n")
        for rec in sorted(records, key=lambda r: _combo_key(r["combo"])):
            row = [_fmt(rec["combo"].get(k, "")) for k in keys]
            fh.write(",".join(row + [rec["outcome"]]) + "\n")
