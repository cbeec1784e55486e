"""Scenario runner reproducing the propagation/localization phenomenology.

A scenario file (INI-style ``key = value`` sections) declares a curve, a
potential, a grid, the decision rules, and an expected verdict; running it
produces a :class:`Verdict` whose outcome is derived from the recorded
evidence by those rules alone.  Sweeps run grids of scenarios, at most
``_MAX_COMBOS`` combinations each, with an append-only, resumable log.
Nothing predicts a run's wall time; the two limits on what may be
computed, the zoomed runs' step budget and a sweep's combination count,
are checked before any step and fail as a ConfigurationError.

All decision constants live in the scenario files (section ``[rules]``);
the defaults of ``_KIND_KEYS`` only back missing keys.
"""

import configparser
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
from .errors import ConfigurationError
from .grids import Grid

KINDS = ("rescaled", "ladder", "tunnel")
OUTCOMES = ("propagation", "localization", "non-propagation-segment",
            "box-bounded", "line-propagation", "inconclusive", "unknown")

_DT = 0.002  # the time step of a [grid] section without one
_EPS = (0.2, 0.1, 0.05)  # the zoom levels of a scenario without eps

# The keys each scenario reads, by kind and section, with their defaults:
# a key maps to its default, or, for a choice, to the keys each choice adds
# (the first choice is the default); a type marks a key without a default.
# A rescaled curve is linear, read for its velocity, whose width fixes the
# ball's dimension, and horizon alone; a ladder curve is one-dimensional
# (a line in the initial plane is a tunnel's case); the kind fixes the grid.
_LINE = {"velocity": (1.0,), "horizon": 1.0}
_CURVES = {"linear": {**_LINE, "samples": 513},
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
                 "curve": _LINE,
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
           "velocity": ("must be one or more finite numbers",
                        lambda v: len(v) > 0 and np.all(np.isfinite(v))),
           # the segment classification needs three or more samples
           "samples": ("must be at least 3", lambda v: v >= 3),
           # the cross-section ground state needs 16 interior nodes
           "n_cross": ("must be at least 18", lambda v: v >= 18),
           # the functional reads the tail of two or more values
           "growth_window": ("must be at least 2", lambda v: v >= 2),
           # each ceiling goes through math.log; a tolerance or the
           # stabilization below 0 would fail even exact evidence
           **dict.fromkeys(
               ("divergence_ceiling", "amplified_ceiling", "bounded_ceiling"),
               ("must be > 0", lambda v: v > 0)),
           **dict.fromkeys(("stabilization", "conformance_tol", "tunnel_tol"),
                           ("must be >= 0", lambda v: v >= 0)),
           # an infinite amplitude makes the log profile inf * ln(1) = nan
           "amplitude": ("must be finite", math.isfinite)}


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
    except (OSError, ValueError) as exc:  # ConfigurationError too
        values = ", ".join(f"{key} = {value}" for key, value in cfg.items())
        raise ConfigurationError(f"[{section}] {values}: "
                                 f"{rule}{str(exc).splitlines()[0]}") from None


@dataclass
class Scenario:
    """Declarative description of one experiment, checked on construction.

    The ``*_cfg`` dicts and ``rules`` hold the typed values of their file
    sections.  The constructor fills them, and the [scenario] fields left
    None, from ``_KIND_KEYS`` (a field the kind does not read stays None),
    checks every value but those of :meth:`check_runs` and builds the
    grid, and a ladder's curve and potential or the profile, once.  A
    tunnel is weighted (supercritical) exactly when gamma is set.
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
        dt, horizon = self.grid_cfg["dt"], self._run_end()
        _require(0 < dt < horizon, "grid", "dt", dt,
                 f"must be > 0 and below the run horizon {horizon:.12g}")
        curve, cfg = None, self.curve_cfg
        if self.kind == "rescaled":
            _require(len(cfg["velocity"]) <= 2, "curve", "velocity",
                     cfg["velocity"], "must have 1 or 2 components, one per "
                     "axis of the grid")
        elif self.kind == "ladder":  # a table is read here
            key = "path" if cfg["form"] == "table" else "velocity"
            curve = _built(self.build_curve, "curve", {key: cfg[key]}
                           if key == "path" else cfg,
                           "no curve table: " if key == "path" else "")
            _require(curve.dim <= 1, "curve", key, cfg.get(key),
                     "must have 1 component, one per axis of the grid (in a "
                     "table, one x column)")
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
        if self.kind != "ladder":
            # the verdict reads l at each eps, a weighted tunnel's bound on
            # [min(eps)/8, max(eps)]; l is nonincreasing, so it is largest
            # at the smallest of these radii
            r = min(self.eps_list) / (1.0 if self.gamma is None else 8.0)
            with np.errstate(over="ignore", divide="ignore"):
                l_max = potential_mod.eval_profile(self.build_profile(), r)
            _require(math.isfinite(l_max), "potential", "amplitude",
                     self.potential_cfg["amplitude"],
                     f"must keep the profile finite down to r = {r:.6g}, "
                     "the smallest radius the verdict reads")
        if self.gamma is not None:
            _built(lambda: potential_mod.check_weighted_tunnel(
                self.gamma, self.p, self.build_profile(), self.eps_list),
                "scenario", {"gamma": self.gamma})

    def check_runs(self):
        """What the zoomed runs need, checked where runs are due, not by the
        constructor, which builds an analytic sweep's combos too: the step
        budget, alpha within the curve's horizon, and at the largest eps a
        feedback lift within double range and the drift's CFL limit."""
        if self.kind != "rescaled":
            return
        dt, cfg = self.grid_cfg["dt"], self.curve_cfg
        # the last, smallest eps runs longest; the first drifts fastest
        _built(lambda: solver.check_step_budget(
            self.eps_list[-1], self.alpha, dt),
            "scenario", {"eps": self.eps_list})
        _require(self.alpha <= cfg["horizon"] + 1e-12, "scenario", "alpha",
                 self.alpha, "must not lie beyond the curve's horizon "
                 f"{cfg['horizon']:g}")
        # the feedback lift exp(0.5 (p - 1) eps |velocity|) of solve_rescaled
        lift = 0.5 * (self.p - 1.0) * max(self.eps_list) \
            * float(np.linalg.norm(cfg["velocity"]))
        _require(lift <= 700.0, "scenario", "p", self.p,
                 f"the feedback lift exp({lift:.3g}) at the largest eps "
                 "exceeds exp(700)")
        _built(lambda: solver.drift_cfl(
            dt, self.eps_list[0] * np.asarray(cfg["velocity"]),
            self.build_grid().spacing), "curve", {"velocity": cfg["velocity"]})

    def _run_end(self):
        """The end time of the shortest evolution the scenario runs: at
        the largest eps of a zoom."""
        if self.kind == "rescaled":
            return min(self.alpha / (e * e) for e in self.eps_list)
        return self.horizon if self.kind == "ladder" else 1.0

    def build_curve(self):
        """The closed-form curve of the [curve] section (see ``_CURVES``);
        a rescaled curve, whose runs read only its velocity, at
        ``Curve.straight``'s default sample count."""
        cfg = self.curve_cfg
        form = cfg.get("form", "linear")  # rescaled curves name no form
        if form == "linear":
            return geometry.Curve.straight(
                cfg["velocity"], cfg["horizon"],
                **({"n": cfg["samples"]} if "samples" in cfg else {}))
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
    "sweep": {"name": str, "base": str, "mode": str,
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
        scenario.check_runs()
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


def run_scenario(scenario):
    """The verdict of a scenario: its driver's evidence, judged by decide."""
    start = time.perf_counter()
    scenario.check_runs()
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
        if ev["probe_maxima"][-2] == 0:  # no probe hit (see _curve_probe)
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


def _run_rescaled(scenario):
    """Evidence of the zoomed runs (see :func:`decide` for its rules)."""
    rules = scenario.rules
    velocity = scenario.curve_cfg["velocity"]
    profile = scenario.build_profile()
    grid = scenario.build_grid()
    psi0 = solver._ground_state_for(grid)
    per_eps = [solver.solve_rescaled(e, velocity, scenario.p, scenario.alpha,
                                     grid, psi0=psi0)
               for e in scenario.eps_list]
    log_amp = [r.log_center_final + spectral.log_amplification(
        scenario.p, profile, e) for e, r in zip(scenario.eps_list, per_eps)]
    margins = [r.conformance_margin for r in per_eps]
    sigmas = [r.sigma_tau for r in per_eps]
    measured, analytic = (spectral.blowup_functional(
        scenario.p, scenario.alpha, psi0.lam, profile, scenario.eps_list,
        beta_sup=float(np.linalg.norm(velocity)), sigma=sigma).tolist()
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


def ladder_runs(scenario, curve, window):
    """The runs u_k of the scenario's Dirac ladder, one per k, in order,
    each observed by :func:`_curve_probe` on the curve and ``window``.

    The rungs step through the same time levels of the same h as the
    columns of one :func:`solver.solve_uk` batch, so each level is
    evaluated once for all of them; each run equals the run of its rung
    alone, underflow count and divergence stop included.
    """
    grid = scenario.build_grid()
    return solver.solve_uk(
        scenario.k_ladder,
        potential_mod.grid_levels(scenario.build_potential(curve), grid),
        scenario.p, scenario.horizon, grid,
        ceiling=scenario.rules["divergence_ceiling"],
        observe=_curve_probe(curve, grid, window, scenario.horizon))


def _curve_probe(curve, grid, window, horizon):
    """The batch observer (times, fn) of the ladder that
    :func:`solver.solve_uk` runs to ``horizon``: at each step t, fn gives
    for each column the largest value of its solution on the curve whose
    tau lies in ``window`` (1e-12 slack; every tau without one), or 0
    without any.  A graph curve is probed at x(min(t, horizon)) with tau =
    t, a parametric one at each sample whose t lies within dt/2 of the
    step, by linear interpolation on the grid."""
    lo, hi = window or (-math.inf, math.inf)
    axis, half = grid.axes[0], grid.dt / 2.0

    def probe(t, values, log_scale):
        if curve.kind == geometry.GRAPH:
            hits = [(t, curve.position_at_time(min(t, curve.horizon))[0])]
        else:
            hits = [(curve.tau[j], curve.x[j, 0])
                    for j in np.flatnonzero(np.abs(curve.t - t) <= half)]
        scale = np.array([math.exp(-s) for s in log_scale.tolist()])
        found = [_interp_columns(x, axis, values) * scale
                 for tau, x in hits if lo - 1e-12 <= tau <= hi + 1e-12]
        return (np.max(found, axis=0) if found
                else np.zeros(values.shape[1])).tolist()

    # the step times of solver.evolve from solve_uk's datum
    return solver.step_times(solver.datum_start(grid, aligned=False),
                             horizon, grid.dt), probe


def _interp_columns(x, axis, values):
    """``np.interp(x, axis, values[:, j])`` for every column j at once, by
    the same arithmetic, so bitwise the same: the value at a node or past
    either end, else slope * (x - axis[j]) + values[j] on the cell
    axis[j] <= x < axis[j + 1]."""
    j = int(np.searchsorted(axis, x, side="right")) - 1
    if j < 0:
        return values[0]
    if j == axis.size - 1 or axis[j] == x:
        return values[j]
    slope = (values[j + 1] - values[j]) / (axis[j + 1] - axis[j])
    return slope * (x - axis[j]) + values[j]


def _run_ladder(scenario):
    """Evidence of boundedness: the probe maxima of the ladder's rungs
    (see :func:`ladder_runs`) in the curve's box or decreasing window."""
    curve = scenario.build_curve()
    seg = geometry.classify_segments(curve)
    window = _probe_window(seg, scenario.rules["probe_margin"])
    maxima = [max(run.observed, default=0.0)
              for run in ladder_runs(scenario, curve, window)]
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
_MAX_COMBOS = 512  # the most combinations one sweep runs


def load_sweep(path):
    """Sweep spec from an INI file; its base scenario is loaded (and
    checked) with :func:`load_scenario`.  Each axis must name a key that
    the base reads, and each value build a scenario (a numerical one also
    pass :meth:`Scenario.check_runs`);
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
        _check(len(set(values)) == len(values), path, section, key,
               "must not repeat a value")
        for value in values:
            try:
                combo = _scenario_for(target, {key: value})
                if mode == "numerical":  # an analytic combo never steps
                    combo.check_runs()
            except ConfigurationError as exc:
                _check(False, path, section, key, str(exc))
    return {"name": sw.get("name", Path(path).stem), "mode": mode,
            "base": base, "axes": axes}


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
    velocity = sc.curve_cfg["velocity"]
    n_dim = len(velocity)
    record = {"trace": spectral.blowup_functional(
        sc.p, sc.alpha, spectral.BALL_LAMBDA[n_dim], sc.build_profile(),
        sc.eps_list, beta_sup=float(np.linalg.norm(velocity))).tolist()}
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
    if len(combos) > _MAX_COMBOS:
        raise ConfigurationError(f"the sweep's {len(combos)} combinations "
                                 f"exceed the limit of {_MAX_COMBOS}")
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
