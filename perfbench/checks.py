"""Correctness checks behind ``correct``, ``attempted`` and ``failed``.

A verdict counts as failed when it raised, when its outcome differs from
the scenario's ``expected`` (``unknown`` expects nothing), or when its
outcome or evidence differs from the reference recorded in
``reference.json``.  Numbers must agree to a relative difference of at most
``REL_TOL``, or differ by less than ``ABS_TOL`` (rounding noise around zero,
such as the conformance margins); strings, booleans and ``None`` must be
equal.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Item:
    """One verdict attempted in a pass."""

    name: str                 # scenario name, or the combo key of a sweep
    kind: str
    outcome: str | None       # None when the verdict raised
    evidence: dict | None
    expected: str = "unknown"
    error: str | None = None
    wall_s: float = 0.0
    node_steps: int = 0
    problems: list = field(default_factory=list)  # pass-level failures


def load_reference(path=REFERENCE):
    """Verdict name -> {"outcome", "evidence"} recorded by
    record_reference.py."""
    with open(path) as fh:
        return json.load(fh)["verdicts"]


def combo_key(combo):
    return ",".join(f"{k}={combo[k]!r}" for k in sorted(combo))


def close(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Closeness as in math.isclose; non-finite values must be identical."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel_tol * max(abs(a), abs(b)), abs_tol)


def compare(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL, path="evidence"):
    """Differences between two JSON-like values, as readable strings."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref and type(got) is type(ref) else \
            [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        return [] if close(float(got), float(ref), rel_tol, abs_tol) else \
            [f"{path}: {got!r} vs reference {ref!r}"]
    if isinstance(ref, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(ref):
            return [f"{path}: {got!r} vs reference {ref!r}"]
        diffs = []
        for i, (g, r) in enumerate(zip(got, ref)):
            diffs += compare(g, r, rel_tol, abs_tol, f"{path}[{i}]")
        return diffs
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" vs reference {sorted(ref)}"]
        diffs = []
        for key in ref:
            diffs += compare(got[key], ref[key], rel_tol, abs_tol,
                             f"{path}.{key}")
        return diffs
    raise TypeError(f"{path}: unsupported reference value {ref!r}")


def plain(value):
    """Evidence as JSON would carry it: tuples as lists, numpy scalars as
    Python numbers."""
    return json.loads(json.dumps(value, default=lambda v: v.item()))


def check_item(item, reference):
    """Reasons the verdict fails, empty when it passes."""
    if item.error is not None:
        return [f"raised {item.error}"]
    reasons = list(item.problems)
    if item.expected != "unknown" and item.outcome != item.expected:
        reasons.append(f"outcome {item.outcome} != expected {item.expected}")
    ref = reference.get(item.name)
    if ref is None:
        return reasons + ["no reference recorded"]
    if item.outcome != ref["outcome"]:
        reasons.append(f"outcome {item.outcome} != reference {ref['outcome']}")
    return reasons + compare(plain(item.evidence), ref["evidence"])


def digest_files(paths):
    """File name -> sha256 of the bytes, for report identity across passes."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


class Tally:
    """Verdicts attempted and failed over a run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, name, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {'; '.join(reasons)}")
