"""Record the evidence the benchmark checks verdicts against.

Runs every scenario of the three workloads and every combo of the tunnel
sweep lattice with the checkout's heatlab and writes ``reference.json``.
Record again only when a change is meant to alter verdict evidence:

    python3 perfbench/record_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heatlab import harness  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def record():
    verdicts = {}
    for wl in workloads.WORKLOADS.values():
        for name in wl.scenario_names:
            sc = harness.load_scenario(ROOT / "scenarios" / f"{name}.ini")
            v = harness.run_scenario(sc)
            verdicts[name] = {"outcome": v.outcome,
                              "evidence": checks.plain(v.evidence)}
    spec = {"name": "lattice", "mode": "numerical", "budget_combos": 512,
            "base": harness.load_scenario(
                ROOT / "scenarios" / f"{workloads.SWEEP_BASE}.ini"),
            "axes": {"amplitude": workloads.AMPLITUDES,
                     "p": workloads.P_VALUES}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for rec in harness.sweep(spec, Path(tmp) / "lattice.jsonl"):
            key = f"{workloads.SWEEP_BASE}/{checks.combo_key(rec['combo'])}"
            verdicts[key] = {"outcome": rec["outcome"],
                             "evidence": checks.plain(rec["evidence"])}
    return {"rel_tol": checks.REL_TOL, "abs_tol": checks.ABS_TOL,
            "verdicts": verdicts}


if __name__ == "__main__":
    with open(checks.REFERENCE, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
