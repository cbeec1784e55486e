"""The headline experiment: zoomed runs along a straight curve.

The rescaled field on the unit ball is evolved to time alpha/eps^2; the
amplified center value either grows without bound across the zoom sequence
(flat potential: the singularity rides the curve) or stays bounded (weak
potential: it dies at the origin).

Run:  python demos/05_propagation_vs_localization.py
Writes demos/output/{verdicts.csv, propagation-*.csv, plots.gp}.  Takes ~10 s with
the shortened zoom sequence used here.
"""

from dataclasses import replace
from pathlib import Path

from heatlab import harness

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
scenarios = Path(__file__).resolve().parent.parent / "scenarios"

verdicts = []
for name in ("propagation-straight", "localization-weak"):
    # demo-size zoom; acceptance runs 0.05 too
    sc = replace(harness.load_scenario(scenarios / f"{name}.ini"),
                 eps_list=(0.2, 0.1))
    v = harness.run_scenario(sc)
    verdicts.append(v)
    print(f"{name}: {v.outcome} ({v.wall_time:.1f}s)")
    for e, amp, margin in zip(v.evidence["eps"], v.evidence["log_amplified"],
                              v.evidence["conformance_margins"]):
        print(f"  eps={e}: log amplified value = {amp:9.1f}, "
              f"envelope margin = {margin:.2e}")

files = harness.emit_report(verdicts, out)
print("wrote", *[f.name for f in files])
