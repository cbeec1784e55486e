"""Phase diagram of propagation vs localization in (amplitude, zoom depth).

Sweeps the analytic blow-up functional over a grid of flat-profile
amplitudes A and zoom depths alpha; the verdict boundary sits near
A = (p - 1) * rate * alpha.  The sweep log is append-only: the demo starts
it afresh, then sweeps again over the full log, which skips every
completed combination and hands back the same records.

Run:  python demos/07_phase_sweep.py
Writes demos/output/{phase.jsonl, phase_summary.csv}.
"""

from pathlib import Path

from heatlab import harness

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

spec = {
    "name": "phase",
    "mode": "analytic",
    "base": None,
    "axes": {"amplitude": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
             "alpha": (0.5, 1.0, 2.0, 4.0)},
}
log = out / "phase.jsonl"
log.unlink(missing_ok=True)  # a log of an older spec would be refused
records = harness.sweep(spec, log)
resumed = harness.sweep(spec, log)  # computes nothing: every combo is done
if resumed != records or len(log.read_text().splitlines()) != len(records):
    raise SystemExit("the resumed sweep did not hand back the logged records")
harness.write_sweep_summary(records, out / "phase_summary.csv")

grid = {}
for rec in records:
    grid.setdefault(rec["combo"]["alpha"], []).append(
        (rec["combo"]["amplitude"], rec["outcome"]))
print("alpha \\ A:", *(f"{a:6g}" for a in spec["axes"]["amplitude"]))
for alpha in spec["axes"]["alpha"]:
    rows = sorted(grid[alpha])
    marks = ["P" if out_ == "propagation" else "." for _, out_ in rows]
    print(f"{alpha:9g}", *(f"{m:>6s}" for m in marks))
print("wrote", log.name, "and phase_summary.csv (P = propagation); the",
      "resumed sweep read all", len(resumed), "records back from the log")
