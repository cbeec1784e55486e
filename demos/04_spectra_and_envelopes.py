"""Ground states, the drift-shift identity, and the blow-up functionals.

Run:  python demos/04_spectra_and_envelopes.py
Writes demos/output/eigen_interval.txt and demos/output/trace_*.csv.
"""

import math
from pathlib import Path

import numpy as np

from heatlab import harness, spectral
from heatlab.potential import DecayProfile

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# Interval and two-dimensional ball ground states vs their classic values.
interval = spectral.dirichlet_ground_state("interval", 256)
ball = spectral.dirichlet_ground_state("ball", 512)
print(f"interval lambda0 = {interval.lam:.8f}  (pi^2/4 = {math.pi**2/4:.8f})")
print(f"ball     lambda0 = {ball.lam:.8f}  (first Bessel zero^2 = 5.78318596)")
spectral.write_eigen_table(interval, out / "eigen_interval.txt")

# Constant drift shifts the spectrum by |beta|^2/4 and tilts the mode.
for b in (0.0, 1.0, 2.0):
    d = spectral.drift_shift(b, interval)
    print(f"  beta={b}: lambda = {d.lam:.6f} (shift {d.lam - interval.lam:.4f})")

# Decay envelopes for the linear flow on the unit ball.
print("\nenvelope ceilings (||v0||_2 = 1):")
for t in (0.05, 0.1, 0.5, 1.0, 2.0):
    l2, linf = spectral.decay_envelope(1.0, interval.lam, t, 1)
    print(f"  t={t}: L2 <= {l2:.4f}, sup <= {linf:.4f}")
print("crossover constant:", spectral.crossover_constant(1, interval.lam))

# Blow-up functionals: the flat profile drives the trace to +infinity,
# the log profile sends it to -infinity — the dichotomy in one line each,
# judged by the default rules of a rescaled scenario (threshold 50, the
# last three values).
rules = harness.Scenario("demo").rules
for fam, amp, tag in (("inverse-square", 50.0, "flat"), ("log", 1.0, "weak")):
    prof = DecayProfile(fam, amp)
    tr = spectral.blowup_functional("point", 2.0, 1.0, 1, interval.lam, prof,
                                    [0.2, 0.1, 0.05], beta_sup=1.0)
    spectral.write_trace(tr, out / f"trace_{tag}.csv")
    outcome = harness.decide("analytic", {"trace": tr.values.tolist()}, rules)
    print(f"  {tag}: values {np.round(tr.values, 1)} -> {outcome}")

prof = DecayProfile("inverse-square", 30.0)
alpha0 = spectral.propagation_alpha_threshold(prof, 2.0, interval.lam)
print(f"\nzoom-depth threshold alpha0 = {alpha0:.3f} "
      "(the point functional diverges for alpha below it)")
