"""Ground states, the drift-shift identity, and the blow-up functionals.

Run:  python demos/04_spectra_and_envelopes.py
"""

import math

import numpy as np

from heatlab import harness, spectral
from heatlab.potential import DecayProfile

# Interval and two-dimensional ball ground states vs their classic values.
interval = spectral.dirichlet_ground_state("interval", 256)
ball = spectral.dirichlet_ground_state("ball", 512)
print(f"interval lambda0 = {interval.lam:.8f}  (pi^2/4 = {math.pi**2/4:.8f})")
print(f"ball     lambda0 = {ball.lam:.8f}  (first Bessel zero^2 = 5.78318596)")

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
    values = spectral.blowup_functional(2.0, 1.0, interval.lam, prof,
                                        [0.2, 0.1, 0.05], beta_sup=1.0)
    outcome = harness.decide("analytic", {"trace": values.tolist()}, rules)
    print(f"  {tag}: values {np.round(values, 1)} -> {outcome}")

# The zoom-depth threshold alpha0 = L / ((p-1) * rate) at zero drift, with
# L = liminf r^2 l(r) the flatness limit: A for the inverse-square family
# (and the power 2), 0 for the log family and powers below 2, inf above.
prof = DecayProfile("inverse-square", 30.0)
alpha0 = prof.amplitude / ((2.0 - 1.0) * interval.lam)
print(f"\nzoom-depth threshold alpha0 = {alpha0:.3f} "
      "(the point functional diverges for alpha below it)")
