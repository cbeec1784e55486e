"""The absorption coefficient h = exp(-l(distance)) and its weighted split.

Run:  python demos/02_absorption_profiles.py
"""

import numpy as np

from heatlab import potential
from heatlab.geometry import Curve
from heatlab.potential import DecayProfile, Potential

curve = Curve.straight(1.0, 1.0, n=513)
rs = np.array([0.05, 0.1, 0.2, 0.5, 1.0])

print("profile values l(r):")
for prof in (DecayProfile("inverse-square", 50.0),
             DecayProfile("power", 5.0, exponent=1.0),
             DecayProfile("log", 2.0)):
    vals = potential.eval_profile(prof, rs)
    print(f"  {prof.family:15s}", " ".join(f"{v:10.3g}" for v in vals))

# The flat family keeps r^2 l(r) constant: the hypothesis behind propagation.
prof = DecayProfile("inverse-square", 50.0)
print("\nr^2 l(r) for the flat family:", set(np.round(rs**2 * potential.eval_profile(prof, rs), 9)))

# h vanishes exactly on the curve and grows with distance.
pot = Potential(prof, "parabolic", curve=curve)
print("\nh along a ray leaving the curve at t = 0.5:")
xs = np.array([[0.5], [0.7], [1.0], [1.5], [3.0]])
for x, h in zip(xs[:, 0], pot.evaluate_grid(xs, 0.5)[0]):
    print(f"  x={x}: h = {h:.3e}")

# Weighted split for the line-degeneracy case: the weight s**gamma times
# exp(-l~(s)), l~ the shifted profile, reassembles h = exp(-l(s)); the
# supercritical gate rejects small exponents.
line_prof, s = DecayProfile("inverse-square", 8.0), 0.3
w, e = s ** 2.5, np.exp(-potential.shifted_profile(line_prof, 2.5, s))
print(f"\nsplit: weight={w:.4e}, exp={e:.4e}, product={w * e:.4e}, "
      f"h={np.exp(-line_prof(s)):.4e}")
try:
    potential.check_weight_gate(1.0, 3.0, n_dim=2)
except Exception as exc:
    print("gate:", exc)
