"""Tour of degeneracy curves and the parabolic distance built on them.

Run:  python demos/01_distances_and_curves.py
"""

import numpy as np

from heatlab import geometry
from heatlab.geometry import Curve

# A straight space-time curve x(t) = t issued from the origin.
curve = Curve.straight(1.0, 1.0, n=513)
print("straight curve:", curve.n_samples, "samples, horizon", curve.horizon)

# Parabolic distance: |x - y| + sqrt(t - s) over earlier curve points.
for point in [(0.5, 0.5), (2.0, 1.0), (0.0, 0.25)]:
    d = geometry.parabolic_distance(point, curve)
    print(f"  d_P({point}) = {d:.6f}")

# The distance is 1-Lipschitz in x: sliding the query point moves it slowly.
xs = np.linspace(-1.0, 3.0, 9)
row = ", ".join(f"{geometry.parabolic_distance((x, 1.0), curve):.3f}" for x in xs)
print("  d_P(x, 1) along x:", row)

# Monotonicity classification: an arc rises then falls; a re-entering curve
# triggers the box witness (center, radius, time window).
arc = Curve.parametric(lambda s: 1.6 * s, lambda s: s * (1 - s), 1.0, n=513)
print("\narc segments:", geometry.classify_segments(arc).intervals)

tau_k, t_k = [0.0, 0.4, 0.6, 0.8, 1.0], [0.0, 0.25, 0.12, 0.15, 0.1]
boxed = Curve.parametric(
    lambda s: 2.0 * min(s, 0.4) + 0.1 * np.sin(2 * np.pi * max(s - 0.4, 0) / 0.6),
    lambda s: float(np.interp(s, tau_k, t_k)), 1.0, n=513)
seg = geometry.classify_segments(boxed)
print("boxed segments:", seg.labels)
a, r0, window = seg.box
print(f"box witness: center={a}, radius={r0:.3f}, window={window}")
