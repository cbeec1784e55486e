"""Blow-up spreading along a line in the initial plane.

The rescaled tunnel problem is zoom-independent: one run is calibrated
against the explicit subsolution, then each zoom level reads off its
amplified floor and the half-width of the blow-up interval, which tracks
sqrt(2 eps^2 l(eps) / (q - 1)).

Run:  python demos/06_line_blowup_tunnel.py
"""

from heatlab import solver
from heatlab.grids import Grid
from heatlab.potential import DecayProfile

profile = DecayProfile("inverse-square", 8.0)
grid = Grid.tunnel(10.0, 201, 41, 5e-4)

res = solver.tunnel_run([0.2, 0.1], 2.0, profile, grid)
print(f"calibration: shift a = {res.a}, constant c = {res.c:.4g}")
print(f"subsolution conformance min = {res.conformance_min:.2e} (>= -1e-8)")
for pe in res.per_eps:
    print(f"  eps={pe['eps']}: half-width {pe['delta_measured']:.3f} "
          f"(formula {pe['delta_formula']:.3f}), "
          f"log floor at the axis {pe['log_floor_center']:.1f}")

print("\nweighted (supercritical) variant, gamma = 2.5 > N(p-1)-2:")
res2 = solver.tunnel_run([0.2, 0.1], 3.0, profile, grid, gamma=2.5)
for pe in res2.per_eps:
    print(f"  eps={pe['eps']}: log floor {pe['log_floor_center']:.1f}, "
          f"half-width {pe['delta_measured']:.3f}")
