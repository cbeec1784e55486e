"""Blow-up spreading along a line in the initial plane.

The rescaled tunnel problem is zoom-independent and never reads the decay
profile: one run is calibrated against the explicit subsolution, then each
zoom level of each profile reads off its amplified floor and the half-width
of the blow-up interval, which tracks sqrt(2 eps^2 l(eps) / (q - 1)).

Run:  python demos/06_line_blowup_tunnel.py
"""

from heatlab import solver
from heatlab.grids import Grid
from heatlab.potential import DecayProfile

profile = DecayProfile("inverse-square", 8.0)
grid = Grid.tunnel(10.0, 201, 41, 5e-4)

eps = (0.2, 0.1)

res = solver.tunnel_run(2.0, grid)
print(f"calibration: shift a = {res.a}, constant c = {res.c:.4g}")
print(f"subsolution conformance min = {res.conformance_min:.2e} (>= -1e-8)")
for amplitude in (8.0, 16.0):  # one run serves both profiles
    floors = solver.tunnel_floors(
        res, eps, 2.0, DecayProfile("inverse-square", amplitude))
    for i, e in enumerate(eps):
        print(f"  A={amplitude:g} eps={e}: half-width "
              f"{floors['delta_measured'][i]:.3f} (formula "
              f"{floors['delta_formula'][i]:.3f}), log floor at the axis "
              f"{floors['log_floor_center'][i]:.1f}")

print("\nweighted (supercritical) variant, gamma = 2.5 > N(p-1)-2:")
floors = solver.tunnel_floors(solver.tunnel_run(3.0, grid, gamma=2.5), eps,
                              3.0, profile)
for i, e in enumerate(eps):
    print(f"  eps={e}: log floor {floors['log_floor_center'][i]:.1f}, "
          f"half-width {floors['delta_measured'][i]:.3f}")
