"""Every closed-form barrier, evaluated and residual-verified on a grid.

Run:  python demos/03_barrier_gallery.py
Writes demos/output/barriers.csv (one row per residual check).
"""

from pathlib import Path

import numpy as np

from heatlab import barriers

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# Fundamental solution: normalized, semigroup-consistent.
x = np.linspace(-12, 12, 10001)
print("kernel mass at t=0.7:", np.trapezoid(barriers.heat_kernel(x, 0.0, 0.7), x))

# ODE ceilings: the maximal solution ignores initial data entirely, the
# decaying plateau starts from a finite level m.
for t in (0.25, 0.5, 1.0, 2.0):
    print(f"  t={t}: y_M={barriers.ode_maximal(1.0, 2.0, t):.4f}, "
          f"phi_3={barriers.decayed_ode(3.0, 1.0, 2.0, t):.4f}")

# The radial drift barrier is calibrated per (N, q, c, eta): the smallest
# constant whose discrete residual is sign-stable at two refinements.
C = barriers.drift_barrier_constant(1, 2.0, c=1.0, eta=1.0)
print(f"\ncalibrated C(N=1, q=2, c=1, eta=1) = {C:.4f}")

reports = barriers.standard_reports()
barriers.write_reports(reports, out / "barriers.csv")
for rep in reports:
    print(f"  {rep.name}: min residual {rep.min_residual:.3e}, "
          f"violations {rep.violations}/{rep.n_checked}")
print("wrote", out / "barriers.csv")

# The tunnel subsolution is the exact solution of the linearized problem:
# bounded by one, vanishing on the cross-section boundary.
lam = np.pi ** 2 / 4.0
phi = lambda s: np.cos(np.pi * s / 2.0)
for tau in (0.05, 0.2, 1.0):
    w = barriers.tunnel_subsolution(0.0, 0.0, tau, lam, phi)
    print(f"  W(0, 0, {tau}) = {w:.4f}")
