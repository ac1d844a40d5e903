"""Orlicz averages and BMO norms, against closed forms.

The Orlicz average of f over a cube Q is the smallest lambda for which the
cube average of Phi(|f|/lambda) drops to 1, with Phi(t) = t^p log(e+t)^a.
For a = 0 it reduces to the normalized L^p average; for constants it is
c / Phi^{-1}(1). This script verifies both reductions numerically, shows
the certified bracket around one average, and then measures BMO norms for a
few symbols.
"""

import numpy as np

import bumplab as bl

grid = bl.make_grid(1.0, 512)
whole = bl.Cube(0, 512)

print("== Orlicz averages ==")
f = bl.indicator(grid, 0.0, 1.0)
for p in (1.5, 2.0, 3.0):
    got = bl.orlicz_average(f, whole, bl.YoungFunction(p, 0)).value
    closed = 0.5 ** (1.0 / p)  # (avg over [-1,1] of chi^p)^(1/p)
    print(f"  ||chi_[0,1]||_(L^{p}) over [-1,1]: {got:.10f}  closed form {closed:.10f}")

print("\n  log-bumped averages of constants: c / Phi^(-1)(1)")
for a in (0, 2, 4):
    phi = bl.YoungFunction(2, a)
    root = bl.young_inverse_at_one(phi)
    got = bl.orlicz_average(bl.constant(grid, 1.0), whole, phi).value
    print(f"  a={a}: average {got:.10f}   1/root {1.0 / root:.10f}")

print("\n  the average grows with the log exponent (same f, p):")
rng = np.random.default_rng(1)
f = bl.GridFunction(grid, rng.standard_normal(512))
vals = [bl.orlicz_average(f, whole, bl.YoungFunction(2, a)).value for a in range(5)]
print("  a=0..4:", ", ".join(f"{v:.5f}" for v in vals))

print("\n  the certified bracket [lower, value], ~1e-12 wide, at a=2:")
phi = bl.YoungFunction(2, 2)
result = bl.orlicz_average(f, whole, phi)
for end, lam in zip(("lower", "value"), result.bracket):
    excess = np.mean(bl.young_eval(phi, np.abs(f.values) / lam)) - 1.0
    print(f"  {end}: {lam:.15f}   avg Phi(|f|/lambda) - 1 = {excess:+.1e}")

print("\n== BMO norms over the dyadic family ==")
cubes = bl.dyadic_cubes(grid)
symbols = {
    "constant 7": bl.constant(grid, 7.0),
    "x (linear)": bl.GridFunction(grid, grid.centers),
    "sign jump": bl.GridFunction(grid, np.sign(grid.centers)),
    "smooth bump r=0.5": bl.smooth_bump(grid, 0.0, 0.5),
    "log spike eps=0.01": bl.log_spike(grid, 0.01),
}
for name, b in symbols.items():
    print(f"  {name:>20}: {bl.bmo_norm(b, cubes):.6f}")
print("  (the linear symbol's oscillation is length/4, maximized at the full cube)")
