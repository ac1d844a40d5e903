"""Kolmogorov-Riesz probes of the commutator over a sampled unit ball.

For a smooth compactly supported symbol and weights (u, M^5 u), the family
[b, T_eta](unit ball of L^2(v)) should be bounded in L^2(u), vanish
uniformly at infinity, and be translation-equicontinuous with modulus linear
in the shift. All three condition values are measured here, along with the
shift decomposition that drives the equicontinuity estimate. Curves land in
demos/out/ as plot-ready CSV.
"""

from pathlib import Path

import numpy as np

import bumplab as bl
from bumplab.io import write_curve_csv

outdir = Path(__file__).parent / "out"

grid = bl.make_grid(8.0, 1024)
u = bl.constant(grid, 1.0) + bl.gaussian(grid, 0.0, 0.3)
v = bl.iterate_maximal(u, 5)
b = bl.smooth_bump(grid, 0.0, 0.5)
trunc = bl.TruncationSpec(32 * grid.h)
sample = bl.sample_unit_ball(v, 2.0, 32, seed=7)

rep = bl.kr_probe(sample, b, trunc, u, N_list=[1.5, 2.0, 3.0, 4.0], shift_cells=[1, 2, 4])
print("== Kolmogorov-Riesz condition values ==")
print(f"  (a) bound: sup ||[b,T]f||_(L^2(u)) = {rep.bound_sup:.6f}")
print("  (b) tails: sup of mass beyond |x| > N")
for N, val in rep.tail_curve:
    print(f"      N={N:4.1f}: {val:.3e}")
print("  (c) translation modulus and fitted slope")
for hshift, val in rep.modulus_curve:
    print(f"      h={hshift:.4f}: {val:.3e}")
print(f"      log-log slope: {rep.slope:.4f} (linear-in-h means slope 1)")

write_curve_csv(outdir / "kr_tail.csv", ("N", "tail"), rep.tail_curve)
write_curve_csv(outdir / "kr_modulus.csv", ("h", "modulus"), rep.modulus_curve)
print(f"  curves written to {outdir}/kr_tail.csv and kr_modulus.csv")

print("\n== far-field decay constant ==")
N0 = 2.0
tr = bl.tail_constant(b, trunc, v, 2.0, sample, N0=N0)
print(f"  sup |[b,T]f(x)| * |x| over |x| > {N0:g}: {tr.C_bv:.5f}")
print(f"  certificate (int_supp(b) v^(-p'/p))^(1/p'): {tr.v_certificate:.5f}")

print("\n== shift decomposition at h = 2 cells ==")
f = sample.functions[0]
dec = bl.shift_decomposition(b, f, trunc, 2)
g = bl.commutator(b, f, trunc)
diff = bl.shift(g, 2).values - g.values
print(f"  max |Af| = {np.max(np.abs(dec.Af.values)):.3e} (symbol increment term)")
print(f"  max |Bf| = {np.max(np.abs(dec.Bf.values)):.3e} (kernel difference term)")
print(f"  identity residual: {np.max(np.abs(dec.Af.values + dec.Bf.values - diff)):.2e}")
