"""A_p constants and two-weight bump constants.

Power weights |x|^alpha make good calibration targets: for alpha = 1/2 and
p = 2 the product of cube averages is exactly 4/3 on every interval [0, s],
while the endpoint weight |x|^(p-1) has an infinite constant in the
continuum. On a fixed grid the endpoint divergence shows up as logarithmic
growth with the number of cells a cube resolves, not with the cube's scale:
zooming toward the origin at fixed resolution *loses* cells and the
restricted constant decreases.
"""

import bumplab as bl

grid = bl.make_grid(1.0, 4096)
m = grid.cells
dyadic = bl.dyadic_cubes(grid)

print("== A_2 of |x|^(1/2): every scale gives 4/3 ==")
rep = bl.ap_constant(bl.power_weight(grid, 0.5), 2.0, dyadic)
a, b = rep.argmax_cube.endpoints(grid)
print(f"  sup over dyadic cubes: {rep.constant:.6f} (exact 4/3 = {4 / 3:.6f}),"
      f" attained on [{a:.4f}, {b:.4f}]")

print("\n== endpoint weight |x| at p = 2: divergence tracks resolved cells ==")
w = bl.power_weight(grid, 1.0)
print("  scale s = 2^-k * 2L, origin-touching cubes, constant vs cells resolved:")
for k in range(1, 8):
    n = m >> k
    cubes = [bl.Cube(m // 2 - n, n), bl.Cube(m // 2, n)]
    c = bl.ap_constant(w, 2.0, cubes).constant
    print(f"  k={k}: {n:5d} cells  constant {c:.4f}")
print("  ... and at a fixed cube, refining the grid grows the constant:")
for cells in (256, 1024, 4096):
    g2 = bl.make_grid(1.0, cells)
    c = bl.ap_constant(bl.power_weight(g2, 1.0), 2.0,
                       [bl.Cube(cells // 2, cells // 2)]).constant
    print(f"  m={cells:5d}: constant over [0, 1] = {c:.4f}")

print("\n== two-weight bump constants for (u, M^k u) ==")
grid = bl.make_grid(8.0, 1024)
u = bl.constant(grid, 1.0) + bl.gaussian(grid, 0.0, 0.3)
v = bl.iterate_maximal(u, 5)  # k = floor(2p) + 1 at p = 2
pair = bl.WeightPair(u, v)
cubes = bl.cube_family(grid, "dyadic+shifted")
print(f"  v = M^5 u has range [{v.values.min():.4f}, {v.values.max():.4f}]")
for name, spec in [("two-weight A_2", None),
                   ("maximal bump", bl.BumpSpec.from_preset("max", 2.0, 1.0)),
                   ("CZO bump", bl.BumpSpec.from_preset("czo", 2.0, 1.0)),
                   ("commutator bump", bl.BumpSpec.from_preset("comm", 2.0, 1.0))]:
    if spec is None:
        c = bl.two_weight_ap(pair, 2.0, cubes).constant
    else:
        c = bl.bump_constant(pair, spec, cubes).constant
    print(f"  {name:>16}: {c:.6f}")
print("  (finite commutator-bump constant: the pair admits a compact commutator)")
