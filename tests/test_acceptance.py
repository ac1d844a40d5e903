"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are pinned here, not calibrated
elsewhere. Criterion 3 is split into its three clauses; the endpoint-weight
clause (3c) checks that the A_2 constant of |x| diverges logarithmically
under grid refinement, exactly as its closed form H_{2n} - H_n/2 says.
"""

import math
import time

import numpy as np

import bumplab as bl
from bumplab.cli import main as cli_main
from cube_oracle import average
from kernel_oracle import measured_regularity_constant


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def criterion5_pair(m: int):
    grid = bl.make_grid(8.0, m)
    u = bl.constant(grid, 1.0) + bl.gaussian(grid, 0.0, 0.3)
    v = bl.iterate_maximal(u, 5)  # k = floor(2p) + 1 at p = 2
    return grid, u, v


def test_criterion_01_orlicz_reduction():
    t0 = time.perf_counter()
    grid = bl.make_grid(1.0, 1024)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        f = bl.GridFunction(grid, rng.standard_normal(1024))
        level = int(rng.integers(0, 11))
        n = 2**level
        q = bl.Cube(n * int(rng.integers(0, 1024 // n)), n)
        for p in (1.5, 2.0, 3.0):
            got = bl.orlicz_average(f, q, bl.YoungFunction(p, 0)).value
            want = average(bl.GridFunction(grid, np.abs(f.values) ** p), q) ** (1 / p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (Orlicz a=0 reduction)",
           worst <= 1e-8 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_constant_function_identity():
    def oracle_root(p, a):  # independent bisection at 1e-14 bracket width
        lo, hi = 0.0, 1.0
        while hi**p * math.log(math.e + hi) ** a < 1.0:
            hi *= 2.0
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if mid**p * math.log(math.e + mid) ** a < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    grid = bl.make_grid(1.0, 256)
    q = bl.Cube(0, 256)
    worst = 0.0
    for a in (0, 3, 4):
        root = oracle_root(2.0, a)
        for c in (0.1, 1.0, 10.0):
            got = bl.orlicz_average(bl.constant(grid, c), q, bl.YoungFunction(2, a)).value
            worst = max(worst, abs(got - c / root) / (c / root))
    report("criterion 2 (constant Orlicz identity)", worst <= 1e-8,
           f"max rel err {worst:.2e}")


def test_criterion_03a_ap_unit_weight():
    grid = bl.make_grid(1.0, 4096)
    rep = bl.ap_constant(bl.constant(grid, 1.0), 2.0, bl.dyadic_cubes(grid))
    report("criterion 3a (A_p of w=1)", rep.constant == 1.0, f"constant {rep.constant}")


def test_criterion_03b_ap_power_weight():
    grid = bl.make_grid(1.0, 4096)
    cubes = bl.dyadic_cubes(grid)
    rep = bl.ap_constant(bl.power_weight(grid, 0.5), 2.0, cubes)

    def prim(x, beta):
        return np.sign(x) * np.abs(x) ** (beta + 1.0) / (beta + 1.0)

    oracle = 0.0
    for q in cubes:
        a, b = q.endpoints(grid)
        avg_w = (prim(b, 0.5) - prim(a, 0.5)) / (b - a)
        avg_d = (prim(b, -0.5) - prim(a, -0.5)) / (b - a)
        oracle = max(oracle, avg_w * avg_d)
    ok = abs(rep.constant - oracle) / oracle <= 0.02 and abs(oracle - 4 / 3) < 0.01
    report("criterion 3b (A_2 of |x|^(1/2) vs exact integrals)", ok,
           f"grid {rep.constant:.5f} oracle {oracle:.5f} (4/3 = {4 / 3:.5f})")


def test_criterion_03c_endpoint_growth_as_stated():
    # |x|^alpha is in A_p exactly when -1 < alpha < p - 1, so the endpoint
    # weight |x|^(p-1) has an infinite constant in the continuum. On the
    # grid, take w = |x| at p = 2 and an origin-touching cube of n cells,
    # whose centres sit at (j + 1/2) h. Then avg w = n h / 2 and
    # avg w^-1 = (2 / (n h)) sum_{j<n} 1/(2j+1), so the constant is exactly
    #     c(n) = sum_{j<n} 1/(2j+1) = H_{2n} - H_n / 2,
    # which depends only on the cells resolved, not on h or L. It grows like
    # (1/2) ln n + const, i.e. by ln 2 / 2 per doubling of n: finite at
    # every resolution, unbounded under refinement. Shrinking the cube on a
    # fixed grid loses cells, so there the constant falls as c(n/2) / c(n).
    def closed_form(n):
        return math.fsum(1.0 / (2 * j + 1) for j in range(n))

    def endpoint_constant(m, n):
        grid = bl.make_grid(1.0, m)
        w = bl.power_weight(grid, 1.0)  # p - 1 at p = 2
        cubes = [bl.Cube(m // 2 - n, n), bl.Cube(m // 2, n)]
        return bl.ap_constant(w, 2.0, cubes).constant

    def rel_err(got, n):
        want = closed_form(n)
        return abs(got - want) / want

    # Refinement: h halves six times, the origin-touching half-domain cubes
    # resolve n = m / 2 cells.
    grids = [64 * 2**j for j in range(7)]
    consts = [endpoint_constant(m, m // 2) for m in grids]
    worst = max(rel_err(c, m // 2) for c, m in zip(consts, grids))
    steps = [b - a for a, b in zip(consts, consts[1:])]
    half_ln2 = math.log(2.0) / 2.0

    # Fixed grid, shrinking cube: the same closed form at n = m >> k.
    m = 4096
    shrink = [(m >> k, endpoint_constant(m, m >> k)) for k in range(1, 8)]
    worst_shrink = max(rel_err(c, n) for n, c in shrink)

    ok = (worst <= 1e-12 and worst_shrink <= 1e-12
          and all(d > 0 for d in steps)
          and all(abs(d - half_ln2) <= 1e-4 for d in steps))
    report("criterion 3c (endpoint blow-up under refinement)", ok,
           "constants " + ", ".join(f"{c:.6f}" for c in consts)
           + "; increments " + ", ".join(f"{d:.7f}" for d in steps)
           + f" (ln2/2 = {half_ln2:.7f}); closed-form rel err {worst:.1e},"
           f" fixed-grid rel err {worst_shrink:.1e}")


def test_criterion_04_bump_scale_invariance():
    grid = bl.make_grid(1.0, 256)
    cubes = bl.dyadic_cubes(grid)
    spec = bl.BumpSpec.from_preset("comm", 2.0, 1.0)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        u = bl.GridFunction(grid, 0.5 + rng.random(256))
        v = bl.GridFunction(grid, 0.5 + rng.random(256))
        base = bl.bump_constant(bl.WeightPair(u, v), spec, cubes).constant
        for c in (0.01, 1.0, 100.0):
            s = c**2.0
            got = bl.bump_constant(
                bl.WeightPair(bl.GridFunction(grid, s * u.values),
                              bl.GridFunction(grid, s * v.values)),
                spec, cubes).constant
            worst = max(worst, abs(got - base) / base)
    report("criterion 4 (bump scale invariance)", worst <= 1e-6,
           f"max rel change {worst:.2e}")


def test_criterion_05_paper_weight_pair():
    t0 = time.perf_counter()
    spec = bl.BumpSpec.from_preset("comm", 2.0, 1.0)
    consts = {}
    for m in (1024, 2048):
        grid, u, v = criterion5_pair(m)
        cubes = bl.cube_family(grid, "dyadic+shifted")
        consts[m] = bl.bump_constant(bl.WeightPair(u, v), spec, cubes).constant
    elapsed = time.perf_counter() - t0
    change = abs(consts[2048] - consts[1024]) / consts[1024]
    ok = np.isfinite(consts[1024]) and np.isfinite(consts[2048]) \
        and change < 0.20 and elapsed < 60.0
    report("criterion 5 (u, M^5 u bump constant)", ok,
           f"c(1024)={consts[1024]:.5f} c(2048)={consts[2048]:.5f} "
           f"change {change:.1%}, {elapsed:.1f}s")


def test_criterion_06_hilbert_oracle():
    grid = bl.make_grid(4.0, 4096)
    f = bl.indicator(grid, 0.0, 1.0)
    out = bl.apply_truncated(f, bl.TruncationSpec(8 * grid.h))
    x = grid.centers
    worst = 0.0
    for target in (-2.0, 2.0, 3.0):
        idx = np.argsort(np.abs(x - target))[:16]
        want = (1.0 / math.pi) * np.log(np.abs(x[idx] / (x[idx] - 1.0)))
        worst = max(worst, float(np.max(np.abs(out.values[idx] - want) / np.abs(want))))
    report("criterion 6 (Hilbert closed form)", worst <= 0.01,
           f"max rel err {worst:.2e}")


def test_criterion_07_domination():
    t0 = time.perf_counter()
    grid = bl.make_grid(2.0, 512)
    sample = bl.sample_unit_ball(bl.constant(grid, 1.0), 2.0, 20, seed=7)
    etas = [grid.h * 2**j for j in range(2, 7)]  # 4h ... 64h = L/4
    assert etas[-1] == grid.half_width / 4
    per_eta = []
    for eta in etas:
        c = 0.0
        for f in sample.functions:
            Tf = bl.apply_truncated(f, bl.TruncationSpec(eta)).values
            Mf = bl.maximal_fn(f).values
            Ts = bl.maximal_truncation(f).values
            c = max(c, float(np.max(np.abs(Tf) / (Mf + Ts + 1e-300))))
        per_eta.append(c)
    variation = max(per_eta) / min(per_eta)
    elapsed = time.perf_counter() - t0
    report("criterion 7 (domination by M + T-sharp)", variation < 2.0,
           f"ratio range [{min(per_eta):.3f}, {max(per_eta):.3f}] "
           f"variation {variation:.3f}, {elapsed:.1f}s")


def test_criterion_08_commutator_algebra():
    grid = bl.make_grid(2.0, 256)
    trunc = bl.TruncationSpec(8 * grid.h)
    rng = np.random.default_rng(88)
    zero = bl.commutator(bl.constant(grid, 3.0),
                         bl.GridFunction(grid, rng.standard_normal(256)), trunc)
    const_ok = bool(np.all(zero.values == 0.0))
    lin_worst = 0.0
    paths_worst = 0.0
    scaling_ok = True
    for _ in range(20):
        b = bl.smooth_bump(grid, float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 0.8)))
        b2 = bl.GridFunction(grid, rng.standard_normal(256))
        f = bl.GridFunction(grid, rng.standard_normal(256))
        lhs = bl.commutator(b + b2, f, trunc).values
        rhs = bl.commutator(b, f, trunc).values + bl.commutator(b2, f, trunc).values
        scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1e-300
        lin_worst = max(lin_worst, float(np.max(np.abs(lhs - rhs)) / scale))
        scaling_ok &= bool(np.array_equal(
            bl.commutator(bl.GridFunction(grid, 2 * b.values), f, trunc).values,
            2 * bl.commutator(b, f, trunc).values))
        direct = bl.commutator(b, f, trunc).values
        Tf = bl.apply_truncated(f, trunc).values
        Tbf = bl.apply_truncated(b * f, trunc).values
        indirect = b.values * Tf - Tbf
        pscale = np.max(np.abs(b.values * Tf)) + np.max(np.abs(Tbf)) + 1e-300
        paths_worst = max(paths_worst, float(np.max(np.abs(direct - indirect)) / pscale))
    ok = const_ok and scaling_ok and lin_worst <= 1e-12 and paths_worst <= 1e-12
    report("criterion 8 (commutator algebra)", ok,
           f"const-b zero={const_ok}, linearity {lin_worst:.2e}, "
           f"two paths {paths_worst:.2e}")


def test_criterion_09_equicontinuity_slope():
    t0 = time.perf_counter()
    grid, u, v = criterion5_pair(1024)
    b = bl.smooth_bump(grid, 0.0, 0.5)
    trunc = bl.TruncationSpec(32 * grid.h)
    sample = bl.sample_unit_ball(v, 2.0, 32, seed=7)
    rep = bl.kr_probe(sample, b, trunc, u, [], [1, 2, 4])
    curve, slope = rep.modulus_curve, rep.slope
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= slope <= 1.15 and elapsed < 120.0
    report("criterion 9 (equicontinuity slope)", ok,
           f"slope {slope:.4f}, curve {[(round(h, 4), float(f'{v:.3e}')) for h, v in curve]}, "
           f"{elapsed:.1f}s")


def test_criterion_10_shift_decomposition():
    grid = bl.make_grid(4.0, 512)
    trunc = bl.TruncationSpec(32 * grid.h)
    C_meas = measured_regularity_constant(trunc, grid)
    sample = bl.sample_unit_ball(bl.constant(grid, 1.0), 2.0, 20, seed=11)
    rng = np.random.default_rng(5)
    ident_worst = 0.0
    a_ok = b_ok = True
    for i, f in enumerate(sample.functions):
        b = bl.smooth_bump(grid, float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.3, 1.0)))
        k = [1, 2, 4][i % 3]
        dec = bl.shift_decomposition(b, f, trunc, k)
        g = bl.commutator(b, f, trunc)
        want = bl.shift(g, k).values - g.values
        err = np.max(np.abs(dec.Af.values + dec.Bf.values - want))
        ident_worst = max(ident_worst, err / (1.0 + np.max(np.abs(f.values))))
        h_abs = k * grid.h
        grad = np.max(np.abs(np.diff(b.values))) / grid.h
        Tf_max = np.max(np.abs(bl.apply_truncated(f, trunc).values))
        a_ok &= bool(np.max(np.abs(dec.Af.values)) <= h_abs * grad * Tf_max + 1e-14)
        Mf_max = np.max(bl.maximal_fn(f).values)
        b_ok &= bool(np.max(np.abs(dec.Bf.values)) <= C_meas * h_abs * Mf_max / trunc.eta)
    ok = ident_worst <= 1e-12 and a_ok and b_ok
    report("criterion 10 (shift decomposition)", ok,
           f"identity {ident_worst:.2e}, A-bound {a_ok}, B-bound {b_ok} "
           f"(C_meas {C_meas:.3f})")


def test_criterion_11_tail():
    grid, u, v = criterion5_pair(1024)
    b = bl.smooth_bump(grid, 0.0, 0.5)
    trunc = bl.TruncationSpec(16 * grid.h)
    sample = bl.sample_unit_ball(v, 2.0, 32, seed=7)
    rep = bl.tail_constant(b, trunc, v, 2.0, sample, N0=2.0)
    curve = bl.kr_probe(sample, b, trunc, u, [2.0, 4.0], []).tail_curve
    drop = 1.0 - curve[1][1] / curve[0][1]
    ok = np.isfinite(rep.C_bv) and rep.C_bv > 0 and drop >= 0.30
    report("criterion 11 (tail decay)", ok,
           f"C_bv {rep.C_bv:.4f}, tail({curve[0][0]:g})={curve[0][1]:.3e} -> "
           f"tail({curve[1][0]:g})={curve[1][1]:.3e}, drop {drop:.0%}")


def test_criterion_12_spectral_contrast():
    # The values-only SVD is backward stable, so each sigma_k is accurate
    # only to about eps * sigma_1, and relative tail energies below about
    # m * eps^2 (some 1e-29 here) are rounding noise. The monotonicity
    # clause allows a slack of 1e-16, far above that floor; the smooth
    # symbol's tails sit at the floor itself.
    t0 = time.perf_counter()
    tails_smooth, tails_spike = [], []
    for m in (256, 512, 1024):
        grid, u, v = criterion5_pair(m)
        b_cmo = bl.smooth_bump(grid, 0.0, 0.5)
        b_bmo = bl.log_spike(grid, 0.01)
        trunc = bl.TruncationSpec(16 * grid.h)
        cmp = bl.decay_compare(b_cmo, b_bmo, trunc, u, v, [m // 8])
        tails_smooth.append(cmp.smooth.energy_tails[0])
        tails_spike.append(cmp.spike.energy_tails[0])
    elapsed = time.perf_counter() - t0
    strict = all(c < s for c, s in zip(tails_smooth, tails_spike))
    monotone = all(b <= a + 1e-16 for a, b in zip(tails_smooth, tails_smooth[1:]))
    ok = strict and monotone and elapsed < 600.0
    report("criterion 12 (spectral contrast)", ok,
           f"smooth tails {[f'{t:.2e}' for t in tails_smooth]}, "
           f"spike tails {[f'{t:.2e}' for t in tails_spike]}, {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    args = ["probe", "kr", "--seed", "7", "--b", "bump:0,0.5",
            "--u", "const:1+gaussian:0,0.3", "--v", "M5:u",
            "--L", "8", "--m", "256", "--eta-cells", "16",
            "--N-list", "2,4", "--shift-list", "1,2", "--out", str(tmp_path)]
    assert cli_main(args) == 0
    kr_first = (tmp_path / "probe_kr.json").read_bytes()
    assert cli_main(args) == 0
    kr_ok = (tmp_path / "probe_kr.json").read_bytes() == kr_first

    args = ["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3",
            "--v", "M5:u", "--L", "8", "--m", "256", "--eta-cells", "16",
            "--K-list", "32", "--out", str(tmp_path)]
    assert cli_main(args) == 0
    svd_first = (tmp_path / "probe_svd.json").read_bytes()
    assert cli_main(args) == 0
    svd_ok = (tmp_path / "probe_svd.json").read_bytes() == svd_first
    report("criterion 13 (probe determinism)", kr_ok and svd_ok,
           f"kr byte-identical={kr_ok}, svd byte-identical={svd_ok}")
