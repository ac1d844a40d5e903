import warnings

import numpy as np
import pytest

import svd_oracle as oracle
from kernel_oracle import KERNEL_CONSTANT, measured_regularity_constant
from bumplab import (
    GridFunction,
    TruncationSpec,
    apply_truncated,
    commutator,
    compactness,
    constant,
    decay_compare,
    gaussian,
    indicator,
    iterate_maximal,
    kr_probe,
    log_spike,
    lp_norm_weighted,
    make_grid,
    maximal_fn,
    operator_spectral_report,
    power_weight,
    sample_unit_ball,
    shift,
    shift_decomposition,
    smooth_bump,
    tail_constant,
)


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(8.0, 512)
    u = constant(grid, 1.0) + gaussian(grid, 0.0, 0.3)
    v = iterate_maximal(u, 5)
    b = smooth_bump(grid, 0.0, 0.5)
    trunc = TruncationSpec(16 * grid.h)
    sample = sample_unit_ball(v, 2.0, 16, seed=7)
    return grid, u, v, b, trunc, sample


def test_sample_unit_ball_normalization(setup):
    grid, u, v, b, trunc, sample = setup
    for f in sample.functions:
        assert lp_norm_weighted(f, v, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_sample_unit_ball_determinism_and_prefix(setup):
    grid, u, v, b, trunc, sample = setup
    again = sample_unit_ball(v, 2.0, 16, seed=7)
    for f, g in zip(sample.functions, again.functions):
        assert np.array_equal(f.values, g.values)
    longer = sample_unit_ball(v, 2.0, 32, seed=7)
    for f, g in zip(sample.functions, longer.functions[:16]):
        assert np.array_equal(f.values, g.values)
    other = sample_unit_ball(v, 2.0, 16, seed=8)
    assert not np.array_equal(other.functions[0].values, sample.functions[0].values)


def test_sample_unit_ball_validation(setup):
    grid, u, v, b, trunc, sample = setup
    with pytest.raises(ValueError):
        sample_unit_ball(v, 2.0, 0, seed=1)
    with pytest.raises(ValueError):
        sample_unit_ball(constant(grid, 0.0), 2.0, 4, seed=1)


def test_sample_unit_ball_rejects_a_norm_out_of_range():
    # at p = 2000 the piecewise member 3's norm overflows: f / inf made it all zeros
    v = constant(make_grid(8.0, 256), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"member 3 \(piecewise\).*p = 2000"):
            sample_unit_ball(v, 2000.0, 8, seed=0)


def test_kr_bounded_constant_symbol_vanishes(setup):
    grid, u, v, b, trunc, sample = setup
    assert kr_probe(sample, constant(grid, 4.0), trunc, u, [], []).bound_sup == 0.0


def test_kr_bounded_is_order_free_and_stable(setup):
    grid, u, v, b, trunc, sample = setup

    def bound(s):
        return kr_probe(s, b, trunc, u, [], []).bound_sup

    base = bound(sample)
    reordered = sample_unit_ball(v, 2.0, 16, seed=7)
    reordered.functions = list(reversed(reordered.functions))
    assert bound(reordered) == base
    b32 = bound(sample_unit_ball(v, 2.0, 32, seed=7))
    b64 = bound(sample_unit_ball(v, 2.0, 64, seed=7))
    assert b64 >= b32  # sup over a superset
    assert b64 <= 1.25 * b32


def test_kr_probe_measures_in_the_sample_p(setup):
    grid, u, v, b, trunc, sample = setup
    s3 = sample_unit_ball(v, 3.0, 4, seed=7)
    want = max(lp_norm_weighted(commutator(b, f, trunc), u, 3.0) for f in s3.functions)
    assert kr_probe(s3, b, trunc, u, [], []).bound_sup == pytest.approx(want, rel=1e-12)


def test_kr_tail_masks_and_monotonicity(setup):
    grid, u, v, b, trunc, sample = setup
    curve = kr_probe(sample, b, trunc, u, [1.0, 2.0, 4.0], []).tail_curve
    vals = [val for _, val in curve]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    u_compact = indicator(grid, -1.0, 1.0)
    zero_curve = kr_probe(sample, b, trunc, u_compact, [2.0, 4.0], []).tail_curve
    assert all(val == 0.0 for _, val in zero_curve)
    with pytest.raises(ValueError):
        kr_probe(sample, b, trunc, u, [grid.half_width], [])


def test_kr_equicontinuity_zero_cases(setup):
    grid, u, v, b, trunc, sample = setup
    rep = kr_probe(sample, b, trunc, u, [], [0])
    assert rep.modulus_curve[0][1] == 0.0
    rep = kr_probe(sample, constant(grid, 2.0), trunc, u, [], [1, 2])
    assert all(val == 0.0 for _, val in rep.modulus_curve)
    assert np.isnan(rep.slope)


def test_kr_slope_needs_two_distinct_shifts(setup):
    # a fit through one |h| used to report a slope, with numpy's RankWarning
    grid, u, v, b, trunc, sample = setup
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shifts in ([1, -1], [2, 2], [0, 1]):
            assert np.isnan(kr_probe(sample, b, trunc, u, [], shifts).slope)
        rep = kr_probe(sample, b, trunc, u, [], [1, -1, 2])
    assert np.isfinite(rep.slope)


def test_kr_equicontinuity_shift_guard(setup):
    grid, u, v, b, trunc, sample = setup
    too_big = int(trunc.eta / 4.0 / grid.h)  # |h| = eta/4 exactly: rejected
    with pytest.raises(ValueError):
        kr_probe(sample, b, trunc, u, [], [too_big])
    rep = kr_probe(sample, b, trunc, u, [], [too_big], allow_large_shifts=True)
    assert rep.modulus_curve[0][1] >= 0.0


@pytest.mark.parametrize("k", [70, -70, 64])
def test_kr_equicontinuity_rejects_shift_past_grid(k):
    grid = make_grid(1.0, 64)
    one = constant(grid, 1.0)
    sample = sample_unit_ball(one, 2.0, 4, seed=1)
    with pytest.raises(ValueError, match=r"\|k_cells\| must be < 64"):
        kr_probe(sample, smooth_bump(grid, 0.0, 0.5), TruncationSpec(4 * grid.h),
                 one, [], [k], allow_large_shifts=True)


# The ids name the condition values a case asks kr_probe for, through its radii
# and shifts: the bound alone, the tails, the modulus, or all three.
_KR_LISTS = {"kr_bounded": ([], []), "kr_tail": ([1.0], []),
             "kr_equicontinuity": ([], [1]), "kr_probe": ([1.0], [1])}


@pytest.mark.parametrize("N_list, shift_cells", _KR_LISTS.values(), ids=_KR_LISTS.keys())
def test_kr_entry_points_reject_negative_u(setup, N_list, shift_cells):
    grid, u, v, b, trunc, sample = setup
    with pytest.raises(ValueError, match="u must be nonnegative"):
        kr_probe(sample, b, trunc, -1.0 * u, N_list, shift_cells)


def test_shift_decomposition_identity_and_zero_cases(setup):
    grid, u, v, b, trunc, sample = setup
    rng = np.random.default_rng(15)
    for k in (1, 3, -2):
        f = GridFunction(grid, rng.standard_normal(grid.cells))
        dec = shift_decomposition(b, f, trunc, k)
        g = commutator(b, f, trunc)
        want = shift(g, k).values - g.values
        err = np.max(np.abs(dec.Af.values + dec.Bf.values - want))
        assert err <= 1e-12 * (1.0 + np.max(np.abs(f.values)))
    # constant symbol: both terms vanish wherever the translate is in range
    # (the zero extension leaves a cancelling pair on the last k cells)
    k = 2
    dec = shift_decomposition(constant(grid, 3.0), sample.functions[0], trunc, k)
    interior = np.arange(grid.cells - k)
    assert np.array_equal(dec.Af.values[interior], np.zeros(interior.size))
    assert np.array_equal(dec.Bf.values[interior], np.zeros(interior.size))
    assert np.allclose(dec.Af.values + dec.Bf.values, 0.0, atol=1e-15)
    dec = shift_decomposition(b, constant(grid, 0.0), trunc, 2)
    assert np.array_equal(dec.Af.values, np.zeros(grid.cells))
    assert np.array_equal(dec.Bf.values, np.zeros(grid.cells))
    with pytest.raises(ValueError):
        shift_decomposition(b, sample.functions[0], trunc,
                            int(trunc.eta / 4.0 / grid.h) + 1)


def test_shift_decomposition_pointwise_bounds(setup):
    grid, u, v, b, trunc, sample = setup
    C = measured_regularity_constant(trunc, grid)
    rng = np.random.default_rng(30)
    for i in range(5):
        f = sample.functions[i]
        bb = smooth_bump(grid, float(rng.uniform(-1, 1)), float(rng.uniform(0.3, 1.0)))
        k = [1, 2, 3][i % 3]  # all below eta/4 = 4 cells
        dec = shift_decomposition(bb, f, trunc, k)
        h_abs = abs(k) * grid.h
        grad = np.max(np.abs(np.diff(bb.values))) / grid.h
        Tf = apply_truncated(f, trunc)
        assert np.max(np.abs(dec.Af.values)) <= h_abs * grad * np.max(np.abs(Tf.values)) + 1e-14
        Mf = maximal_fn(f)
        assert np.max(np.abs(dec.Bf.values)) <= C * h_abs * np.max(Mf.values) / trunc.eta


def test_tail_constant(setup):
    grid, u, v, b, trunc, sample = setup
    rep = tail_constant(b, trunc, v, 2.0, sample, N0=2.0)
    assert np.isfinite(rep.C_bv) and rep.C_bv > 0
    assert rep.v_certificate > 0
    # sup over a superset of samples never decreases
    bigger = sample_unit_ball(v, 2.0, 32, seed=7)
    assert tail_constant(b, trunc, v, 2.0, bigger, N0=2.0).C_bv >= rep.C_bv
    # numerical re-derivation of the decay chain with measured constants
    radius = 0.5 + grid.h / 2
    bound = (2 * np.max(np.abs(b.values)) * KERNEL_CONSTANT
             * rep.v_certificate * 2.0 / (2.0 - radius))
    assert rep.C_bv <= bound
    with pytest.raises(ValueError):
        tail_constant(b, trunc, v, 2.0, sample, N0=0.9)  # N0 <= 2 * radius
    zero = tail_constant(constant(grid, 0.0), trunc, v, 2.0, sample, N0=1.0)
    assert zero.C_bv == 0.0 and zero.v_certificate == 0.0


def test_tail_constant_at_p_1_is_the_sup_certificate(setup):
    grid, u, v, b, trunc, sample = setup
    supp = b.values != 0.0
    limit = float(np.max(1.0 / v.values[supp]))
    rep = tail_constant(b, trunc, v, 1.0, sample, N0=2.0)
    assert rep.v_certificate == limit
    assert rep.C_bv == tail_constant(b, trunc, v, 2.0, sample, N0=2.0).C_bv
    # (sum over supp b of v^(-p'/p) h)^(1/p') falls to max 1/v as p falls to 1
    gaps = [tail_constant(b, trunc, v, p, sample, N0=2.0).v_certificate - limit
            for p in (1.5, 1.1, 1.01, 1.001)]
    assert all(g > 0 for g in gaps) and gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-2 * limit
    with pytest.raises(ValueError, match="p = 0.5 must be >= 1"):
        tail_constant(b, trunc, v, 0.5, sample, N0=2.0)


@pytest.mark.filterwarnings("error")  # an overflow in the power warns before it gives inf
def test_tail_constant_certificate_stays_finite_as_p_falls_to_1():
    # v = 0.25 on supp b: v^(-p'/p) = 4^(p') overflows for p' past about 512
    grid = make_grid(8.0, 256)
    v = constant(grid, 0.25)
    b = smooth_bump(grid, 0.0, 0.5)
    trunc = TruncationSpec(16 * grid.h)
    sample = sample_unit_ball(v, 2.0, 4, seed=7)
    limit = tail_constant(b, trunc, v, 1.0, sample, N0=2.0).v_certificate
    assert limit == 4.0
    gaps = [abs(tail_constant(b, trunc, v, p, sample, N0=2.0).v_certificate - limit)
            for p in (1.01, 1.001, 1.0001)]
    assert all(np.isfinite(gaps)) and gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3 * limit


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 2.0, 3.0, 10.0])
def test_tail_constant_certificate_matches_the_unscaled_formula(setup, p):
    # (sum over supp b of v^(-p'/p) h)^(1/p'), evaluated as written where it is finite
    grid, u, v, b, trunc, sample = setup
    pc = p / (p - 1.0)
    want = float(np.sum(v.values[b.values != 0.0] ** (-pc / p) * grid.h) ** (1.0 / pc))
    assert np.isfinite(want)
    got = tail_constant(b, trunc, v, p, sample, N0=2.0).v_certificate
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("on_supp", [-1.0, 0.0])
def test_tail_constant_rejects_nonpositive_v(setup, on_supp):
    grid, u, v, b, trunc, sample = setup
    bad = GridFunction(grid, np.where(b.values != 0.0, on_supp, v.values))
    with pytest.raises(ValueError, match="v must be positive everywhere"):
        tail_constant(b, trunc, bad, 2.0, sample, N0=2.0)


def test_operator_matrix_structure(setup):
    grid, u, v, b, trunc, sample = setup
    m = grid.cells
    assert np.array_equal(oracle.operator_matrix(constant(grid, 2.0), trunc, u, v),
                          np.zeros((m, m)))
    one = constant(grid, 1.0)
    A = oracle.operator_matrix(b, trunc, one, one)
    assert np.array_equal(A, A.T)  # both factors antisymmetric
    u0 = indicator(grid, 0.0, 1.0)
    A0 = oracle.operator_matrix(b, trunc, u0, one)
    dead = u0.values == 0.0
    assert np.array_equal(A0[dead], np.zeros((int(dead.sum()), m)))
    with pytest.raises(ValueError):
        oracle.operator_matrix(b, trunc, u, constant(grid, 0.0))


def test_operator_matrix_weighted_isometry(setup):
    grid, u, v, b, trunc, sample = setup
    A = oracle.operator_matrix(b, trunc, u, v)
    rng = np.random.default_rng(44)
    for _ in range(5):
        gvec = rng.standard_normal(grid.cells)
        f = GridFunction(grid, gvec / np.sqrt(v.values))
        lhs = np.sqrt(np.sum((A @ gvec) ** 2 * grid.h))
        rhs = lp_norm_weighted(commutator(b, f, trunc), u, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # matrix applied to coefficients of v^(1/2) f reproduces u^(1/2)[b,T]f
        coeff = np.sqrt(v.values) * f.values
        want = np.sqrt(u.values) * commutator(b, f, trunc).values
        scale = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(A @ coeff - want)) <= 1e-10 * scale


def _values(A: np.ndarray) -> np.ndarray:
    return compactness._split_values(*oracle.streamed(*oracle.scan_split(A)))


def test_singular_values_small_cases():
    s = _values(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(s, [3.0, 2.0, 1.0])
    x = np.array([1.0, 2.0, -1.0])
    y = np.array([0.5, 0.25, 2.0, 1.0])
    s = _values(np.outer(x, y))
    want = np.linalg.norm(x) * np.linalg.norm(y)
    assert s[0] == pytest.approx(want, rel=1e-12)
    assert np.all(s[1:] <= 1e-12 * want)
    theta = 0.3
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(_values(Q), [1.0, 1.0], rtol=1e-12)
    # power:255 at m = 16 gives entries near 1e298; v = 1e-300 sends them to inf
    grid = make_grid(16.0, 16)
    b, u, v = power_weight(grid, 255.0), constant(grid, 1.0), constant(grid, 1e-300)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        compactness._operator_split(b, TruncationSpec(8 * grid.h), u, v)


def test_spectral_report_contents():
    A = np.diag([4.0, 2.0, 1.0, 0.5])
    rep = compactness._report(_values(A), [1, 2])
    assert np.array_equal(rep.singular_values, [4.0, 2.0, 1.0, 0.5])
    total = 16.0 + 4.0 + 1.0 + 0.25
    assert rep.energy_tails[0] == pytest.approx((4.0 + 1.0 + 0.25) / total)
    assert rep.energy_tails[1] == pytest.approx((1.0 + 0.25) / total)
    assert rep.sigma_ratios == [pytest.approx(1.0), pytest.approx(0.5)]  # sigma_K / sigma_1
    # the energies of values whose squares overflow
    huge = compactness._report(2.0**1000 * rep.singular_values, [1, 2])
    assert huge.energy_tails == rep.energy_tails
    # the K range is checked once, at the public entries, before _report
    with pytest.raises(ValueError, match="K = 4 out of range for 4 singular values"):
        compactness._check_K([1, 4], 4)


def test_decay_compare_identical_symbols(setup):
    grid, u, v, b, trunc, sample = setup
    cmp = decay_compare(b, b, trunc, u, v, [grid.cells // 8])
    assert cmp.bmo_scale == 1.0
    assert np.array_equal(cmp.smooth.singular_values, cmp.spike.singular_values)
    assert cmp.smooth.energy_tails == cmp.spike.energy_tails


def test_decay_compare_zero_u(setup):
    grid, u, v, b, trunc, sample = setup
    zero_u = constant(grid, 0.0)
    spike = log_spike(grid, 0.01)
    cmp = decay_compare(b, spike, trunc, zero_u, v, [8])
    assert np.all(cmp.smooth.singular_values == 0.0)
    assert np.all(cmp.spike.singular_values == 0.0)


_MISMATCHED = {
    "operator_matrix": lambda b, trunc, u, v, sample: oracle.operator_matrix(b, trunc, u, v),
    "operator_spectral_report": lambda b, trunc, u, v, sample:
        operator_spectral_report(b, trunc, u, v, [4]),
    "decay_compare": lambda b, trunc, u, v, sample: decay_compare(b, b, trunc, u, v, [4]),
    "kr_bounded": lambda b, trunc, u, v, sample: kr_probe(sample, b, trunc, u, [], []),
    "kr_tail": lambda b, trunc, u, v, sample: kr_probe(sample, b, trunc, u, [0.5], []),
    "kr_equicontinuity": lambda b, trunc, u, v, sample: kr_probe(sample, b, trunc, u, [], [1]),
    "kr_probe": lambda b, trunc, u, v, sample: kr_probe(sample, b, trunc, u, [0.5], [1]),
    "tail_constant": lambda b, trunc, u, v, sample: tail_constant(b, trunc, v, 2.0, sample, 7.0),
}


@pytest.mark.parametrize("probe", _MISMATCHED.values(), ids=_MISMATCHED.keys())
def test_weighted_entry_points_reject_weights_on_another_grid(probe):
    # same cell count, another h: the numbers would come out with the wrong h
    g8, g1 = make_grid(8.0, 64), make_grid(1.0, 64)
    b, trunc = smooth_bump(g8, 0.0, 2.0), TruncationSpec(8 * g8.h)
    u, v = constant(g1, 1.0) + gaussian(g1, 0.0, 0.3), constant(g1, 2.0)
    sample = sample_unit_ball(constant(g8, 1.0), 2.0, 4, seed=1)
    with pytest.raises(ValueError, match="not on the symbol's Grid"):
        probe(b, trunc, u, v, sample)


def test_decay_compare_rejects_symbols_on_two_grids(setup):
    grid, u, v, b, trunc, sample = setup
    other = log_spike(make_grid(4.0, grid.cells), 0.01)
    with pytest.raises(ValueError, match="b_bmo lies on"):
        decay_compare(b, other, trunc, u, v, [8])


_BAD_KR_INPUT = {
    "kr_tail-radius": (lambda s, b, t, u: kr_probe(s, b, t, u, [1.0, 8.0], []),
                       "must be < the grid half-width"),
    "kr_probe-radius": (lambda s, b, t, u: kr_probe(s, b, t, u, [8.0], [1]),
                        "must be < the grid half-width"),
    "kr_equicontinuity-shift": (lambda s, b, t, u: kr_probe(s, b, t, u, [], [1, 4]),
                                r"eta/4.*allow_large_shifts=True"),
    "kr_probe-shift": (lambda s, b, t, u: kr_probe(s, b, t, u, [1.0], [1, 4]),
                       r"eta/4.*allow_large_shifts=True"),
    "kr_equicontinuity-past-grid": (
        lambda s, b, t, u: kr_probe(s, b, t, u, [], [600], allow_large_shifts=True),
        r"\|k_cells\| must be < 512"),
}


@pytest.mark.parametrize("probe, message", _BAD_KR_INPUT.values(), ids=_BAD_KR_INPUT.keys())
def test_kr_entry_points_check_inputs_before_any_commutator(setup, monkeypatch, probe, message):
    grid, u, v, b, trunc, sample = setup  # eta = 16 cells: shift 4 is |h| = eta/4
    calls = []
    images = compactness._commutator_rows  # every commutator image of a KR probe

    def counted(*args):
        calls.append(args)
        return images(*args)

    monkeypatch.setattr(compactness, "_commutator_rows", counted)
    with pytest.raises(ValueError, match=message):
        probe(sample, b, trunc, u)
    assert calls == []


def _fail(*args):
    raise AssertionError("reached past the input checks")


_SPECTRAL = {
    "operator_spectral_report": lambda b, trunc, u, v, K_list:
        operator_spectral_report(b, trunc, u, v, K_list),
    "decay_compare": lambda b, trunc, u, v, K_list: decay_compare(b, b, trunc, u, v, K_list),
}


@pytest.mark.parametrize("K", [0, 512])
@pytest.mark.parametrize("probe", _SPECTRAL.values(), ids=_SPECTRAL.keys())
def test_spectral_entry_points_check_K_before_the_spectral_pass(setup, monkeypatch, probe, K):
    grid, u, v, b, trunc, sample = setup
    monkeypatch.setattr(compactness, "_operator_split", _fail)
    with pytest.raises(ValueError, match=f"K = {K} out of range for 512 singular values"):
        probe(b, trunc, u, v, [1, K])


def test_tail_constant_checks_N0_before_imaging_the_sample(setup, monkeypatch):
    grid, u, v, b, trunc, sample = setup
    monkeypatch.setattr(compactness, "_commutator_images", _fail)
    with pytest.raises(ValueError, match="no grid cells beyond N0"):
        tail_constant(b, trunc, v, 2.0, sample, N0=grid.half_width)


def test_tail_constant_rejects_an_overflowing_C_bv(setup, monkeypatch):
    # images of 1e308 beyond N0 = 2: |g| |x| overflowed to inf, with a warning
    grid, u, v, b, trunc, sample = setup
    monkeypatch.setattr(compactness, "_commutator_images",
                        lambda sample, b, trunc: np.full((grid.cells, 16), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="C_bv is not finite"):
            tail_constant(b, trunc, v, 2.0, sample, N0=2.0)


def test_shift_decomposition_shares_the_kr_shift_message(setup):
    grid, u, v, b, trunc, sample = setup
    with pytest.raises(ValueError, match=r"eta/4.*allow_large_shifts=True"):
        shift_decomposition(b, sample.functions[0], trunc, 4)


def test_shift_decomposition_rejects_b_and_f_on_two_grids():
    # same cell count, another h: b's values would meet f's h
    g8, g1 = make_grid(8.0, 64), make_grid(1.0, 64)
    with pytest.raises(ValueError, match="b and f must share a grid"):
        shift_decomposition(smooth_bump(g8, 0.0, 2.0), gaussian(g1, 0.0, 0.3),
                            TruncationSpec(8 * g1.h), 1)
