import math

import numpy as np
import pytest

from bumplab import (
    KERNEL_CONSTANT,
    GridFunction,
    TruncationSpec,
    apply_truncated,
    commutator,
    constant,
    cutoff_psi,
    default_eta_grid,
    gaussian,
    indicator,
    lp_norm_weighted,
    make_grid,
    maximal_fn,
    maximal_truncation,
    sample_unit_ball,
    smooth_bump,
)
from bumplab.operators import _toeplitz, kernel_offsets
from kernel_oracle import hilbert, measured_regularity_constant


def test_cutoff_psi_values():
    assert cutoff_psi(1.0) == 0.0
    assert cutoff_psi(2.0) == 1.0
    assert cutoff_psi(0.3) == 0.0
    assert cutoff_psi(5.0) == 1.0
    assert cutoff_psi(1.5) == 0.5
    r = np.linspace(0, 3, 301)
    vals = cutoff_psi(r)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_cutoff_psi_c1_matching():
    eps = 1e-7
    for r in (1.0, 2.0):
        deriv = (cutoff_psi(r + eps) - cutoff_psi(max(r - eps, 0))) / (2 * eps)
        assert abs(deriv) <= 1e-6


def test_hilbert_kernel_bounds():
    g = make_grid(2.0, 256)
    x = g.centers
    dx = x[:, None] - x[None, :]
    off = np.abs(dx) > 0
    xr = np.broadcast_to(x[:, None], dx.shape)[off]
    xc = np.broadcast_to(x[None, :], dx.shape)[off]
    assert np.all(np.abs(hilbert(xr, xc)) * np.abs(dx[off]) <= KERNEL_CONSTANT + 1e-12)
    # finite-difference smoothness check on sample pairs
    eps = 1e-6
    for xi, yj in [(0.5, -0.5), (1.3, 0.1), (-1.7, 0.4)]:
        d = (hilbert(xi + eps, yj) - hilbert(xi - eps, yj)) / (2 * eps)
        assert abs(d) <= KERNEL_CONSTANT / abs(xi - yj) ** 2 * (1 + 1e-4)


def test_truncated_kernel_ring_behavior():
    g = make_grid(2.0, 128)
    eta = 8 * g.h
    trunc = TruncationSpec(eta)
    K = _toeplitz(kernel_offsets(g, trunc))
    x = g.centers
    dx = x[:, None] - x[None, :]
    r = np.abs(dx)
    inside = r <= eta
    outside = r > 2 * eta
    assert np.all(K[inside] == 0.0)
    xr = np.broadcast_to(x[:, None], K.shape)[outside]
    xc = np.broadcast_to(x[None, :], K.shape)[outside]
    assert np.array_equal(K[outside], hilbert(xr, xc))  # bit-for-bit beyond 2*eta
    ring = ~inside & ~outside
    assert np.all(np.abs(K[ring]) * r[ring] <= KERNEL_CONSTANT + 1e-12)


def test_truncation_validation():
    g = make_grid(1.0, 64)
    with pytest.raises(ValueError):
        TruncationSpec(0.0)
    with pytest.raises(ValueError):
        apply_truncated(constant(g, 1.0), TruncationSpec(g.h))  # eta < 2h


def test_regularity_constant_transfer():
    g = make_grid(2.0, 256)
    trunc = TruncationSpec(16 * g.h)
    c1 = measured_regularity_constant(trunc, g)
    c2 = measured_regularity_constant(trunc, g)
    assert c1 == c2  # fixed per (eta, grid)
    assert 0 < c1 < 10 * KERNEL_CONSTANT / min(1.0, trunc.eta)


def test_maximal_fn_matches_brute_force():
    rng = np.random.default_rng(2)
    for m in (8, 32, 64):
        g = make_grid(1.0, m)
        f = GridFunction(g, rng.standard_normal(m))
        got = maximal_fn(f).values
        af = np.abs(f.values)
        prefix = np.concatenate(([0.0], np.cumsum(af)))
        # one cell averages to |f_i| itself; a prefix difference would round it
        want = np.array([
            max(af[i], *((prefix[b] - prefix[a]) / (b - a)
                         for a in range(i + 1) for b in range(i + 1, m + 1) if b - a > 1))
            for i in range(m)
        ])
        assert np.array_equal(got, want)  # the same floats, and maxima are exact


def test_maximal_fn_basic_properties():
    g = make_grid(1.0, 128)
    assert np.array_equal(maximal_fn(constant(g, -3.0)).values, np.full(128, 3.0))
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.standard_normal(128))
    h = GridFunction(g, rng.standard_normal(128))
    Mf, Mh = maximal_fn(f), maximal_fn(h)
    Mfh = maximal_fn(f + h)
    assert np.all(Mfh.values <= Mf.values + Mh.values + 1e-12)
    assert np.all(Mf.values >= np.abs(f.values) - 1e-15)


def test_maximal_fn_indicator_envelope():
    g = make_grid(4.0, 512)
    f = indicator(g, -1.0, 1.0)
    Mf = maximal_fn(f)
    x = g.centers
    # M(chi_[-1,1]) is comparable to (1+|x|)^{-1} across the whole grid
    ratio = Mf.values * (1.0 + np.abs(x))
    assert ratio.min() >= 0.99
    i3 = int(np.argmin(np.abs(x - 3.0)))
    assert Mf.values[i3] == pytest.approx(0.5, abs=2 * g.h)


def test_apply_truncated_vanishes_inside_radius():
    g = make_grid(1.0, 128)
    eta = 16 * g.h
    i = 64
    # support within eta of center i: kernel vanishes there
    f = GridFunction(g, np.zeros(128))
    f.values[i - 10 : i + 10] = 1.0
    out = apply_truncated(f, TruncationSpec(eta))
    assert out.values[i] == 0.0


def test_apply_truncated_hilbert_closed_form():
    g = make_grid(4.0, 1024)
    f = indicator(g, 0.0, 1.0)
    out = apply_truncated(f, TruncationSpec(8 * g.h))
    x = g.centers
    for target in (-2.0, 2.0, 3.0):
        idx = np.argsort(np.abs(x - target))[:8]
        want = (1.0 / math.pi) * np.log(np.abs(x[idx] / (x[idx] - 1.0)))
        assert np.allclose(out.values[idx], want, rtol=0.02)


def test_apply_truncated_antisymmetry_for_even_f():
    g = make_grid(1.0, 256)
    f = gaussian(g, 0.0, 0.2)
    out = apply_truncated(f, TruncationSpec(8 * g.h)).values
    assert np.max(np.abs(out + out[::-1])) <= 1e-10 * np.max(np.abs(out))


def test_apply_truncated_linearity():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(77)
    f = GridFunction(g, rng.standard_normal(128))
    h = GridFunction(g, rng.standard_normal(128))
    trunc = TruncationSpec(4 * g.h)
    lhs = apply_truncated(GridFunction(g, 2.5 * f.values - 0.5 * h.values), trunc).values
    rhs = 2.5 * apply_truncated(f, trunc).values - 0.5 * apply_truncated(h, trunc).values
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_maximal_truncation_basics():
    g = make_grid(1.0, 128)
    zero = constant(g, 0.0)
    assert np.array_equal(maximal_truncation(zero).values, np.zeros(128))
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(128))
    base = maximal_truncation(f).values
    doubled = maximal_truncation(GridFunction(g, 2.0 * f.values)).values
    assert np.array_equal(doubled, 2.0 * base)  # exact for power-of-two scaling
    tripled = maximal_truncation(GridFunction(g, -3.0 * f.values)).values
    assert np.allclose(tripled, 3.0 * base, rtol=1e-14)
    assert default_eta_grid(g)[0] == 2 * g.h


def test_domination_by_maximal_and_sharp():
    g = make_grid(2.0, 256)
    sample = sample_unit_ball(constant(g, 1.0), 2.0, 5, seed=7)
    etas = [4 * g.h, 8 * g.h, 16 * g.h, 32 * g.h]
    worst = []
    for eta in etas:
        c = 0.0
        for f in sample.functions:
            Tf = apply_truncated(f, TruncationSpec(eta)).values
            Mf = maximal_fn(f).values
            Ts = maximal_truncation(f).values
            c = max(c, float(np.max(np.abs(Tf) / (Mf + Ts + 1e-300))))
        worst.append(c)
    assert max(worst) / min(worst) < 2.0


def test_commutator_constant_symbol_is_exactly_zero():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(128))
    out = commutator(constant(g, 5.0), f, TruncationSpec(4 * g.h))
    assert np.array_equal(out.values, np.zeros(128))


def test_commutator_linearity_in_symbol():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(13)
    trunc = TruncationSpec(4 * g.h)
    f = GridFunction(g, rng.standard_normal(128))
    b1 = GridFunction(g, rng.standard_normal(128))
    b2 = GridFunction(g, rng.standard_normal(128))
    lhs = commutator(b1 + b2, f, trunc).values
    rhs = commutator(b1, f, trunc).values + commutator(b2, f, trunc).values
    scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    # scaling by a power of two commutes with every float operation
    assert np.array_equal(commutator(GridFunction(g, 2 * b1.values), f, trunc).values,
                          2 * commutator(b1, f, trunc).values)


def test_commutator_two_code_paths_agree():
    g = make_grid(2.0, 256)
    rng = np.random.default_rng(23)
    trunc = TruncationSpec(8 * g.h)
    for _ in range(5):
        b = smooth_bump(g, float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 0.8)))
        f = GridFunction(g, rng.standard_normal(256))
        direct = commutator(b, f, trunc).values
        Tf = apply_truncated(f, trunc).values
        Tbf = apply_truncated(b * f, trunc).values
        indirect = b.values * Tf - Tbf
        scale = np.max(np.abs(b.values * Tf)) + np.max(np.abs(Tbf)) + 1e-300
        assert np.max(np.abs(direct - indirect)) <= 1e-12 * scale


def test_commutator_truncation_refinement_is_linear_in_eta():
    g = make_grid(2.0, 512)
    b = smooth_bump(g, 0.0, 0.8)
    rng = np.random.default_rng(40)
    one = constant(g, 1.0)
    for _ in range(5):
        f = GridFunction(g, rng.standard_normal(512))
        ratios = []
        for k in (32, 16, 8):
            eta = k * g.h
            d = commutator(b, f, TruncationSpec(eta)).values - \
                commutator(b, f, TruncationSpec(eta / 2)).values
            ratios.append(lp_norm_weighted(GridFunction(g, d), one, 2.0) / eta)
        assert max(ratios) / min(ratios) < 4.0
