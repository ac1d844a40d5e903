"""singular_values' row-compressed, values-only path against the with-vectors oracle.

Both paths are backward stable, so they agree to a small multiple of
eps * sigma_1 in absolute terms, not bit for bit. The stated tolerance is
SIGMA_TOL * sigma_1 for every value; the largest gap seen on these inputs, up
to m = 1024, is 3e-15 * sigma_1.

The commutator's spectrum from its arrow blocks (operator_spectral_report) is
held to the dense path bit for bit: the same split, QR input, Z and values.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svd_oracle as oracle
from bumplab import (
    TruncationSpec,
    constant,
    gaussian,
    GridFunction,
    indicator,
    iterate_maximal,
    log_spike,
    make_grid,
    operator_matrix,
    singular_values,
    smooth_bump,
)
from bumplab import compactness
from bumplab.cli import main, parse_function_spec

SIGMA_TOL = 1e-13


def _agree(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= SIGMA_TOL * want[0]


def _random_matrix(kind: str, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind == "gaussian":
        return scale * rng.standard_normal((m, n))
    if kind == "low_rank":
        r = int(rng.integers(1, min(m, n) + 1))
        return scale * rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if kind == "arrow":
        dense = int(rng.integers(0, m + 1))
        cols = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
        return scale * rng.permutation(_arrow(m, n, dense, cols, rng))
    # graded: singular values falling geometrically to far below eps * sigma_1
    k = min(m, n)
    Q1, _ = np.linalg.qr(rng.standard_normal((m, k)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return scale * (Q1 * np.logspace(0, -20, k)) @ Q2.T


def _arrow(m: int, n: int, dense: int, cols: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """`dense` full rows on top of m - dense rows confined to the columns cols,
    at a scale of their own."""
    A = np.zeros((m, n))
    A[:dense] = rng.standard_normal((dense, n))
    A[dense:, cols] = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((m - dense, len(cols)))
    return A


def _operator(m: int, symbol: str, weighted: bool) -> np.ndarray:
    grid = make_grid(8.0, m)
    if weighted:
        u = constant(grid, 1.0) + gaussian(grid, 0.0, 0.3)
        v = iterate_maximal(u, 5)
    else:
        u = v = constant(grid, 1.0)
    b = {"smooth": lambda: smooth_bump(grid, 0.0, 0.5),
         "spike": lambda: log_spike(grid, 0.01),
         "gaussian": lambda: constant(grid, 1.0) + gaussian(grid, 0.0, 0.3)}[symbol]()
    return operator_matrix(b, TruncationSpec(16 * grid.h), u, v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gaussian", "low_rank", "graded", "arrow")), m=st.integers(1, 64),
       n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_values_match_oracle_on_random_matrices(kind, m, n, seed):
    A = _random_matrix(kind, m, n, np.random.default_rng(seed))
    want = oracle.singular_values(A)
    _agree(singular_values(A), want)
    assert compactness._sigma1_lower_bound(A) <= (1.0 + 1e-12) * want[0]


@settings(max_examples=12, deadline=None)
@given(log_m=st.integers(3, 8), symbol=st.sampled_from(("smooth", "spike")),
       weighted=st.booleans())
def test_values_match_oracle_on_operator_matrices(log_m, symbol, weighted):
    A = _operator(2**log_m, symbol, weighted)
    _agree(singular_values(A), oracle.singular_values(A))


# (m, n, dense rows, columns the sparse rows touch)
@pytest.mark.parametrize("m, n, dense, touched", [
    (60, 20, 3, 7),    # tall: 3 + 7 rows left
    (40, 60, 5, 12),   # wide: 5 + 12 rows left
    (30, 30, 0, 10),   # no dense rows
    (40, 60, 20, 30),  # 20 sparse rows, fewer than the 30 columns: nothing saved
    (60, 20, 10, 10),  # 10 + 10 rows, not fewer than n = 20: nothing saved
])
def test_arrow_matrices_compress_and_match_oracle(m, n, dense, touched):
    rng = np.random.default_rng(m * n + dense)
    A = rng.permutation(_arrow(m, n, dense, rng.choice(n, touched, replace=False), rng))
    want = oracle.singular_values(A)
    got = singular_values(A)
    _agree(got, want)
    rank_bound = dense + min(m - dense, touched)
    if rank_bound < min(m, n):
        assert np.all(got[rank_bound:] == 0.0)  # exact zeros, not rounding noise
    else:
        assert compactness._row_compressed(A) is A


@pytest.mark.parametrize("symbol", ["smooth", "spike", "gaussian"])
def test_values_match_oracle_on_weighted_operators_at_1024(symbol):
    A = _operator(1024, symbol, weighted=True)
    _agree(singular_values(A), oracle.singular_values(A))


def _svd_rows(monkeypatch) -> list[int]:
    """Records the row count of every matrix np.linalg.svd receives."""
    rows, real_svd = [], np.linalg.svd

    def svd(matrix, *args, **kwargs):
        rows.append(np.shape(matrix)[0])
        return real_svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return rows


@pytest.mark.parametrize("j", [0, 3])
def test_bench_spectral_commands_svd_only_the_compressed_rows(tmp_path, monkeypatch, j):
    # the spectral benchmark's probe svd and compare at m = 1024: each SVD must
    # see at most 2 |supp b| + 2 rows, and every value past them is exactly 0
    b, spike = f"bump:{-0.15 + 0.1 * j:.2f},0.5", f"logspike:{0.01 * (j + 1):.2f}"
    common = ["--u", f"const:1+gaussian:{-0.3 + 0.2 * j:.2f},0.3",
              "--v", f"const:1+gaussian:{0.3 - 0.2 * j:.2f},0.6",
              "--eta-cells", "16", "--K-list", "64,256", "--L", "8", "--m", "1024",
              "--out", str(tmp_path)]
    rows = _svd_rows(monkeypatch)
    assert main(["probe", "svd", "--b", b, *common]) == 0
    assert main(["compare", "--b-cmo", b, "--b-bmo", spike, *common]) == 0
    probe = json.loads((tmp_path / "probe_svd.json").read_text())["result"]
    compare = json.loads((tmp_path / "compare.json").read_text())["result"]

    grid = make_grid(8.0, 1024)

    def support(spec: str) -> int:  # cells where b differs from its value off them
        values = parse_function_spec(grid, spec).values
        return int(np.count_nonzero(values != values[0]))

    supports = [support(b), support(b), support(spike)]
    assert supports[0] == 64 and 120 <= supports[2] <= 130
    results = [probe, compare["smooth"], compare["spike"]]
    assert len(rows) == len(results)
    for n_rows, s, result in zip(rows, supports, results):
        assert n_rows <= 2 * s + 2
        sigma = np.array(result["singular_values"])
        assert sigma.size == 1024 and sigma[0] > 0.0
        assert np.all(sigma[n_rows:] == 0.0)


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("symbol", ["smooth", "spike"])
def test_values_match_eigvalsh_on_symmetric_operator(m, symbol):
    # u = v = const makes C_ij = (b_i - b_j) K(x_i - x_j) h exactly symmetric
    A = _operator(m, symbol, weighted=False)
    _agree(singular_values(A), oracle.symmetric_singular_values(A))


def _corrupt_svd(monkeypatch, corrupt):
    real_svd = np.linalg.svd

    def svd(matrix, *args, **kwargs):
        return corrupt(real_svd(matrix, *args, **kwargs).copy())

    monkeypatch.setattr(np.linalg, "svd", svd)


def _scale_first(factor):
    def corrupt(s):
        s[0] *= factor
        return s
    return corrupt


@pytest.mark.parametrize("corrupt, check", [
    (_scale_first(1.0 + 1e-6), "sum of sigma"),
    (_scale_first(1.0 - 1e-4), "sum of sigma"),
    (lambda s: np.delete(s, s.size // 8), "sum of sigma"),  # sigma^2 ~ 1e-8 ||A||_F^2
])
def test_checks_flag_corrupted_spectrum(monkeypatch, corrupt, check):
    A = _operator(256, "spike", weighted=True)
    singular_values(A)  # the uncorrupted spectrum passes
    _corrupt_svd(monkeypatch, corrupt)
    with pytest.raises(FloatingPointError, match=check):
        singular_values(A)


def test_power_bound_flags_energy_preserving_sigma1_drop(monkeypatch):
    # sigma_1 falls by 1e-4 and sigma_2 takes up the lost energy, so
    # sum(sigma^2) still matches ||A||_F^2 and only the power bound can see it
    rng = np.random.default_rng(5)
    Q1, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    Q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = (Q1 * 0.5 ** np.arange(40)) @ Q2.T

    def corrupt(s):
        lost = s[0] ** 2 * (1.0 - (1.0 - 1e-4) ** 2)
        s[0] *= 1.0 - 1e-4
        s[1] = np.sqrt(s[1] ** 2 + lost)
        return s

    _corrupt_svd(monkeypatch, corrupt)
    with pytest.raises(FloatingPointError, match="power-iteration"):
        singular_values(A)


@pytest.mark.filterwarnings("error")  # a 0/0 normalisation warns before it gives NaN
def test_power_bound_handles_a_vector_that_reaches_zero():
    # A = 0 sends the start to 0 after one step; the bound stays 0, not NaN
    assert compactness._sigma1_lower_bound(np.zeros((5, 3))) == 0.0
    assert np.array_equal(singular_values(np.zeros((5, 3))), np.zeros(3))
    # a matrix that (up to rounding) annihilates the fixed start vector
    x0 = np.random.default_rng(0).standard_normal(3)
    A = np.array([[x0[1], -x0[0], 0.0], [0.0, 0.0, 0.0]])
    bound = compactness._sigma1_lower_bound(A)
    assert np.isfinite(bound) and bound <= np.hypot(x0[0], x0[1]) * (1.0 + 1e-12)
    assert singular_values(A)[0] == pytest.approx(np.hypot(x0[0], x0[1]), rel=1e-15)


def _symbol(kind: str, grid, rng: np.random.Generator) -> GridFunction:
    m = grid.cells
    if kind == "bump":  # radius up to 5 of the half-width 8: s > m/2 at the top
        return smooth_bump(grid, rng.uniform(-3.0, 3.0), rng.uniform(0.3, 5.0))
    if kind == "indicator":
        a = rng.uniform(-8.0, 6.0)
        return indicator(grid, a, rng.uniform(a + 0.5, 8.5))
    if kind == "logspike":
        return log_spike(grid, 10.0 ** rng.uniform(-3, 0))
    if kind == "const":  # s = 0: every value is exactly 0.0
        return constant(grid, rng.uniform(-2.0, 2.0))
    if kind == "piecewise":
        blocks = min(m, 2 ** int(rng.integers(1, 5)))
        return GridFunction(grid, np.repeat(rng.standard_normal(blocks), m // blocks))
    if kind == "random":  # s = m - 1
        return GridFunction(grid, rng.standard_normal(m))
    # odd cell 0: S is every other cell, yet A has rank at most 2
    values = np.full(m, rng.uniform(-2.0, 2.0))
    values[0] += 1.0
    return GridFunction(grid, values)


def _weight(kind: str, grid) -> GridFunction:
    if kind == "one":
        return constant(grid, 1.0)
    if kind == "gaussian":
        return constant(grid, 1.0) + gaussian(grid, 0.3, 0.6)
    return indicator(grid, -4.0, 2.0)  # zero on some cells (u only)


def _assert_block_path_is_dense_path(b, trunc, u, v) -> None:
    A = operator_matrix(b, trunc, u, v)
    want = compactness._scan_split(A)
    got = compactness._operator_split(b, trunc, u, v)
    for g, w in zip(got, want):  # same split, same floats, signed zeros included
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.array_equal(compactness._compressed(*got), compactness._row_compressed(A))
    assert np.array_equal(compactness._split_values(*got), singular_values(A))


_SYMBOLS = ("bump", "indicator", "logspike", "const", "piecewise", "random", "odd_cell_0")


@settings(max_examples=40, deadline=None)
@given(symbol=st.sampled_from(_SYMBOLS), log_m=st.integers(3, 10),
       eta=st.sampled_from(("2 cells", "16 cells", "L/2", "L")),
       u_kind=st.sampled_from(("one", "gaussian", "zero cells")),
       v_kind=st.sampled_from(("one", "gaussian")), seed=st.integers(0, 2**32 - 1))
def test_block_path_matches_dense_path(symbol, log_m, eta, u_kind, v_kind, seed):
    grid = make_grid(8.0, 2**log_m)
    eta_cells = {"2 cells": 2, "16 cells": 16, "L/2": grid.cells // 4, "L": grid.cells // 2}
    trunc = TruncationSpec(max(2, eta_cells[eta]) * grid.h)
    b = _symbol(symbol, grid, np.random.default_rng(seed))
    _assert_block_path_is_dense_path(b, trunc, _weight(u_kind, grid), _weight(v_kind, grid))


@pytest.mark.parametrize("m", [64, 1024])
def test_block_path_with_eta_about_L_reaches_off_the_support(m):
    # eta = L: the rows on S fall under m/2 nonzeros, so they join the QR, and
    # the columns they touch lie off S
    grid = make_grid(8.0, m)
    b = smooth_bump(grid, 0.0, 0.5)
    trunc = TruncationSpec(8.0)
    u, v = _weight("zero cells", grid), _weight("gaussian", grid)
    dense, block, cols = compactness._operator_split(b, trunc, u, v)
    S = np.flatnonzero(b.values != b.values[0])
    assert dense.shape[0] < S.size and not np.all(np.isin(cols, S))
    _assert_block_path_is_dense_path(b, trunc, u, v)


@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01", "indicator:-6,5"])
def test_block_path_matches_dense_path_on_bench_weights_at_1024(symbol):
    # indicator:-6,5 covers 11/16 of the grid: s > m/2
    grid = make_grid(8.0, 1024)
    u = parse_function_spec(grid, "const:1+gaussian:-0.30,0.3")
    v = parse_function_spec(grid, "const:1+gaussian:0.30,0.6")
    _assert_block_path_is_dense_path(parse_function_spec(grid, symbol),
                                      TruncationSpec(16 * grid.h), u, v)


def test_probe_svd_holds_no_m_by_m_array(tmp_path):
    # the bench's probe svd at m = 1024: one m x m float64 array is 8 MiB, and
    # the peak, about 2.7 MB, is Z, its dense rows and its sparse block
    m = 1024
    argv = ["probe", "svd", "--b", "bump:-0.15,0.5", "--u", "const:1+gaussian:-0.30,0.3",
            "--v", "const:1+gaussian:0.30,0.6", "--eta-cells", "16", "--K-list", "64,256",
            "--L", "8", "--m", str(m), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m / 2
