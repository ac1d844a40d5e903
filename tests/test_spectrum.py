"""The compressed, values-only spectrum (compactness._split_values) against the
with-vectors oracle, the row-only compression and the whole-array QRs it
replaced, on any matrix through the oracle's split of it (svd_oracle.scan_split,
handed over by svd_oracle.streamed in row chunks with the arrow's products).
Folding the arms a few rows at a time agrees with the QRs of the whole arms
(svd_oracle.split_values) to SIGMA_TOL * sigma_1, and is those floats when
the arms come in one chunk.

All three paths are backward stable, so they agree to a small multiple of
eps * sigma_1 in absolute terms, not bit for bit. The stated tolerance is
SIGMA_TOL * sigma_1 for every value; the largest gap seen on these inputs, up
to m = 1024, is 3e-15 * sigma_1 against the SVD with vectors and 2e-15 *
sigma_1 against the row-only compression (6e-16 * sigma_1 on the operators).

The commutator's split (compactness._operator_split) is read off the inputs
and returned as the arrow A = [[D_S, D_rest], [B, 0]]: D_S, then the row
chunks of the arms (B, D_rest^T) as they are evaluated, which the tests stack
into the oracle's (D_S, D_rest^T, B). S is where the symbol differs from its
most common value, D_S and D_rest are the live rows (u > 0) on S, on S and
off it, and B is the other live rows on the columns S. Both arms come from one kernel
gather. On the benchmark's inputs the split is the oracle's nonzero-count
split of the whole operator matrix, scan_split(operator_matrix(...)): D_S and
B bit for bit, and D_rest^T by value, since its zeros carry the other sign;
so the same core and values. Its values are bit for bit those of the path
that built the dense rows whole (svd_oracle.dense_rows_values) on the
benchmark's inputs, and within SIGMA_TOL * sigma_1 of it over the hypothesis
domain below, where the worst gap found in 700 draws was 1.3e-15 * sigma_1:
with eta near L, zeros of the other sign lead some of D_rest^T's columns,
so a Householder reflection of its QR flips sign and rounds differently.
Elsewhere the split and the nonzero-count split can differ
(a symbol whose cell 0 is not its common value, rows where u vanishes, eta
near L), and the values are held to the old path to SIGMA_TOL * sigma_1,
with every value past the core's side an exact 0.0. The tests also count the
kernel entries each spectrum gathers: D_S's and one gather for both arms, in
row chunks that add up to it, and no row where u vanishes is evaluated.
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
    smooth_bump,
)
from bumplab import compactness
from bumplab.cli import main, parse_function_spec

SIGMA_TOL = 1e-13


def _values(A: np.ndarray) -> np.ndarray:
    """The package's spectrum of a matrix at hand, split by the oracle."""
    return compactness._split_values(*oracle.streamed(*oracle.scan_split(A)))


def _bound(A: np.ndarray) -> float:
    """The package's power bound on sigma_1 of a matrix at hand, from the
    products of the oracle's split of it."""
    _, _, matvec, rmatvec = oracle.streamed(*oracle.scan_split(A))
    return compactness._sigma1_lower_bound(A.shape[1], matvec, rmatvec, 0)


def _core(D_S: np.ndarray, chunks) -> np.ndarray:
    """The package's core from D_S and the arms' row chunks."""
    return compactness._compressed(D_S, chunks)[0]


def _oracle_core(split) -> np.ndarray:
    return _core(*oracle.streamed(*split)[:2])


def _stacked(b, trunc, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's split with its chunks stacked: the arrow (D_S, D_rest^T, B)
    in the oracle's format."""
    D_S, chunks, _, _ = compactness._operator_split(b, trunc, u, v)
    chunks = list(chunks)
    return (D_S, np.concatenate([D for _, D in chunks] or [np.zeros((0, D_S.shape[0]))]),
            np.concatenate([B for B, _ in chunks] or [np.zeros((0, D_S.shape[1]))]))


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


def _arrow(m: int, n: int, dense: int, cols: np.ndarray, rng: np.random.Generator,
           groups: int = 1) -> np.ndarray:
    """`dense` full rows on top of m - dense rows confined to the columns cols,
    at a scale of their own. With groups > 1 the sparse rows take turns on
    that many disjoint parts of cols, so together they can touch more than
    the n/2 columns any one of them may."""
    A = np.zeros((m, n))
    A[:dense] = rng.standard_normal((dense, n))
    scale = 10.0 ** rng.uniform(-3, 3)
    for g, part in enumerate(np.array_split(cols, groups)):
        rows = np.arange(dense + g, m, groups)
        A[np.ix_(rows, part)] = scale * rng.standard_normal((rows.size, part.size))
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
    return oracle.operator_matrix(b, TruncationSpec(16 * grid.h), u, v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gaussian", "low_rank", "graded", "arrow")), m=st.integers(1, 64),
       n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_values_match_oracle_on_random_matrices(kind, m, n, seed):
    A = _random_matrix(kind, m, n, np.random.default_rng(seed))
    want = oracle.singular_values(A)
    _agree(_values(A), want)
    assert _bound(A) <= (1.0 + 1e-12) * want[0]


@settings(max_examples=12, deadline=None)
@given(log_m=st.integers(3, 8), symbol=st.sampled_from(("smooth", "spike")),
       weighted=st.booleans())
def test_values_match_oracle_on_operator_matrices(log_m, symbol, weighted):
    A = _operator(2**log_m, symbol, weighted)
    _agree(_values(A), oracle.singular_values(A))


# (m, n, dense rows, columns the sparse rows touch)
@pytest.mark.parametrize("m, n, dense, touched", [
    (60, 20, 3, 7),    # tall: a 10 x 10 core
    (40, 60, 5, 12),   # wide: a 17 x 17 core
    (30, 200, 4, 20),  # very wide: the QR of D_rest^T takes 180 rows of 4 columns
    (30, 30, 0, 10),   # no dense rows: the core is the 10 x 10 R
    (60, 30, 2, 27),   # sparse rows on 14 or 13 columns: D_rest^T has 3 rows
    (40, 60, 20, 30),  # 20 sparse rows, fewer than the 30 columns: nothing saved
    (60, 20, 10, 10),  # 10 + 10 rows, not fewer than n = 20: nothing saved
])
def test_arrow_matrices_compress_and_match_oracle(m, n, dense, touched):
    rng = np.random.default_rng(m * n + dense)
    cols = rng.choice(n, touched, replace=False)
    groups = -(-touched // (n // 2))  # a sparse row has at most n/2 nonzeros
    A = rng.permutation(_arrow(m, n, dense, cols, rng, groups))
    want = oracle.singular_values(A)
    got = _values(A)
    _agree(got, want)
    split = oracle.scan_split(A)
    side = dense + min(m - dense, touched)
    if side < min(m, n):
        assert _oracle_core(split).shape == (side, side)
        _agree(got, oracle.row_compressed_values(*split))
        assert np.all(got[side:] == 0.0)  # exact zeros, not rounding noise
    else:
        assert _oracle_core(split) is A


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 64), groups=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_core_matches_row_only_oracle_on_arrow_matrices(m, n, groups, seed):
    rng = np.random.default_rng(seed)
    dense = int(rng.integers(0, m + 1))
    cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    A = rng.permutation(_arrow(m, n, dense, cols, rng, groups))
    split = oracle.scan_split(A)
    got = compactness._split_values(*oracle.streamed(*split))
    _agree(got, oracle.row_compressed_values(*split))
    _agree(got, oracle.singular_values(A))
    if split[2].shape[0]:  # the split saves rows: a square core
        side = sum(split[0].shape)
        assert _oracle_core(split).shape == (side, side)
        assert np.all(got[side:] == 0.0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 64), groups=st.integers(1, 3),
       rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_fold_of_row_chunks_matches_whole_array_oracle(m, n, groups, rows, seed):
    # the arms folded a few rows at a time into the R factors give the values of
    # the QRs of the whole arms, and the same floats when they come in one chunk
    rng = np.random.default_rng(seed)
    dense = int(rng.integers(0, m + 1))
    cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    split = oracle.scan_split(rng.permutation(_arrow(m, n, dense, cols, rng, groups)))
    want = oracle.split_values(*split)
    assert compactness._split_values(*oracle.streamed(*split)).tobytes() == want.tobytes()
    got = compactness._split_values(*oracle.streamed(*split, rows=rows))
    _agree(got, want)
    if split[2].shape[0]:  # the split saves rows: values past the core's side are exact zeros
        side = sum(split[0].shape)
        assert _core(*oracle.streamed(*split, rows=rows)[:2]).shape == (side, side)
        assert np.all(got[side:] == 0.0)


@pytest.mark.parametrize("symbol", ["smooth", "spike", "gaussian"])
def test_values_match_oracle_on_weighted_operators_at_1024(symbol):
    A = _operator(1024, symbol, weighted=True)
    _agree(_values(A), oracle.singular_values(A))


def _bench_weights(grid) -> tuple[GridFunction, GridFunction]:
    return (parse_function_spec(grid, "const:1+gaussian:-0.30,0.3"),
            parse_function_spec(grid, "const:1+gaussian:0.30,0.6"))


# const:1+gaussian differs from b_0 on 329 cells: a 658 x 658 core
@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01",
                                    "const:1+gaussian:-0.30,0.3"])
def test_core_values_match_both_oracles_on_bench_operators_at_1024(symbol):
    grid = make_grid(8.0, 1024)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = _bench_weights(grid)
    split = _stacked(b, trunc, u, v)
    got = compactness._split_values(*compactness._operator_split(b, trunc, u, v))
    _agree(got, oracle.row_compressed_values(*split))
    _agree(got, oracle.singular_values(oracle.operator_matrix(b, trunc, u, v)))
    side = sum(split[0].shape)
    assert _core(*compactness._operator_split(b, trunc, u, v)[:2]).shape == (side, side)
    assert np.all(got[side:] == 0.0)


def _svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Records the shape of every matrix np.linalg.svd receives."""
    shapes, real_svd = [], np.linalg.svd

    def svd(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return real_svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes


@pytest.mark.parametrize("j", [0, 3])
def test_bench_spectral_commands_svd_only_the_compressed_rows(tmp_path, monkeypatch, j):
    # the spectral benchmark's probe svd and compare at m = 1024: each SVD must
    # see a square core of side at most 2 |supp b| + 2, and every value past
    # its side is exactly 0
    b, spike = f"bump:{-0.15 + 0.1 * j:.2f},0.5", f"logspike:{0.01 * (j + 1):.2f}"
    common = ["--u", f"const:1+gaussian:{-0.3 + 0.2 * j:.2f},0.3",
              "--v", f"const:1+gaussian:{0.3 - 0.2 * j:.2f},0.6",
              "--eta-cells", "16", "--K-list", "64,256", "--L", "8", "--m", "1024",
              "--out", str(tmp_path)]
    shapes = _svd_shapes(monkeypatch)
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
    assert len(shapes) == len(results)
    for shape, s, result in zip(shapes, supports, results):
        side = shape[0]
        assert shape == (side, side) and side <= 2 * s + 2
        sigma = np.array(result["singular_values"])
        assert sigma.size == 1024 and sigma[0] > 0.0
        assert np.all(sigma[side:] == 0.0)


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("symbol", ["smooth", "spike"])
def test_values_match_eigvalsh_on_symmetric_operator(m, symbol):
    # u = v = const makes C_ij = (b_i - b_j) K(x_i - x_j) h exactly symmetric
    A = _operator(m, symbol, weighted=False)
    _agree(_values(A), oracle.symmetric_singular_values(A))


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
    _values(A)  # the uncorrupted spectrum passes
    _corrupt_svd(monkeypatch, corrupt)
    with pytest.raises(FloatingPointError, match=check):
        _values(A)


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
        _values(A)


@pytest.fixture
def two_blas_threads():
    """OpenBLAS's thread count getter, with the count at 2 for the test and put
    back after it, whatever the environment set."""
    threads = compactness._openblas_threads()
    if threads is None:
        pytest.skip("this numpy ships no OpenBLAS")
    get, set_ = threads
    old = get()
    set_(2)
    yield get
    set_(old)


def _bench_spectrum(symbol: str) -> np.ndarray:
    grid = make_grid(8.0, 1024)
    u, v = _bench_weights(grid)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    return compactness.operator_spectral_report(b, trunc, u, v, [64, 256]).singular_values


def test_blas_thread_cap_holds_narrow_calls_only(two_blas_threads):
    with compactness._one_blas_thread(compactness._ONE_THREAD_COLS):
        assert two_blas_threads() == 1
    assert two_blas_threads() == 2
    with compactness._one_blas_thread(compactness._ONE_THREAD_COLS + 1):
        assert two_blas_threads() == 2
    with pytest.raises(ValueError, match="inside"):
        with compactness._one_blas_thread(1):
            raise ValueError("inside")
    assert two_blas_threads() == 2


def test_spectrum_restores_the_blas_thread_count(two_blas_threads, monkeypatch):
    _bench_spectrum("bump:-0.15,0.5")
    assert two_blas_threads() == 2
    monkeypatch.setattr(compactness, "_sigma1_lower_bound", lambda *args: 1e300)
    with pytest.raises(FloatingPointError, match="power-iteration"):
        _bench_spectrum("bump:-0.15,0.5")
    assert two_blas_threads() == 2


@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01"])
def test_values_without_openblas_agree_with_the_capped_values(two_blas_threads, monkeypatch,
                                                              symbol):
    capped = _bench_spectrum(symbol)
    monkeypatch.setattr(compactness, "_openblas_threads", lambda: None)
    _agree(_bench_spectrum(symbol), capped)
    assert two_blas_threads() == 2


@pytest.mark.filterwarnings("error")  # a 0/0 normalisation warns before it gives NaN
def test_power_bound_handles_a_vector_that_reaches_zero():
    # A = 0 sends the start to 0 after one step; the bound stays 0, not NaN
    assert _bound(np.zeros((5, 3))) == 0.0
    assert np.array_equal(_values(np.zeros((5, 3))), np.zeros(3))
    # a matrix that (up to rounding) annihilates the package's fixed start vector;
    # the oracle's split keeps its columns in order, as the rest of D_rest
    x0 = compactness._power_start(3)
    A = np.array([[x0[1], -x0[0], 0.0], [0.0, 0.0, 0.0]])
    assert oracle.scan_split(A)[0].shape == (1, 0)
    bound = _bound(A)
    assert np.isfinite(bound) and bound <= np.hypot(x0[0], x0[1]) * (1.0 + 1e-12)
    assert _values(A)[0] == pytest.approx(np.hypot(x0[0], x0[1]), rel=1e-15)


def test_operator_that_is_exactly_zero_has_a_zero_spectrum(tmp_path):
    # b leaves its common value on cell 0 alone, where u vanishes, and the kernel
    # vanishes between cell 0 and every live row: A = 0, while the FFT products'
    # rounding gave a power bound of 1.7e-18, which failed the check on sigma_1 = 0
    grid = make_grid(8.0, 8)
    b = parse_function_spec(grid, "1+indicator:-8,-6")
    u, v = indicator(grid, -4.0, 2.0), constant(grid, 1.0)
    rep = compactness.operator_spectral_report(b, TruncationSpec(4 * grid.h), u, v, [1])
    assert np.array_equal(rep.singular_values, np.zeros(8))
    assert main(["probe", "svd", "--b", "1+indicator:-8,-6", "--u", "indicator:-4,2",
                 "--v", "const:1", "--L", "8", "--m", "8", "--eta-cells", "4",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01", "indicator:-6,5"])
@pytest.mark.parametrize("u_spec", ["const:1+gaussian:-0.30,0.3", "indicator:-4,2"])
def test_operator_products_are_the_operator_matrix(symbol, u_spec):
    # the power bound's FFT products A x and A^T y agree with the dense matrix
    # to rounding (1e-17 of ||A||_F ||x|| seen), and the bound from them lies
    # below sigma_1 and near it
    m = 256
    grid = make_grid(8.0, m)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = parse_function_spec(grid, u_spec), _bench_weights(grid)[1]
    A = oracle.operator_matrix(b, trunc, u, v)
    _, _, matvec, rmatvec = compactness._operator_split(b, trunc, u, v)
    x = np.random.default_rng(1).standard_normal(m)
    scale = np.linalg.norm(A) * np.linalg.norm(x)
    assert np.max(np.abs(matvec(x) - A @ x)) <= 1e-14 * scale
    assert np.max(np.abs(rmatvec(x) - A.T @ x)) <= 1e-14 * scale
    sigma_1 = oracle.singular_values(A)[0]
    assert 0.99 * sigma_1 <= compactness._sigma1_lower_bound(m, matvec, rmatvec, 0)
    assert compactness._sigma1_lower_bound(m, matvec, rmatvec, 0) <= (1.0 + 1e-12) * sigma_1


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
    A = oracle.operator_matrix(b, trunc, u, v)
    want = oracle.scan_split(A)
    got = _stacked(b, trunc, u, v)
    for g, w in zip(got, want):  # same split, same floats
        assert g.shape == w.shape and np.array_equal(g, w)
    # signed zeros included, but for D_rest^T: the gather's zeros carry the other sign
    assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()
    assert np.array_equal(_core(*compactness._operator_split(b, trunc, u, v)[:2]),
                          _oracle_core(want))
    values = compactness._split_values(*compactness._operator_split(b, trunc, u, v))
    assert values.tobytes() == _values(A).tobytes() == oracle.split_values(*want).tobytes()


_SYMBOLS = ("bump", "indicator", "logspike", "const", "piecewise", "random", "odd_cell_0")


def _support(b: GridFunction) -> np.ndarray:
    """S: the cells where b differs from its most common value, the smallest of
    those that tie."""
    values, counts = np.unique(b.values, return_counts=True)
    return np.flatnonzero(b.values != values[np.argmax(counts)])


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
    u, v = _weight(u_kind, grid), _weight(v_kind, grid)
    got = compactness.operator_spectral_report(b, trunc, u, v, [1]).singular_values
    _agree(got, _values(oracle.operator_matrix(b, trunc, u, v)))
    old = oracle.dense_rows_values(b, trunc, u, v)
    _agree(got, np.concatenate([old, np.zeros(grid.cells - old.size)]))
    D_S = compactness._operator_split(b, trunc, u, v)[0]
    assert np.all(got[D_S.shape[0] + _support(b).size:] == 0.0)


@pytest.mark.parametrize("m", [64, 1024])
def test_block_path_with_eta_about_L_keeps_the_live_rows_on_S_dense(m):
    # eta = L: a row on S has fewer than m/2 nonzeros, yet it stays a dense row,
    # and the block takes the columns S alone
    grid = make_grid(8.0, m)
    b = smooth_bump(grid, 0.0, 0.5)
    trunc = TruncationSpec(8.0)
    u, v = _weight("zero cells", grid), _weight("gaussian", grid)
    D_S, D_restT, B = _stacked(b, trunc, u, v)
    S, live = _support(b), np.flatnonzero(u.values > 0)
    off = np.setdiff1d(np.arange(m), S)
    on_S = np.intersect1d(live, S)
    for got, rows, on in ((D_S, on_S, S), (B, np.setdiff1d(live, S), S)):
        want = compactness._operator_block(b, trunc, u, v, rows, on)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the gather's zeros carry the other sign, so D_rest^T matches by value
    assert np.array_equal(D_restT, compactness._operator_block(b, trunc, u, v, on_S, off).T)
    _agree(compactness._split_values(*oracle.streamed(D_S, D_restT, B)),
           oracle.singular_values(oracle.operator_matrix(b, trunc, u, v))[: live.size])


@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01", "indicator:-6,5"])
def test_block_path_matches_dense_path_on_bench_weights_at_1024(symbol):
    # indicator:-6,5 covers 11/16 of the grid: s > m/2
    grid = make_grid(8.0, 1024)
    u, v = _bench_weights(grid)
    _assert_block_path_is_dense_path(parse_function_spec(grid, symbol),
                                      TruncationSpec(16 * grid.h), u, v)


@pytest.mark.parametrize("m", [1024, 4096])
@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01", "indicator:-8,-7.5"])
def test_values_bit_identical_to_dense_rows_path_on_bench_inputs(m, symbol):
    # both arms from one gather give the same floats as the dense rows built
    # whole and compressed by an LQ after np.delete
    grid = make_grid(8.0, m)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = _bench_weights(grid)
    got = compactness._split_values(*compactness._operator_split(b, trunc, u, v))
    assert got.tobytes() == oracle.dense_rows_values(b, trunc, u, v).tobytes()


def test_probe_svd_holds_no_m_by_m_array(tmp_path):
    # the bench's probe svd at m = 1024: one m x m float64 array is 8 MiB, and
    # the peak, about 2 MiB, is the gather and the arrow's three arrays, with
    # the working copies of a QR
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


def _whole_array_budget(m: int, d: int, s: int, r: int) -> int:
    """The bytes _operator_split checked before the streamed pass: D_S, the gather,
    B and D_rest^T held whole, the larger QR's copies and the core's two."""
    side = (d + min(r, s), s + min(m - s, d))
    arms = (m - s) * (s + d) + r * s
    return 8 * (d * s * (arms > 0) + arms + 2 * max(r * s, (m - s) * d) + 2 * side[0] * side[1])


@pytest.mark.parametrize("floor", [compactness._CHUNK_FLOOR, 512])  # one chunk, or several
@pytest.mark.parametrize("symbol", ["bump:-0.15,0.5", "logspike:0.01"])
def test_memory_budget_covers_the_traced_peak(monkeypatch, symbol, floor):
    # the budget checked before any entry is evaluated is at least what the
    # spectrum allocates through numpy (LAPACK's own copies are not traced), and
    # at most what the whole arms took
    m = 4096
    monkeypatch.setattr(compactness, "_CHUNK_FLOOR", floor)
    grid = make_grid(8.0, m)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = _bench_weights(grid)
    budgets, real = [], compactness.check_dense_fits
    monkeypatch.setattr(compactness, "check_dense_fits",
                        lambda nbytes, *args: budgets.append(nbytes) or real(nbytes, *args))
    tracemalloc.start()
    try:
        compactness.operator_spectral_report(b, trunc, u, v, [64])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    s = _support(b).size
    assert (compactness._chunk_rows(s) < m - s) == (floor == 512)
    assert peak <= budgets[0] <= _whole_array_budget(m, s, s, m - s)


def test_left_edge_symbol_keeps_a_core_of_twice_its_support(monkeypatch):
    # b_0 = 1 lies on the 128 cells of the indicator: counted off b_0, S would
    # be the other 3968 cells and the split nearly the whole m x m matrix
    m = 4096
    grid = make_grid(8.0, m)
    b = parse_function_spec(grid, "indicator:-8,-7.5")
    u, v = _bench_weights(grid)
    S = _support(b)
    assert S.size == 128 and S[0] == 0
    shapes = _svd_shapes(monkeypatch)
    tracemalloc.start()
    try:
        s = compactness.operator_spectral_report(b, TruncationSpec(16 * grid.h), u, v,
                                                 [64]).singular_values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes == [(2 * S.size, 2 * S.size)]
    assert s.size == m and s[0] > 0.0 and np.all(s[2 * S.size:] == 0.0)
    # about 12 MiB: the gather, B, D_S and the working copies of a QR
    assert peak < 8 * m * m / 4  # one m x m float64 array is 128 MiB


def _counting_block(monkeypatch) -> list[np.ndarray]:
    """Records the rows of every _operator_block call."""
    calls, real = [], compactness._operator_block

    def block(b, trunc, u, v, rows, cols):
        calls.append(rows)
        return real(b, trunc, u, v, rows, cols)

    monkeypatch.setattr(compactness, "_operator_block", block)
    return calls


def _counting_gathers(monkeypatch) -> list[tuple[int, ...]]:
    """Records the shape of every gather from compactness's Toeplitz view of the
    kernel: each entry the spectrum evaluates."""
    shapes, real = [], compactness._toeplitz

    class View:
        def __init__(self, K):
            self.K = K

        def __getitem__(self, index):
            out = self.K[index]
            shapes.append(out.shape)
            return out

    monkeypatch.setattr(compactness, "_toeplitz", lambda kvec: View(real(kvec)))
    return shapes


@pytest.mark.parametrize("symbol", ["bump:0,0.5", "bump:0,5"])  # a split and whole rows
def test_rows_where_u_vanishes_are_never_evaluated(monkeypatch, symbol):
    grid = make_grid(8.0, 256)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = parse_function_spec(grid, "indicator:-4,2"), _bench_weights(grid)[1]
    want = _values(oracle.operator_matrix(b, trunc, u, v))
    calls = _counting_block(monkeypatch)
    got = compactness.operator_spectral_report(b, trunc, u, v, [1]).singular_values
    assert calls and all(np.all(u.values[rows] > 0.0) for rows in calls)
    D_S, _, B = _stacked(b, trunc, u, v)  # u's rows of A
    assert D_S.shape[0] + B.shape[0] == np.count_nonzero(u.values)
    assert got.size == grid.cells and np.all(got[np.count_nonzero(u.values):] == 0.0)
    _agree(got, want)


_EACH_ONCE = pytest.mark.parametrize("symbol", [
    "bump:-0.15,0.5", "logspike:0.01", "indicator:-8,-7.5", "indicator:-6,5", "bump:0,5", "const:2"])
_U_SPECS = pytest.mark.parametrize("u_spec", ["const:1+gaussian:-0.30,0.3", "indicator:-4,2"])


@_EACH_ONCE
@_U_SPECS
def test_each_spectrum_evaluates_each_entry_once(monkeypatch, symbol, u_spec):
    _assert_each_entry_evaluated_once(monkeypatch, symbol, u_spec)  # one chunk at m = 512


@_EACH_ONCE
@_U_SPECS
def test_each_spectrum_evaluates_each_entry_once_in_chunks(monkeypatch, symbol, u_spec):
    monkeypatch.setattr(compactness, "_CHUNK_FLOOR", 64)  # chunks of max(64, 2s) rows
    _assert_each_entry_evaluated_once(monkeypatch, symbol, u_spec)


def _assert_each_entry_evaluated_once(monkeypatch, symbol: str, u_spec: str) -> None:
    # |D_S| |S| entries from _operator_block, D_S the live rows on S, and one
    # (m - s) x s gather for both arms, in chunks of _chunk_rows(s) rows; or
    # live * m and no gather when the live rows are taken whole (S is every cell)
    m = 512
    grid = make_grid(8.0, m)
    b, trunc = parse_function_spec(grid, symbol), TruncationSpec(16 * grid.h)
    u, v = parse_function_spec(grid, u_spec), _bench_weights(grid)[1]
    on_S = np.isin(np.arange(m), _support(b))
    live = u.values > 0
    d, r, s = np.count_nonzero(live & on_S), np.count_nonzero(live & ~on_S), np.count_nonzero(on_S)
    if r <= s:  # the live rows whole: S is every cell
        d, r, s = np.count_nonzero(live), 0, m
    c = compactness._chunk_rows(s)
    chunks = [(min(c, m - s - i), s) for i in range(0, m - s, c)]
    assert sum(rows for rows, _ in chunks) == m - s and (len(chunks) > 1) == (c < m - s)
    shapes = _counting_gathers(monkeypatch)
    got = compactness.operator_spectral_report(b, trunc, u, v, [1]).singular_values
    assert shapes == [(d, s), *chunks]
    shapes.clear()
    D_S, D_restT, B = _stacked(b, trunc, u, v)
    assert shapes == [(d, s), *chunks]
    assert (D_S.shape, D_restT.shape, B.shape) == ((d, s), (m - s, d), (r, s))
    # the fold of several chunks agrees with the QRs of the whole arms
    want = oracle.split_values(D_S, D_restT, B)
    _agree(got, np.concatenate([want, np.zeros(m - want.size)]))
