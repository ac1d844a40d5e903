"""singular_values' values-only path against the with-vectors oracle.

Both paths are backward stable, so they agree to a small multiple of
eps * sigma_1 in absolute terms, not bit for bit. The stated tolerance is
SIGMA_TOL * sigma_1 for every value; the largest gap seen on these inputs, up
to m = 1024, is 3e-15 * sigma_1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svd_oracle as oracle
from bumplab import (
    TruncationSpec,
    constant,
    gaussian,
    iterate_maximal,
    log_spike,
    make_grid,
    operator_matrix,
    singular_values,
    smooth_bump,
)
from bumplab import compactness

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
    # graded: singular values falling geometrically to far below eps * sigma_1
    k = min(m, n)
    Q1, _ = np.linalg.qr(rng.standard_normal((m, k)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return scale * (Q1 * np.logspace(0, -20, k)) @ Q2.T


def _operator(m: int, symbol: str, weighted: bool) -> np.ndarray:
    grid = make_grid(8.0, m)
    if weighted:
        u = constant(grid, 1.0) + gaussian(grid, 0.0, 0.3)
        v = iterate_maximal(u, 5)
    else:
        u = v = constant(grid, 1.0)
    b = smooth_bump(grid, 0.0, 0.5) if symbol == "smooth" else log_spike(grid, 0.01)
    return operator_matrix(b, TruncationSpec(16 * grid.h), u, v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gaussian", "low_rank", "graded")), m=st.integers(1, 64),
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
