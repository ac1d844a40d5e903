"""Property tests: the offset-vector kernel layer against the dense oracle.

Tolerances are fixed from the dtype, not fitted. A sum of n products computed
in any order is within n * eps * sum|terms| of the exact value, and typically
within sqrt(n) * eps * sum|terms|. The convolutions and the oracle's matrix
products sum the same products in different orders, so with n <= 512 they
agree to 1e-13 * max_i sum_j |terms| (the worst case is 1.1e-13). A scale of
max|oracle| alone is not enough: where the terms cancel to an exact 0 in one
order, the other order leaves round-off of the size of the terms.
The commutator and the shift decomposition are evaluated as differences of
such products (b' T f - T(b' f) with b' = b - b_0), so their scale is the size
of the terms of every product involved.

Where the cell centres are exact binary fractions (L = 0.5, 1, 2, 8, and also
L = 3, whose h = 3 * 2^-k is exact), x_i - x_j == (i - j) h exactly, so the
dense matrices, which involve no summation, must be bit-identical. On grids with rounded centres (L = 1.7, 0.3) they agree to
1e-13 relative.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from bumplab import (
    GridFunction,
    TruncationSpec,
    apply_truncated,
    commutator,
    constant,
    make_grid,
    maximal_truncation,
    shift,
    shift_decomposition,
)
from bumplab.compactness import _operator_block
from bumplab.operators import kernel_offsets

EXACT_L = (0.5, 1.0, 2.0, 3.0, 8.0)
ROUNDED_L = (1.7, 0.3)
TOL = 1e-13

profile = settings(max_examples=40, deadline=None)


def _unweighted_matrix(b, trunc):
    """The package's commutator matrix C_ij = (b_i - b_j) K_eta(x_i, x_j) h: its
    operator matrix under u = v = 1, whose weight factors are exact 1.0."""
    one, every = constant(b.grid, 1.0), np.arange(b.grid.cells)
    return _operator_block(b, trunc, one, one, every, every)


@st.composite
def problems(draw, exact=None):
    """(grid, trunc, f, b) on m in {8 ... 512} cells with eta >= 2 cells."""
    if exact is None:
        L = draw(st.sampled_from(EXACT_L + ROUNDED_L))
    else:
        L = draw(st.sampled_from(EXACT_L if exact else ROUNDED_L))
    m = 2 ** draw(st.integers(3, 9))
    grid = make_grid(L, m)
    eta_cells = draw(st.integers(2, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(kind):
        if kind == "normal":
            return rng.standard_normal(m)
        if kind == "sparse":  # mostly exact zeros
            return np.where(rng.random(m) < 0.1, rng.standard_normal(m), 0.0)
        return rng.integers(-3, 4, m).astype(float)  # small integers

    f = GridFunction(grid, values(draw(st.sampled_from(["normal", "sparse", "int"]))))
    b = GridFunction(grid, values(draw(st.sampled_from(["normal", "sparse", "int"]))))
    return grid, TruncationSpec(eta_cells * grid.h), f, b


def assert_close(got, want, scale=None):
    """|got - want| <= TOL * scale elementwise-max; scale defaults to max|want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= TOL * scale


def ring_kernel(grid, trunc):
    """|K(x_i, x_j)| on the pairs where K_eta may be nonzero, |x_i - x_j| >= eta
    up to rounding, else 0: a bound on |K_eta| for both evaluators. On grids
    with rounded centres the oracle gives the pair at distance exactly eta a
    weight psi(1 + eps) ~ eps^2 where the offset layer gives 0."""
    ring = TruncationSpec(trunc.eta, cutoff=lambda r: (r > 1.0 - 1e-9) * 1.0)
    return np.abs(oracle.truncated_kernel_matrix(grid, ring))


def abs_sum(grid, trunc, values):
    """sum_j |K(x_i, x_j) values_j h| over that ring: the size of a matvec's terms."""
    return ring_kernel(grid, trunc) @ np.abs(values * grid.h)


@profile
@given(problems())
def test_matvecs_match_dense_oracle(prob):
    grid, trunc, f, b = prob
    assert_close(apply_truncated(f, trunc).values, oracle.apply_truncated(f, trunc),
                 np.max(abs_sum(grid, trunc, f.values)))
    bp = np.abs(b.values - b.values[0])
    scale = np.max(bp * abs_sum(grid, trunc, f.values) + abs_sum(grid, trunc, bp * f.values))
    assert_close(commutator(b, f, trunc).values, oracle.commutator(b, f, trunc), scale)


@profile
@given(problems(), st.sampled_from([None, 0.5]))
def test_maximal_truncation_matches_dense_oracle(prob, offset):
    """The sharp cutoff keeps |x_i - x_j| > eta. At a radius that is a whole
    number of cells, the oracle decides that from rounded centre differences,
    which on a grid with rounded centres may keep or drop the pair at distance
    exactly eta; the offset layer uses the exact cell offset. So radii that
    are whole cells are compared on exact grids only, radii of (k + 1/2)
    cells on all."""
    grid, trunc, f, b = prob
    whole = [grid.h * 2.0**j for j in range(1, int(np.log2(grid.cells)) + 1)]
    if offset is None:
        if grid.half_width not in EXACT_L:
            return
        etas = whole
    else:
        etas = [eta + offset * grid.h for eta in whole]
    scale = np.max(abs_sum(grid, TruncationSpec(2 * grid.h), f.values))  # every radius
    assert_close(maximal_truncation(f, etas).values, oracle.maximal_truncation(f, etas), scale)


@profile
@given(problems(), st.data())
def test_shift_decomposition_matches_dense_oracle(prob, data):
    grid, trunc, f, b = prob
    m = grid.cells
    k = data.draw(st.integers(1 - m, m - 1))
    dec = shift_decomposition(b, f, trunc, k, allow_large_shifts=True)
    bp = np.abs(b.values - b.values[0])
    b_sh = np.abs(shift(b, k).values - b.values[0])
    scale = 2 * (np.max(abs_sum(grid, trunc, bp * f.values))
                 + np.max(b_sh) * np.max(abs_sum(grid, trunc, f.values)))
    assert_close(dec.Bf.values, oracle.shift_decomposition_B(b, f, trunc, k), scale)


@profile
@given(problems(exact=True))
def test_dense_matrices_bit_identical_on_exact_grids(prob):
    grid, trunc, f, b = prob
    assert np.array_equal(_unweighted_matrix(b, trunc), oracle.commutator_matrix(b, trunc))


@profile
@given(problems(exact=False))
def test_dense_matrices_close_on_rounded_grids(prob):
    grid, trunc, f, b = prob
    ring = ring_kernel(grid, trunc)
    db = np.abs(b.values[:, None] - b.values[None, :])
    assert_close(_unweighted_matrix(b, trunc), oracle.commutator_matrix(b, trunc),
                 np.max(ring * db) * grid.h)


@profile
@given(problems(), st.floats(-1e6, 1e6, allow_nan=False))
def test_exact_zero_and_power_of_two_contracts(prob, c):
    grid, trunc, f, b = prob
    zero = commutator(constant(grid, c), f, trunc).values
    assert np.all(zero == 0.0) and not np.any(np.signbit(zero))
    assert np.array_equal(commutator(GridFunction(grid, 2 * b.values), f, trunc).values,
                          2 * commutator(b, f, trunc).values)
    assert np.array_equal(maximal_truncation(GridFunction(grid, 2 * f.values)).values,
                          2 * maximal_truncation(f).values)


@profile
@given(problems(), st.data())
def test_truncated_operator_vanishes_on_support_within_eta(prob, data):
    grid, trunc, f, b = prob
    m = grid.cells
    eta_cells = round(trunc.eta / grid.h)
    i = data.draw(st.integers(0, m - 1))
    lo, hi = max(0, i - eta_cells + 1), min(m, i + eta_cells)  # |x_i - x_j| < eta
    g = np.zeros(m)
    g[lo:hi] = f.values[lo:hi]
    assert apply_truncated(GridFunction(grid, g), trunc).values[i] == 0.0
    assert commutator(b, GridFunction(grid, g), trunc).values[i] == 0.0


def test_kernel_offsets_layout():
    grid = make_grid(2.0, 16)
    trunc = TruncationSpec(2 * grid.h)
    k = kernel_offsets(grid, trunc)
    assert k.shape == (31,)
    assert np.all(k[15 - 2:15 + 3] == 0.0)  # |d| <= 2 cells: inside eta
    assert np.array_equal(k[::-1], -k)  # odd kernel
    assert k[15 + 4] == 1.0 / (np.pi * 4 * grid.h)  # beyond 2 eta: the bare kernel
