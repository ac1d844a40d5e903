"""Dense references for the spectral path in bumplab.compactness.

singular_values is the path the package used before it dropped the singular
vectors: U, s and V^T from one factorization, and a reconstruction check that
certifies every sigma_k to 1e-8 * sigma_1 through ||A - U diag(s) V^T||_F.
The package's values-only path is not bit-identical to it; the tests state
their tolerance. row_compressed_values keeps the values-only path as it was
before it compressed the columns as well as the rows, and dense_rows_values
the path from before both arms of the split came from one kernel gather: the
dense rows on S built whole, and their part off S compressed by an LQ after
np.delete.

operator_matrix and scan_split are the dense builder and the split of a
matrix at hand that the package kept before its spectral probes took only
the operator's arrow blocks. scan_split returns the arrow (D_S, D_rest^T, B)
whole; compactness._operator_split streams the same arms in row chunks, so
the tests hold the package's split, its chunks stacked, to
scan_split(operator_matrix(...)) on the benchmark's inputs (D_rest^T by value,
since its zeros carry the other sign, the rest bit for bit). streamed hands
scan_split's arrow of any matrix to compactness._split_values in the form it
takes: row chunks of the arms and the arrow's products. split_values is the
whole-array values path the package took before it streamed the arms: one QR
of each arm held whole, the same square core and its values-only SVD. The
values paths take each QR from compactness._fold(None, X) and each SVD from
compactness._core_values, so that they run under the package's BLAS thread
cap as the package's own calls do, since OpenBLAS rounds differently at one
thread and at two, and the tests hold them bit for bit.
"""

from __future__ import annotations

import numpy as np

from bumplab import compactness
from bumplab.grid import _check_weights


def singular_values(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
    resid = float(np.linalg.norm(matrix - (U * s) @ Vt))
    if s.size and s[0] > 0 and resid > 1e-8 * s[0]:
        raise FloatingPointError(f"SVD reconstruction residual {resid} exceeds 1e-8*sigma_1")
    return s


def symmetric_singular_values(matrix: np.ndarray) -> np.ndarray:
    """|eigenvalues| of a symmetric matrix, nonincreasing: its singular values."""
    assert np.array_equal(matrix, matrix.T), "the eigvalsh oracle needs exact symmetry"
    return np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]


def row_compressed_values(D_S: np.ndarray, D_restT: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Singular values of the arrow A = [[D_S, D_rest], [B, 0]] (the format of
    compactness._operator_split), by the row-only compression the package used
    before it compressed the columns too: the SVD of Z, with the R of a QR of
    B in B's place (Z^T Z = A^T A), with every value past Z's row count an
    exact 0.0 up to min(m, n)."""
    (d, s), k = D_S.shape, D_restT.shape[0]
    m, n = d + B.shape[0], s + k
    Z = np.zeros((d + min(B.shape), n))
    Z[:d, :s], Z[:d, s:] = D_S, D_restT.T
    Z[d:, :s] = compactness._fold(None, B)
    sigma = compactness._core_values(Z)
    return np.concatenate([sigma, np.zeros(min(m, n) - sigma.size)])


def split_values(D_S: np.ndarray, D_restT: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Singular values of the arrow A = [[D_S, D_rest], [B, 0]] as the package took
    them before it streamed the arms: one QR of B (R) and one of D_rest^T (L),
    each held whole, the core [[D_S, L^T], [R, 0]] (D_S itself when both arms
    have no rows), its values-only SVD, and every value past the core's side an
    exact 0.0 up to min(m, n). The gross-failure checks stay with the package."""
    m, n = D_S.shape[0] + B.shape[0], D_S.shape[1] + D_restT.shape[0]
    core = D_S
    if B.shape[0] or D_restT.shape[0]:
        d, s = D_S.shape
        R, L = compactness._fold(None, B), compactness._fold(None, D_restT)
        core = np.zeros((d + R.shape[0], s + L.shape[0]))
        core[:d, :s], core[:d, s:], core[d:, :s] = D_S, L.T, R
    sigma = compactness._core_values(core)
    return np.concatenate([sigma, np.zeros(min(m, n) - sigma.size)])


def streamed(D_S: np.ndarray, D_restT: np.ndarray, B: np.ndarray, rows: int | None = None):
    """The arrow (D_S, D_rest^T, B) as compactness._split_values takes it: D_S,
    the arms in chunks of `rows` rows each (B's and D_rest^T's i-th chunks
    together; both whole in one chunk by default, none when both are empty),
    and the arrow's products A x and A^T y with x ordered as [columns S; the
    rest] and y as [the rows of D_S; the rows of B]."""
    (d, s), k = D_S.shape, max(B.shape[0], D_restT.shape[0])
    step = rows or max(k, 1)
    chunks = [(B[i : i + step], D_restT[i : i + step]) for i in range(0, k, step)]

    def matvec(x):
        return np.concatenate([D_S @ x[:s] + x[s:] @ D_restT, B @ x[:s]])

    def rmatvec(y):
        return np.concatenate([y[:d] @ D_S + y[d:] @ B, D_restT @ y[:d]])

    return D_S, iter(chunks), matvec, rmatvec


def dense_rows_values(b, trunc, u, v) -> np.ndarray:
    """The operator's singular values as the package took them before both arms
    came from one kernel gather: the live rows on S whole (d x m), the block
    of the live rows off S on the columns S, and the core built with an LQ of
    the dense rows off S after np.delete; the live rows whole, with no block,
    when the block has no more rows than S has cells. Values past the core's
    side are exact 0.0 up to the number of live rows."""
    _check_weights(u, v, symbol=b)
    m = b.grid.cells
    values, counts = np.unique(b.values, return_counts=True)
    on_S = b.values != values[np.argmax(counts)]
    live = u.values > 0
    rows, block_rows = np.flatnonzero(live & on_S), np.flatnonzero(live & ~on_S)
    cols = np.flatnonzero(on_S)
    if block_rows.size <= cols.size:
        rows, block_rows, cols = np.flatnonzero(live), block_rows[:0], cols[:0]
    dense = compactness._operator_block(b, trunc, u, v, rows, np.arange(m))
    block = compactness._operator_block(b, trunc, u, v, block_rows, cols)
    if block.shape[0]:
        d = dense.shape[0]
        R = compactness._fold(None, block)
        L = compactness._fold(None, np.delete(dense, cols, axis=1).T)
        core = np.zeros((d + R.shape[0], cols.size + L.shape[0]))
        core[:d, : cols.size], core[:d, cols.size:], core[d:, : cols.size] = dense[:, cols], L.T, R
    else:
        core = dense
    s = compactness._core_values(core)
    return np.concatenate([s, np.zeros(np.count_nonzero(live) - s.size)])


def operator_matrix(b, trunc, u, v) -> np.ndarray:
    """The whole m x m matrix of [b, T_eta] : L^2(v) -> L^2(u) on the plain
    sequence space, after the package's weight check, with every entry from
    the package's own evaluator, so that the split tests compare the same
    floats, signed zeros included."""
    _check_weights(u, v, symbol=b)
    every = np.arange(b.grid.cells)
    return compactness._operator_block(b, trunc, u, v, every, every)


def scan_split(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrow (D_S, D_rest^T, B) of a matrix at hand, the format of
    compactness._operator_split with its chunks stacked, by counting nonzeros: a row with at most
    n // 2 of them is sparse, S is the columns the sparse rows touch, D_S and
    D_rest are the dense rows on S and off it, and B is the sparse rows on S.
    With d dense rows and c = |S|, S is every column and both arms are empty
    when d + min(m - d, c) >= min(m, n), since the split then saves nothing."""
    A = np.asarray(matrix, dtype=float)
    m, n = A.shape
    nonzero = A != 0.0
    sparse = np.count_nonzero(nonzero, axis=1) <= n // 2
    cols = np.flatnonzero(np.any(nonzero[sparse], axis=0))
    d = m - int(np.count_nonzero(sparse))
    if d + min(m - d, cols.size) >= min(m, n):
        return A, np.zeros((0, m)), np.zeros((0, n))
    dense, rest = A[~sparse], np.setdiff1d(np.arange(n), cols)
    return dense[:, cols], dense[:, rest].T, A[np.flatnonzero(sparse)[:, None], cols]
