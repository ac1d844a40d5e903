"""Dense references for the spectral path in bumplab.compactness.

singular_values is the path the package used before it dropped the singular
vectors: U, s and V^T from one factorization, and a reconstruction check that
certifies every sigma_k to 1e-8 * sigma_1 through ||A - U diag(s) V^T||_F.
The package's values-only path is not bit-identical to it; the tests state
their tolerance. row_compressed_values keeps the values-only path as it was
before it compressed the columns as well as the rows.

operator_matrix and scan_split are the dense builder and the split of a
matrix at hand that the package kept before its spectral probes took only
the operator's arrow blocks: the tests hold compactness._operator_split to
scan_split(operator_matrix(...)) bit for bit on the benchmark's inputs and
its values to the stated tolerance elsewhere, and feed scan_split's output
of any matrix to compactness._split_values.
"""

from __future__ import annotations

import numpy as np

from bumplab import compactness


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


def row_compressed_values(dense: np.ndarray, block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Singular values of the A whose rows are `dense` and then `block` on the
    columns `cols`, by the row-only compression the package used before it
    compressed the columns too: the SVD of Z, the dense rows over the R of a
    QR of the block (Z^T Z = A^T A), with every value past Z's row count an
    exact 0.0 up to min(m, n)."""
    m, n = dense.shape[0] + block.shape[0], dense.shape[1]
    Z = np.zeros((dense.shape[0] + min(block.shape), n))
    Z[: dense.shape[0]] = dense
    Z[dense.shape[0]:, cols] = np.linalg.qr(block, mode="r")
    s = np.linalg.svd(Z, compute_uv=False)
    return np.concatenate([s, np.zeros(min(m, n) - s.size)])


def operator_matrix(b, trunc, u, v) -> np.ndarray:
    """The whole m x m matrix of [b, T_eta] : L^2(v) -> L^2(u) on the plain
    sequence space, after the package's weight check, with every entry from
    the package's own evaluator, so that the split tests compare the same
    floats, signed zeros included."""
    compactness._check_weights(b.grid, u, v)
    return compactness._operator_block(b, trunc, u, v, None, None)


def scan_split(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense rows, the sparse block and its columns of a matrix at hand, by
    counting nonzeros: a row with at most n // 2 of them is sparse, and the
    block is the sparse rows on the columns they touch. With d dense rows and c
    such columns, the matrix is returned whole, with an empty block, when
    d + min(m - d, c) >= min(m, n), since the split then saves nothing."""
    A = np.asarray(matrix, dtype=float)
    m, n = A.shape
    nonzero = A != 0.0
    sparse = np.count_nonzero(nonzero, axis=1) <= n // 2
    cols = np.flatnonzero(np.any(nonzero[sparse], axis=0))
    d = m - int(np.count_nonzero(sparse))
    if d + min(m - d, cols.size) >= min(m, n):
        return A, np.zeros((0, 0)), np.zeros(0, dtype=np.intp)
    return A[~sparse], A[np.flatnonzero(sparse)[:, None], cols], cols
