"""Singular values with vectors: the reference for bumplab.compactness.singular_values.

This is the path the package used before it dropped the singular vectors:
U, s and V^T from one factorization, and a reconstruction check that
certifies every sigma_k to 1e-8 * sigma_1 through ||A - U diag(s) V^T||_F.
The package's values-only path is not bit-identical to it; the tests state
their tolerance. row_compressed_values keeps the values-only path as it was
before it compressed the columns as well as the rows.
"""

from __future__ import annotations

import numpy as np


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
