"""Empirical compactness probes for the commutator [b, T_eta].

Three kinds of evidence are collected, none of which is ever collapsed into
a boolean "compact" verdict (every finite discretization is compact; only
trends across samples, radii, and grid refinements carry information):

* Kolmogorov-Riesz condition values over a sampled unit ball of L^p(v):
  uniform bound, tail mass beyond |x| > N, and the translation modulus with
  its fitted log-log slope.
* The shift decomposition of the translation difference into the
  symbol-increment term and the kernel-difference term, with measured
  pointwise bounds.
* Singular-value decay of the weighted operator matrix (p = 2 only), and
  the paired decay comparison between a smooth symbol and a log-spike
  symbol of matched BMO norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import parallel_map
from .grid import Cube, GridFunction, dyadic_cubes, haar, lp_norm_weighted, shift
from .operators import (
    KernelSpec,
    TruncationSpec,
    apply_truncated,
    check_dense_fits,
    commutator,
    commutator_matrix,
)
from .orlicz import bmo_norm

__all__ = [
    "UnitBallSample",
    "KRReport",
    "ShiftDecomposition",
    "TailReport",
    "SpectralReport",
    "DecayComparison",
    "sample_unit_ball",
    "kr_bounded",
    "kr_tail",
    "kr_equicontinuity",
    "kr_probe",
    "shift_decomposition",
    "tail_constant",
    "operator_matrix",
    "singular_values",
    "spectral_report",
    "decay_compare",
]

GENERATOR_CYCLE = ("indicator", "haar", "gaussian", "piecewise")


@dataclass
class UnitBallSample:
    """Functions normalized to unit L^p(v) norm, reproducible from the seed.

    Sample i depends only on (seed, i), so extending the count keeps every
    existing member bit-for-bit.
    """

    functions: list[GridFunction]
    seed: int
    tags: list[str]
    p: float


@dataclass
class KRReport:
    bound_sup: float
    tail_curve: list[tuple[float, float]]
    modulus_curve: list[tuple[float, float]]
    slope: float


@dataclass
class ShiftDecomposition:
    Af: GridFunction
    Bf: GridFunction
    shift: float


@dataclass
class TailReport:
    C_bv: float
    N0: float
    v_certificate: float


@dataclass
class SpectralReport:
    singular_values: np.ndarray
    grid_cells: int
    K_list: list[int]
    sigma_ratios: list[float]
    energy_tails: list[float]


@dataclass
class DecayComparison:
    smooth: SpectralReport
    spike: SpectralReport
    K_list: list[int]
    bmo_scale: float


def _generate_member(v: GridFunction, p: float, seed: int, index: int) -> tuple[GridFunction, str]:
    grid = v.grid
    m = grid.cells
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    kind = GENERATOR_CYCLE[index % len(GENERATOR_CYCLE)]
    if kind == "indicator":
        i0 = int(rng.integers(0, m - 1))
        n = int(rng.integers(1, min(m - i0, max(2, m // 4)) + 1))
        vals = np.zeros(m)
        vals[i0 : i0 + n] = 1.0
    elif kind == "haar":
        level = int(rng.integers(1, int(math.log2(m)) + 1))
        n = 2**level
        i0 = n * int(rng.integers(0, m // n))
        vals = haar(grid, Cube(i0, n)).values
    elif kind == "gaussian":
        center = float(rng.uniform(-grid.half_width / 2, grid.half_width / 2))
        sigma = float(rng.uniform(grid.half_width / 64, grid.half_width / 8))
        vals = np.exp(-0.5 * ((grid.centers - center) / sigma) ** 2)
    else:  # piecewise
        blocks = 2 ** int(rng.integers(3, 7))
        blocks = min(blocks, m)
        vals = np.repeat(rng.standard_normal(blocks), m // blocks)
    f = GridFunction(grid, vals)
    nrm = lp_norm_weighted(f, v, p)
    if nrm == 0.0:  # measure-zero event for the piecewise generator
        f = GridFunction(grid, np.ones(m))
        nrm = lp_norm_weighted(f, v, p)
    return GridFunction(grid, f.values / nrm), kind


def sample_unit_ball(v: GridFunction, p: float, count: int, seed: int) -> UnitBallSample:
    """Deterministic sample of the unit ball of L^p(v)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if np.min(v.values) <= 0:
        raise ValueError("v must be positive everywhere")
    members = parallel_map(lambda i: _generate_member(v, p, seed, i), range(count))
    return UnitBallSample(
        functions=[f for f, _ in members],
        seed=seed,
        tags=[tag for _, tag in members],
        p=p,
    )


def _commutator_images(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec,
                       kernel: KernelSpec | None) -> np.ndarray:
    """[b, T_eta] f for every sample member, as columns of an (m, count) array."""
    return np.stack([commutator(b, f, trunc, kernel).values for f in sample.functions],
                    axis=1)


def _weighted_norms(columns: np.ndarray, u: GridFunction, p: float,
                    row_mask: np.ndarray | None = None) -> np.ndarray:
    w = u.values * u.grid.h
    g = np.abs(columns)
    if row_mask is not None:
        g = g[row_mask]
        w = w[row_mask]
    return np.sum(g**p * w[:, None], axis=0) ** (1.0 / p)


def _bounded(G: np.ndarray, u: GridFunction, p: float) -> float:
    if np.any(u.values < 0):
        raise ValueError("u must be nonnegative")
    return float(np.max(_weighted_norms(G, u, p)))


def kr_bounded(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec,
               u: GridFunction, p: float, kernel: KernelSpec | None = None) -> float:
    """Condition (a): sup over the sample of ||[b,T_eta] f||_{L^p(u)}."""
    return _bounded(_commutator_images(sample, b, trunc, kernel), u, p)


def _tail(G: np.ndarray, u: GridFunction, p: float,
          N_list: list[float]) -> list[tuple[float, float]]:
    grid = u.grid
    for N in N_list:
        if N >= grid.half_width:
            raise ValueError(f"N = {N} must be < the grid half-width {grid.half_width}")
    x = grid.centers
    curve = []
    for N in N_list:
        vals = _weighted_norms(G, u, p, row_mask=np.abs(x) > N)
        curve.append((float(N), float(np.max(vals))))
    return curve


def kr_tail(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec,
            u: GridFunction, p: float, N_list: list[float],
            kernel: KernelSpec | None = None) -> list[tuple[float, float]]:
    """Condition (b): for each N, sup over the sample of the L^p(u) mass
    of [b,T_eta] f outside |x| > N."""
    return _tail(_commutator_images(sample, b, trunc, kernel), u, p, N_list)


def _shift_columns(G: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(G)
    if k >= 0:
        out[: G.shape[0] - k] = G[k:]
    else:
        out[-k:] = G[: G.shape[0] + k]
    return out


def _modulus(G: np.ndarray, trunc: TruncationSpec, u: GridFunction, p: float,
             shift_cells: list[int],
             allow_large_shifts: bool) -> tuple[list[tuple[float, float]], float]:
    grid = u.grid
    for k in shift_cells:
        if k == 0:
            continue
        if abs(k) * grid.h >= trunc.eta / 4.0 and not allow_large_shifts:
            raise ValueError(
                f"shift {k} cells = {abs(k) * grid.h} is outside |h| < eta/4 = "
                f"{trunc.eta / 4.0}; pass allow_large_shifts=True to probe anyway"
            )
    curve = []
    for k in shift_cells:
        diff = _shift_columns(G, k) - G
        curve.append((abs(k) * grid.h, float(np.max(_weighted_norms(diff, u, p)))))
    positive = [(h, v) for h, v in curve if h > 0 and v > 0]
    if len(positive) >= 2:
        hs = np.log([h for h, _ in positive])
        vs = np.log([v for _, v in positive])
        slope = float(np.polyfit(hs, vs, 1)[0])
    else:
        slope = float("nan")
    return curve, slope


def kr_equicontinuity(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec,
                      u: GridFunction, p: float, shift_cells: list[int],
                      kernel: KernelSpec | None = None,
                      allow_large_shifts: bool = False) -> tuple[list[tuple[float, float]], float]:
    """Condition (c): translation modulus of the commutator images.

    For each shift h = k*h_cell, the sup over the sample of
    ||[b,T_eta]f(.+h) - [b,T_eta]f||_{L^p(u)}, plus the least-squares slope
    of log(modulus) against log|h|. Shifts must stay below eta/4 (the regime
    where the kernel-difference estimate applies) unless explicitly
    overridden.
    """
    G = _commutator_images(sample, b, trunc, kernel)
    return _modulus(G, trunc, u, p, shift_cells, allow_large_shifts)


def kr_probe(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec,
             u: GridFunction, p: float, N_list: list[float], shift_cells: list[int],
             kernel: KernelSpec | None = None) -> KRReport:
    """All three Kolmogorov-Riesz condition values, from one set of commutator images."""
    G = _commutator_images(sample, b, trunc, kernel)
    bound = _bounded(G, u, p)
    tail = _tail(G, u, p, N_list)
    modulus, slope = _modulus(G, trunc, u, p, shift_cells, allow_large_shifts=False)
    return KRReport(bound_sup=bound, tail_curve=tail, modulus_curve=modulus, slope=slope)


def shift_decomposition(b: GridFunction, f: GridFunction, trunc: TruncationSpec,
                        shift_cells: int, kernel: KernelSpec | None = None,
                        allow_large_shifts: bool = False) -> ShiftDecomposition:
    """Split [b,T_eta]f(.+h) - [b,T_eta]f into Af + Bf.

    Af carries the symbol increment: (b(x+h) - b(x)) * T_eta f(x).
    Bf carries the kernel difference:
    sum_j (b_j - b(x+h)) (K_eta(x, x_j) - K_eta(x+h, x_j)) f_j h.
    The identity Af + Bf = shifted difference holds cell-by-cell by
    construction (with zero extension at the boundary).
    """
    grid = f.grid
    k = int(shift_cells)
    if abs(k) * grid.h >= trunc.eta / 4.0 and k != 0 and not allow_large_shifts:
        raise ValueError("shift must satisfy |h| < eta/4; pass allow_large_shifts=True")
    b_sh = shift(b, k)
    Tf = apply_truncated(f, trunc, kernel)
    A = (b_sh.values - b.values) * Tf.values

    # Bf as two convolutions, T(b'f) - T(b'f)(.+h) - (b(x+h) - b_0)(Tf - Tf(.+h))
    # with b' = b - b_0, so that a constant symbol gives exact zeros
    Tbf = apply_truncated(GridFunction(grid, b.values - b.values[0]) * f, trunc, kernel)
    B = (Tbf - shift(Tbf, k)).values - (b_sh.values - b.values[0]) * (Tf - shift(Tf, k)).values
    return ShiftDecomposition(
        Af=GridFunction(grid, A),
        Bf=GridFunction(grid, B),
        shift=k * grid.h,
    )


def tail_constant(b: GridFunction, trunc: TruncationSpec, v: GridFunction, p: float,
                  sample: UnitBallSample, N0: float,
                  kernel: KernelSpec | None = None) -> TailReport:
    """Measured decay constant sup |[b,T_eta]f(x)| * |x| over |x| > N0.

    Also reports the finiteness certificate (integral of v^(-p'/p) over the
    support of b)^(1/p'), which bounds int |f| over supp b for unit-ball f.
    """
    grid = b.grid
    supp = b.values != 0.0
    if not np.any(supp):
        radius = 0.0
    else:
        radius = float(np.max(np.abs(grid.centers[supp])) + grid.h / 2.0)
    if N0 <= 2.0 * radius:
        raise ValueError(f"N0 = {N0} must exceed twice the symbol support radius {radius}")
    pc = p / (p - 1.0)
    cert = float(np.sum(v.values[supp] ** (-pc / p) * grid.h) ** (1.0 / pc)) if np.any(supp) else 0.0

    G = _commutator_images(sample, b, trunc, kernel)
    x = grid.centers
    far = np.abs(x) > N0
    if not np.any(far):
        raise ValueError("no grid cells beyond N0; enlarge the domain or reduce N0")
    C_bv = float(np.max(np.abs(G[far]) * np.abs(x[far])[:, None]))
    return TailReport(C_bv=C_bv, N0=float(N0), v_certificate=cert)


def operator_matrix(b: GridFunction, trunc: TruncationSpec, u: GridFunction,
                    v: GridFunction, kernel: KernelSpec | None = None) -> np.ndarray:
    """[b, T_eta] : L^2(v) -> L^2(u) as a matrix on the plain sequence space.

    A_ij = u_i^(1/2) (b_i - b_j) K_eta(x_i, x_j) v_j^(-1/2) h. Under the
    quadrature identification (sequence norms weighted by h on both sides),
    ||A g|| equals ||[b,T_eta](v^(-1/2) g)||_{L^2(u)} exactly, and the
    h-weighting cancels in singular values.
    """
    if np.min(v.values) <= 0:
        raise ValueError("v must be positive everywhere")
    if np.any(u.values < 0):
        raise ValueError("u must be nonnegative")
    A = commutator_matrix(b, trunc, kernel)
    A *= np.sqrt(u.values)[:, None]
    A *= (1.0 / np.sqrt(v.values))[None, :]
    return A


# Relative tolerance of the two gross-failure checks on a computed spectrum. On the
# operator matrices at m <= 2048, sum(sigma^2) meets ||A||_F^2 to about 1e-15.
_SPECTRUM_RTOL = 1e-12
# Power iterations behind the lower bound on sigma_1 (two matvecs each)
_POWER_STEPS = 8


def _sigma1_lower_bound(matrix: np.ndarray) -> float:
    """max ||A x|| over the unit vectors x of a few power iterations on A^T A,
    from a fixed start; each one is a lower bound on sigma_1."""
    x = np.random.default_rng(0).standard_normal(matrix.shape[1])
    best = 0.0
    for _ in range(_POWER_STEPS):
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:  # A^T A x reached 0: no better bound from this start
            break
        y = matrix @ (x / nrm)
        best = max(best, float(np.linalg.norm(y)))
        x = matrix.T @ y
    return best


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values, nonincreasing, computed without singular vectors.

    LAPACK's values-only path (bidiagonal reduction, then dqds) is backward
    stable: the values are exact for some A + E with ||E|| a modest multiple
    of eps * ||A||, so each sigma_k is within about that of the true value,
    and values near eps * sigma_1 are rounding noise. Two checks catch gross
    failure, each to 1e-12 relative: sum(sigma^2) must match ||A||_F^2, and
    sigma_1 must not fall below the best ||A x|| from a few power
    iterations. Neither certifies each sigma_k to a fixed fraction of
    sigma_1: an error in a small sigma_k moves sum(sigma^2) by less than the
    round-off of ||A||_F^2, and the power bound is loose when sigma_2 is
    close to sigma_1.

    Raises np.linalg.LinAlgError if the iteration fails to converge and
    FloatingPointError if either check fails.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    # the matrix and LAPACK's working copy; the workspace is O(m + n)
    check_dense_fits(2 * matrix.nbytes, f"the SVD of a {matrix.shape} matrix")
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size:
        fro2 = float(np.linalg.norm(matrix)) ** 2
        energy = float(np.sum(s**2))
        if not abs(energy - fro2) <= _SPECTRUM_RTOL * fro2:
            raise FloatingPointError(f"sum of sigma^2 {energy} differs from ||A||_F^2 "
                                     f"{fro2} by more than {_SPECTRUM_RTOL:g} relative")
        bound = _sigma1_lower_bound(matrix)
        if s[0] < (1.0 - _SPECTRUM_RTOL) * bound:
            raise FloatingPointError(f"sigma_1 {s[0]} is below the power-iteration "
                                     f"lower bound {bound}")
    return s


def spectral_report(matrix: np.ndarray, K_list: list[int], grid_cells: int) -> SpectralReport:
    s = singular_values(matrix)
    total_energy = float(np.sum(s**2))
    sigma_ratios, energy_tails = [], []
    for K in K_list:
        if K < 1 or K >= s.size:
            raise ValueError(f"K = {K} out of range for {s.size} singular values")
        sigma_ratios.append(float(s[K - 1] / s[0]) if s[0] > 0 else 0.0)
        tail = float(np.sum(s[K:] ** 2))  # strictly beyond the K-th value
        energy_tails.append(tail / total_energy if total_energy > 0 else 0.0)
    return SpectralReport(
        singular_values=s,
        grid_cells=grid_cells,
        K_list=list(K_list),
        sigma_ratios=sigma_ratios,
        energy_tails=energy_tails,
    )


def decay_compare(b_cmo: GridFunction, b_bmo: GridFunction, trunc: TruncationSpec,
                  u: GridFunction, v: GridFunction, K_list: list[int],
                  kernel: KernelSpec | None = None,
                  match_cubes: list[Cube] | None = None) -> DecayComparison:
    """Paired singular-value decay of the commutator for two symbols.

    b_bmo is rescaled so its BMO norm matches b_cmo's before comparison,
    removing norm magnitude as a confounder; the reports then differ only
    through the symbols' oscillation structure.
    """
    grid = b_cmo.grid
    if match_cubes is None:
        match_cubes = dyadic_cubes(grid)
    norm_cmo = bmo_norm(b_cmo, match_cubes)
    norm_bmo = bmo_norm(b_bmo, match_cubes)
    if norm_cmo == 0 or norm_bmo == 0:
        raise ValueError("both symbols need nonzero BMO norm for a matched comparison")
    scale = norm_cmo / norm_bmo
    b_spike = GridFunction(grid, b_bmo.values * scale)

    def build(symbol: GridFunction) -> SpectralReport:
        return spectral_report(operator_matrix(symbol, trunc, u, v, kernel),
                               K_list, grid.cells)

    # one after the other: each SVD already runs on every core through BLAS
    return DecayComparison(smooth=build(b_cmo), spike=build(b_spike), K_list=list(K_list),
                           bmo_scale=scale)
