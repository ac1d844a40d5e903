"""The kernel layer's FFT products against the direct sums they replaced.

T_eta, [b, T_eta] and every radius of T# multiply the Toeplitz matrix of the
2m - 1 kernel offsets by a vector. bumplab.operators computes that product by
a real FFT of size n = 2m; ``kernel_oracle.direct_*`` computes it as the
package did before, by ``np.convolve``. Both read the same offsets and the
same values x = f h, so they differ only in rounding.

The tolerance is the sum of the two methods' rounding bounds, to first order
in the unit roundoff u = eps / 2:

* FFT (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
  Thm 24.2): a computed transform of size n has 2-norm error at most
  e_n = log2(n) eta / (1 - log2(n) eta) relative to the exact one, with
  eta = mu + gamma_4 (sqrt(2) + mu) and twiddle factors accurate to mu = u.
  The product transforms the kernel k and x (errors e_n sqrt(n) ||k||_2 and
  e_n sqrt(n) ||x||_2), multiplies the spectra pointwise (each complex product
  to sqrt(2) gamma_2 < 3u, and |k^| <= ||k||_1, |x^| <= ||x||_1), and
  transforms back with the exact factor 1/n. By Parseval that bounds the
  2-norm, and so every entry, of the error in y by
  (2 e_n + 3u) ||k||_1 ||x||_2 + e_n ||k||_2 ||x||_1.
  The power-of-two scaling of k and x is exact and changes nothing here.
* Direct sum: each y_i is a sum of m products, within
  gamma_m sum_j |k_(i-j) x_j| <= gamma_m ||k||_2 ||x||_2 (Cauchy-Schwarz).

These are worst cases. Measured, the two methods agree to 1.2e-15 of
max |y| or better at these sizes, 1e-5 to 1e-4 of the bound. Higham notes the
FFT's typical error grows like eps log2 n, so each product is also held to
eps log2(n) times its output's scale, on these fixed inputs.
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bumplab
import kernel_oracle as oracle
from bumplab import (
    GridFunction,
    TruncationSpec,
    apply_truncated,
    commutator,
    default_eta_grid,
    gaussian,
    indicator,
    make_grid,
    maximal_truncation,
    sample_unit_ball,
    smooth_bump,
)
from bumplab.compactness import _commutator_images
from bumplab.operators import kernel_offsets

EPS = np.finfo(float).eps
U = EPS / 2


def _gamma(k):
    return k * U / (1 - k * U)


def product_tolerance(kvec, x):
    """The FFT product's worst-case rounding plus the direct sum's (see above)."""
    m = x.size
    log_n = math.log2(2 * m)
    eta = U + _gamma(4) * (math.sqrt(2) + U)
    e_n = log_n * eta / (1 - log_n * eta)
    k1, k2 = np.sum(np.abs(kvec)), np.linalg.norm(kvec)
    x1, x2 = np.sum(np.abs(x)), np.linalg.norm(x)
    return (2 * e_n + 3 * U) * k1 * x2 + e_n * k2 * x1 + _gamma(m) * k2 * x2


def _inputs(m):
    grid = make_grid(8.0, m)
    rng = np.random.default_rng(m)
    return grid, {"indicator": indicator(grid, -0.5, 0.5),
                  "gaussian": gaussian(grid, 0.3, 0.2),
                  "normal": GridFunction(grid, rng.standard_normal(m))}


SIZES = (2048, 8192, 32768)
KINDS = ("indicator", "gaussian", "normal")


@pytest.mark.parametrize("m", SIZES)
def test_fft_products_match_direct_sums(m):
    grid, functions = _inputs(m)
    trunc = TruncationSpec(32 * grid.h)
    kvec = kernel_offsets(grid, trunc)
    typical = EPS * math.log2(2 * m)
    b = smooth_bump(grid, 0.1, 0.5)
    bp = b.values - b.values[0]
    etas = default_eta_grid(grid)[::4]
    for kind in KINDS:
        f = functions[kind]
        fh = f.values * grid.h

        want = oracle.direct_apply_truncated(f, trunc)
        err = np.max(np.abs(apply_truncated(f, trunc).values - want))
        assert err <= product_tolerance(kvec, fh), kind
        assert err <= typical * np.max(np.abs(want)), kind

        want = oracle.direct_commutator(b, f, trunc)
        Tf = oracle.toeplitz_product(kvec, fh)
        Tbf = oracle.toeplitz_product(kvec, bp * f.values * grid.h)
        err = np.max(np.abs(commutator(b, f, trunc).values - want))
        assert err <= (np.max(np.abs(bp)) * product_tolerance(kvec, fh)
                       + product_tolerance(kvec, bp * fh)
                       + 2 * U * np.max(np.abs(bp * Tf) + np.abs(Tbf))), kind
        assert err <= typical * (np.max(np.abs(bp)) * np.max(np.abs(Tf))
                                 + np.max(np.abs(Tbf))), kind

        want = oracle.direct_maximal_truncation(f, etas)
        err = np.max(np.abs(maximal_truncation(f, etas).values - want))
        assert err <= max(product_tolerance(kernel_offsets(grid, oracle.sharp(eta)), fh)
                          for eta in etas), kind
        assert err <= typical * np.max(want), kind


@pytest.mark.parametrize("eta_cells", [2.5, 3.0, 7.25, 64.0])
def test_zeros_match_the_direct_sum_off_whole_cell_radii(eta_cells):
    """The zero radius is read off the kernel offsets: at eta = 2.5 cells they
    vanish for |d| <= 2 and not at 3. For one spike and for pairs of spikes,
    close and far apart, the FFT product is exact 0.0 exactly where every term
    of the direct sum is 0; at eta = 64 cells, the whole grid, every offset is
    0 and so is every cell. (Sums that cancel to 0 by symmetry, as an odd
    kernel's over an interval centred on a cell, are rounding noise instead.)"""
    grid = make_grid(1.0, 64)
    trunc = TruncationSpec(eta_cells * grid.h)
    for spikes in ({20: 3.0}, {20: 3.0, 23: -1.25}, {5: 0.5, 50: 1.3}):
        values = np.zeros(64)
        values[list(spikes)] = list(spikes.values())
        f = GridFunction(grid, values)
        got = apply_truncated(f, trunc).values
        want = oracle.direct_apply_truncated(f, trunc)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert not np.any(np.signbit(got[got == 0.0]))


def test_commutator_images_are_the_commutators_bit_for_bit():
    """Each image is computed on its own in any block, so column i is the same
    floats as commutator(b, f_i), and a longer sample keeps the shorter's
    images."""
    grid = make_grid(8.0, 512)
    v = GridFunction(grid, 1.0 + np.exp(-grid.centers**2))
    b = smooth_bump(grid, -0.2, 0.7)
    trunc = TruncationSpec(16 * grid.h)
    long = sample_unit_ball(v, 2.0, 11, seed=5)
    G = _commutator_images(long, b, trunc)
    for i, f in enumerate(long.functions):
        assert np.array_equal(G[:, i], commutator(b, f, trunc).values)
    short = _commutator_images(sample_unit_ball(v, 2.0, 6, seed=5), b, trunc)
    assert np.array_equal(short, G[:, :6])


def test_maximal_truncation_peak_memory_is_o_m():
    """One radius's kernel and its transform at a time, and f's transform once:
    about 17 arrays of m floats at any m. Holding every radius's kernel at once
    took 2 log2(m) = 32 arrays of m floats for the kernels alone at m = 2^16."""
    m = 2**16
    f = gaussian(make_grid(8.0, m), 0.2, 0.5)
    maximal_truncation(f)  # the FFT module's first use allocates its caches
    tracemalloc.start()
    try:
        maximal_truncation(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 8 * m


def test_maximal_truncation_at_262144_cells_finishes_quickly(tmp_path):
    """18 radii of O(m log m) products: about 2 s in a fresh process on a 2-core
    Xeon, where the O(m^2) direct sums would take several minutes."""
    argv = ["op", "apply", "--op", "Tsharp", "--f", "const:1+gaussian:0,0.3", "--L", "8",
            "--m", str(2**18), "--out", tmp_path]
    env = dict(os.environ, PYTHONPATH=str(Path(bumplab.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bumplab.cli import main; sys.exit(main())",
         *map(str, argv)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 30.0
    assert (tmp_path / "op_apply.csv").exists()
