"""maximal_fn's dyadic divide and conquer against the per-width oracle.

Both take |f_i| for one cell and the same floats (P[b] - P[a]) / (b - a) for
longer intervals, and maxima are exact, so they must agree bit for bit: no
tolerance. The block size is
drawn below (m/2)^2 floats, so every example evaluates the lowest level
several nodes per block and the top level in row chunks of a single node.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import maximal_oracle as oracle
from bumplab import GridFunction, make_grid, maximal_fn, operators

KINDS = ("random", "sparse", "piecewise", "smooth")


def _values(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "random":
        return rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
    if kind == "sparse":  # a few spikes in zeros
        out = np.zeros(m)
        out[rng.integers(0, m, 3)] = rng.uniform(-5, 5, 3)
        return out
    if kind == "piecewise":
        edges = np.sort(rng.integers(0, m, rng.integers(1, 6)))
        return np.repeat(rng.uniform(-2, 2, edges.size + 1), np.diff(edges, prepend=0,
                                                                       append=m))
    x = np.linspace(-1.0, 1.0, m)  # smooth positive
    return 1.0 + rng.uniform(0, 3) * np.exp(-(x - rng.uniform(-1, 1)) ** 2 / 0.1)


@settings(max_examples=60, deadline=None)
@given(log_m=st.integers(2, 10), kind=st.sampled_from(KINDS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_maximal_fn_is_bit_identical_to_per_width_oracle(log_m, kind, seed, data):
    m = 2**log_m
    block = data.draw(st.integers(2, (m // 2) ** 2 - 1), label="block")
    f = GridFunction(make_grid(1.0, m), _values(kind, m, np.random.default_rng(seed)))
    with mock.patch.object(operators, "_BLOCK", block):
        got = maximal_fn(f).values
    assert np.array_equal(got, oracle.maximal_fn(f))


def test_maximal_fn_bit_identical_at_4096_cells():
    rng = np.random.default_rng(4096)
    x = np.linspace(-4.0, 4.0, 4096)
    values = 1.0 + np.exp(-x**2 / 0.3) + np.where(rng.random(4096) < 0.01, 50.0, 0.0)
    f = GridFunction(make_grid(4.0, 4096), values)
    assert np.array_equal(maximal_fn(f).values, oracle.maximal_fn(f))

