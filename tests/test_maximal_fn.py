"""maximal_fn's hull and tangent search against the per-width oracle.

Every cell of maximal_fn is the float (P[b] - P[a]) / (b - a) of one interval,
or |f_i| for one cell, so it is never above the oracle, which takes the max of
all of them. Near-ties among the slopes can leave it a few ulp below: a hull
vertex or tangent that is best in exact arithmetic on the floats P need not
carry the largest rounded slope. The tolerance is one-sided, 4 ulp of the
oracle's value; on smooth inputs such as the bench's iterates the two agree
bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import maximal_oracle as oracle
from bumplab import GridFunction, make_grid, maximal_fn
from bumplab.cli import parse_function_spec

KINDS = ("random", "sparse", "piecewise", "smooth", "constant", "many", "nudged", "steps")


def _values(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "random":
        return rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
    if kind == "sparse":  # a few spikes in zeros
        out = np.zeros(m)
        out[rng.integers(0, m, 3)] = rng.uniform(-5, 5, 3)
        return out
    if kind in ("piecewise", "many"):  # a few pieces, or up to one per cell
        pieces = rng.integers(1, 6) if kind == "piecewise" else rng.integers(m // 8 + 1, m + 1)
        edges = np.sort(rng.integers(0, m, pieces))
        return np.repeat(rng.uniform(-2, 2, edges.size + 1), np.diff(edges, prepend=0,
                                                                       append=m))
    if kind == "constant":  # prefix sums that round at almost every cell
        return np.full(m, rng.uniform(-3, 3) * 10.0 ** rng.uniform(-3, 3))
    if kind == "nudged":  # 1/3 with a few cells 1 to 3 ulp off: slopes that nearly tie
        out = np.full(m, 1.0 / 3.0)
        at = rng.integers(0, m, rng.integers(1, 5))
        out[at] += rng.choice([-3, -2, -1, 1, 2, 3], at.size) * np.spacing(1.0 / 3.0)
        return out
    if kind == "steps":  # steps of j/3 or j/10, whose prefix sums round at every cell
        edges = np.sort(rng.integers(0, m, rng.integers(1, 6)))
        heights = rng.integers(1, 10, edges.size + 1) / rng.choice([3.0, 10.0])
        return np.repeat(heights, np.diff(edges, prepend=0, append=m))
    x = np.linspace(-1.0, 1.0, m)  # smooth positive
    return 1.0 + rng.uniform(0, 3) * np.exp(-(x - rng.uniform(-1, 1)) ** 2 / 0.1)


@settings(max_examples=60, deadline=None)
@given(log_m=st.integers(2, 10), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_maximal_fn_is_within_4_ulp_below_per_width_oracle(log_m, kind, seed):
    m = 2**log_m
    f = GridFunction(make_grid(1.0, m), _values(kind, m, np.random.default_rng(seed)))
    got, want = maximal_fn(f).values, oracle.maximal_fn(f)
    assert np.all(got <= want)
    assert np.all(want - got <= 4 * np.spacing(want))


def test_maximal_fn_bit_identical_at_4096_cells():
    rng = np.random.default_rng(4096)
    x = np.linspace(-4.0, 4.0, 4096)
    values = 1.0 + np.exp(-x**2 / 0.3) + np.where(rng.random(4096) < 0.01, 50.0, 0.0)
    f = GridFunction(make_grid(4.0, 4096), values)
    assert np.array_equal(maximal_fn(f).values, oracle.maximal_fn(f))


def test_maximal_fn_bit_identical_on_the_bench_iterates():
    """M^1 u ... M^5 u of the four variants' u of the bench's weights workload."""
    grid = make_grid(8.0, 4096)
    for center in (-0.30, -0.10, 0.10, 0.30):
        f = parse_function_spec(grid, f"const:1+gaussian:{center:.2f},0.3")
        for _ in range(5):
            got = maximal_fn(f)
            assert np.array_equal(got.values, oracle.maximal_fn(f))
            f = got
