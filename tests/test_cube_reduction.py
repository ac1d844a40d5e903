"""Property tests: the grouped per-cube reduction against cube-by-cube loops.

Families are `dyadic+shifted` plus arbitrary in-grid cubes of any length,
shuffled, on m = 4 ... 1024 cells. `bmo_norm` must equal the loop exactly.
The A_p and bump values per cube must match the loops to 1e-13 relative,
because a row mean of a gathered block and the mean of a 1-D slice may sum
in different orders and differ in the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cube_oracle as oracle
from bumplab import (
    BumpSpec,
    Cube,
    GridFunction,
    WeightPair,
    ap_constant,
    bmo_norm,
    bump_constant,
    constant,
    cube_family,
    make_grid,
    two_weight_ap,
)
from bumplab.weights import _ap_values, _bump_values

TOL = 1e-13
BUMP_SAMPLE = 48

profile = settings(max_examples=40, deadline=None)


@st.composite
def problems(draw):
    """(grid, shuffled cube family, rng) on m in {4 ... 1024} cells."""
    m = 2 ** draw(st.integers(2, 10))
    grid = make_grid(draw(st.sampled_from((1.0, 1.7))), m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cubes = list(cube_family(grid, "dyadic+shifted"))
    for _ in range(draw(st.integers(0, 32))):
        n = int(rng.integers(1, m + 1))
        cubes.append(Cube(int(rng.integers(0, m - n + 1)), n))
    rng.shuffle(cubes)
    return grid, cubes, rng


def positive(grid, rng):
    return GridFunction(grid, np.exp(rng.uniform(0.1, 3.0) * rng.standard_normal(grid.cells)))


def nonnegative(grid, rng):
    """Positive somewhere; vanishes on about a quarter of the cells."""
    values = np.abs(rng.standard_normal(grid.cells)) * (rng.random(grid.cells) > 0.25)
    values[rng.integers(grid.cells)] = 1.0
    return GridFunction(grid, values)


def check_sup(rep, values, want, value_of):
    """The per-cube values match the oracle; the report's constant is their max,
    and the argmax cube attains the oracle's max."""
    np.testing.assert_allclose(values, want, rtol=TOL, atol=0.0)
    assert rep.constant == np.max(values)
    assert value_of(rep.argmax_cube) >= np.max(want) * (1.0 - TOL)


@profile
@given(problems(), st.sampled_from((0.0, 1e-3, 1.0, 1e3)), st.floats(-5.0, 5.0))
def test_bmo_norm_equals_cube_loop(problem, scale, offset):
    grid, cubes, rng = problem
    b = GridFunction(grid, scale * rng.standard_normal(grid.cells) + offset)
    assert bmo_norm(b, cubes) == oracle.bmo_norm(b, cubes)


@profile
@given(problems(), st.sampled_from((1.2, 2.0, 3.5)))
def test_ap_constants_match_cube_loop(problem, p):
    grid, cubes, rng = problem
    w = positive(grid, rng)
    check_sup(ap_constant(w, p, cubes), _ap_values(w, w, p, cubes),
              oracle.ap_per_cube(w, w, p, cubes), lambda q: oracle.ap_per_cube(w, w, p, [q])[0])

    u, v = nonnegative(grid, rng), positive(grid, rng)
    check_sup(two_weight_ap(WeightPair(u, v), p, cubes), _ap_values(u, v, p, cubes),
              oracle.ap_per_cube(u, v, p, cubes), lambda q: oracle.ap_per_cube(u, v, p, [q])[0])


@profile
@given(problems(), st.sampled_from((1.2, 2.0, 3.5)))
def test_ap_constant_is_two_weight_ap_with_equal_weights(problem, p):
    grid, cubes, rng = problem
    w = positive(grid, rng)
    one = ap_constant(w, p, cubes, family="f")
    two = two_weight_ap(WeightPair(w, w), p, cubes, family="f")
    assert (one.constant, one.argmax_cube) == (two.constant, two.argmax_cube)
    assert (one.preset, two.preset) == ("ap", "two_weight_ap")


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from(("max", "czo", "comm")), st.sampled_from((1.5, 2.0, 3.0)))
def test_bump_constant_matches_cube_loop(problem, preset, p):
    """The Orlicz loop is slow, so it runs on a sample of the family."""
    grid, cubes, rng = problem
    pair = WeightPair(nonnegative(grid, rng), positive(grid, rng))
    spec = BumpSpec.from_preset(preset, p, 1.0)
    rep, values = bump_constant(pair, spec, cubes), _bump_values(pair, spec, cubes)
    sample = rng.permutation(len(cubes))[:BUMP_SAMPLE]
    want = oracle.bump_per_cube(pair, spec, [cubes[k] for k in sample])
    np.testing.assert_allclose(values[sample], want, rtol=TOL, atol=0.0)
    assert rep.constant == np.max(values)
    at_argmax = oracle.bump_per_cube(pair, spec, [rep.argmax_cube])[0]
    assert at_argmax >= np.max(want) * (1.0 - TOL)


def _one_cube_constants():
    g = make_grid(1.0, 64)
    one = constant(g, 1.0)
    pair = WeightPair(one, one)
    return {
        "ap_constant": lambda cubes: ap_constant(one, 2.0, cubes),
        "two_weight_ap": lambda cubes: two_weight_ap(pair, 2.0, cubes),
        "bump_constant": lambda cubes: bump_constant(pair, BumpSpec.from_preset("comm", 2.0),
                                                     cubes),
        "bmo_norm": lambda cubes: bmo_norm(one, cubes),
    }


@pytest.mark.parametrize("name", ["ap_constant", "two_weight_ap", "bump_constant", "bmo_norm"])
@pytest.mark.parametrize("cubes, message", [
    ([Cube(0, 64), Cube(60, 8)], r"cube \[60, 68\) exceeds grid of 64 cells"),
    (cube_family(make_grid(1.0, 128), "dyadic"), "exceeds grid of 64 cells"),
    ([], "cube family must be nonempty"),
], ids=["past-the-end", "larger-grid", "empty"])
def test_bad_cube_family_raises_value_error(name, cubes, message):
    with pytest.raises(ValueError, match=message):
        _one_cube_constants()[name](cubes)
