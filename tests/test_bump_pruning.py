"""bump_constant's branch and bound against the full pass of `_bump_values`.

The pruned search must report the full pass's sup and its first argmax cube
bit for bit, or raise what the full pass raises; every bound it prunes with
must hold for the values the full pass computes; and on the bench's inputs it
must leave almost every cube without a root search.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bumplab import BumpSpec, Cube, GridFunction, WeightPair, bump_constant, cube_family, make_grid
from bumplab import weights
from bumplab.cli import main as cli_main
from bumplab.grid import _checked_family, _range_max
from bumplab.orlicz import ROOT_BAND, OrliczConvergenceError
from bumplab.weights import _bump, _bump_values

FAMILIES = ("dyadic", "dyadic+shifted", "random", "no single cells")


@st.composite
def bump_problems(draw):
    """(pair, spec, cubes): a preset or a custom spec at p in (1, 8], a family
    of one of FAMILIES, and weights of any scale from 1e-200 to 1e200."""
    m = 2 ** draw(st.integers(2, 8))
    grid = make_grid(1.0, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.floats(1.0, 8.0, exclude_min=True))
    preset = draw(st.sampled_from(("max", "czo", "comm", "custom")))
    if preset == "custom":  # the plain average of u on the left, as `--a-left avg`
        spec = BumpSpec(p, None, draw(st.floats(0.0, 6.0)))
    else:
        spec = BumpSpec.from_preset(preset, p, draw(st.floats(0.05, 2.0)))

    def weight(vanishing: bool) -> np.ndarray:
        scale = 10.0 ** draw(st.floats(-200.0, 200.0))
        values = scale * np.exp(draw(st.floats(0.0, 3.0)) * rng.standard_normal(m))
        if vanishing:  # u vanishes on about a quarter of the cells, not on all
            values[rng.random(m) < 0.25] = 0.0
            values[rng.integers(m)] = scale
        return values

    pair = WeightPair(GridFunction(grid, weight(True)), GridFunction(grid, weight(False)))
    family = draw(st.sampled_from(FAMILIES))
    if family in ("dyadic", "dyadic+shifted"):
        cubes = cube_family(grid, family)
    else:
        lengths = rng.integers(1 if family == "random" else 2, m + 1, draw(st.integers(1, 40)))
        cubes = [Cube(int(rng.integers(0, m - n + 1)), int(n)) for n in lengths]
    return pair, spec, cubes


@settings(max_examples=150, deadline=None)
@given(bump_problems())
def test_bump_constant_is_the_full_pass_sup_bit_for_bit(problem):
    pair, spec, cubes = problem
    try:
        with np.errstate(over="ignore"):  # v^(-1/p) may overflow; per_cube reports it
            values = _bump_values(pair, spec, cubes)
    except (FloatingPointError, ValueError, OrliczConvergenceError) as exc:
        with pytest.raises(type(exc)), np.errstate(over="ignore"):
            bump_constant(pair, spec, cubes)
        return
    with np.errstate(over="ignore"):
        rep = bump_constant(pair, spec, cubes)
    k = int(np.argmax(values))
    assert rep.constant.hex() == values[k].hex()
    assert rep.argmax_cube == cubes[k]


@settings(max_examples=60, deadline=None)
@given(bump_problems())
def test_every_bound_is_at_least_the_cubes_value(problem):
    """Both bounds hold for the computed values up to the Orlicz roots' band,
    which BOUND_MARGIN covers with room to spare; NaN marks a bound in doubt."""
    pair, spec, cubes = problem
    try:
        with np.errstate(over="ignore"):
            values = _bump_values(pair, spec, cubes)
    except (FloatingPointError, ValueError, OrliczConvergenceError):
        return
    bump, fam = _bump(pair, spec), _checked_family(cubes, pair.u.grid)
    tops = (_range_max(bump.left, fam), _range_max(bump.right, fam))
    assert 4 * ROOT_BAND < weights.BOUND_MARGIN - 1.0
    for bound in (bump.bounds(tops), bump.bounds(tops, pair.u.grid, fam)):
        sure = ~np.isnan(bound)
        assert np.all(values[sure] <= bound[sure] * (1.0 + 4 * ROOT_BAND))


def test_bounds_are_exact_on_single_cells_and_constant_weights():
    """A single cell's bound is its value c / t*, found without a root search,
    and so is every cube's for constant weights."""
    grid = make_grid(1.0, 16)
    cubes = cube_family(grid, "dyadic+shifted")
    single = cubes.n_cells == 1
    spec = BumpSpec.from_preset("czo", 2.0)
    for u, v, exact in ((np.linspace(1.0, 2.0, 16), np.linspace(3.0, 1.0, 16), single),
                        (np.full(16, 0.7), np.full(16, 3.0), np.ones(len(cubes), dtype=bool))):
        pair = WeightPair(GridFunction(grid, u), GridFunction(grid, v))
        bump, values = _bump(pair, spec), _bump_values(pair, spec, cubes)
        tops = (_range_max(bump.left, cubes), _range_max(bump.right, cubes))
        for bound in (bump.bounds(tops), bump.bounds(tops, grid, cubes)):
            np.testing.assert_allclose(bound[exact], values[exact], rtol=4 * ROOT_BAND)


def test_a_family_without_single_cells_seeds_from_its_largest_bounds():
    grid = make_grid(1.0, 64)
    rng = np.random.default_rng(5)
    pair = WeightPair(GridFunction(grid, 0.5 + rng.random(64)),
                      GridFunction(grid, 0.5 + rng.random(64)))
    spec = BumpSpec.from_preset("comm", 2.0)
    for cubes in ([Cube(0, 64)], [Cube(3, 5), Cube(0, 64), Cube(10, 2)]):
        values = _bump_values(pair, spec, cubes)
        rep = bump_constant(pair, spec, cubes)
        assert (rep.constant, rep.argmax_cube) == (np.max(values), cubes[int(np.argmax(values))])


def test_a_value_that_overflows_still_raises():
    """Its bound overflows too, which is a doubt: the cube is evaluated, and
    per_cube's finiteness check raises as in the full pass."""
    grid = make_grid(1.0, 16)
    pair = WeightPair(GridFunction(grid, np.full(16, 1e300)),
                      GridFunction(grid, np.full(16, 1e-300)))
    spec = BumpSpec.from_preset("czo", 1.01)
    for run in (_bump_values, bump_constant):
        with pytest.raises(FloatingPointError, match="not finite"):
            run(pair, spec, cube_family(grid, "dyadic"))


@pytest.mark.filterwarnings("error")
def test_an_infinite_cell_raises_what_the_full_pass_raises():
    """v^(-1/p) is inf on a subnormal cell of v: every bound over it is in
    doubt, and the tighter bound's mean power must not raise in its place.
    Both passes name the overflow, and cubes that avoid the cell still run."""
    grid = make_grid(1.0, 16)
    v = np.ones(16)
    v[3] = 5e-324
    pair = WeightPair(GridFunction(grid, np.ones(16)), GridFunction(grid, v))
    spec = BumpSpec.from_preset("czo", 1.01)
    for run in (_bump_values, bump_constant):
        with pytest.raises(FloatingPointError, match=r"v\^\(-1/p\) overflowed"):
            run(pair, spec, cube_family(grid, "dyadic"))
    away = [Cube(i0, n) for i0, n in ((4, 4), (8, 8), (0, 2), (5, 1))]
    values = _bump_values(pair, spec, away)
    report = bump_constant(pair, spec, away)
    assert report.constant == values.max() and report.argmax_cube == away[values.argmax()]


# the bench's variant-3 weights: u, and v = M^5 u for comm or a closed form for czo
_BENCH_U = "const:1+gaussian:0.30,0.3"
_BENCH_V = {"comm": "M5:u", "czo": "const:1+gaussian:-0.30,0.6"}


@pytest.mark.parametrize("preset", ["comm", "czo"])
def test_bump_runs_the_root_search_on_at_most_1_percent_of_the_bench_family(
        monkeypatch, tmp_path, preset):
    rows = []
    real = weights.orlicz_average_rows
    monkeypatch.setattr(weights, "orlicz_average_rows",
                        lambda blocks, phi: rows.append(len(blocks)) or real(blocks, phi))
    assert cli_main(["bump", "--preset", preset, "--u", _BENCH_U, "--v", _BENCH_V[preset],
                     "--cubes", "dyadic+shifted", "--L", "8", "--m", "4096",
                     "--out", str(tmp_path)]) == 0
    family = len(cube_family(make_grid(8.0, 4096), "dyadic+shifted"))
    assert family == 12274
    assert 0 < sum(rows) <= 0.01 * family
