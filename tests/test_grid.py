import numpy as np
import pytest

import cube_oracle
from bumplab import (
    Cube,
    CubeFamily,
    GridFunction,
    constant,
    cube_family,
    dyadic_cubes,
    gaussian,
    haar,
    indicator,
    log_spike,
    lp_norm_weighted,
    make_grid,
    power_weight,
    shift,
    shifted_dyadic_cubes,
    smooth_bump,
)
from bumplab.grid import per_cube
from cube_oracle import average


def test_make_grid_basic():
    g = make_grid(1.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.centers, [-0.75, -0.25, 0.25, 0.75])
    assert make_grid(2.0, 8).h == 0.5


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(1.0, 6)
    with pytest.raises(ValueError):
        make_grid(1.0, 2)
    with pytest.raises(ValueError):
        make_grid(0.0, 8)
    with pytest.raises(ValueError):
        make_grid(-1.0, 8)


@pytest.mark.parametrize("half_width, cells", [(1e308, 4), (5e-324, 256)])
def test_grid_rejects_a_cell_width_outside_the_float_range(half_width, cells):
    # 2L overflowed to inf, or 2L/m underflowed to 0, and every center with it
    with pytest.raises(ValueError, match="cell width 2L/m leaves the float range"):
        make_grid(half_width, cells)
    assert make_grid(8e307, 4).h == 4e307 and make_grid(1e-320, 4).h == 1e-320 / 2


def test_grid_function_rejects_nonfinite():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(3))


def test_dyadic_cube_counts():
    g = make_grid(1.0, 8)
    assert len(dyadic_cubes(g)) == 15  # 8 + 4 + 2 + 1
    assert len([q for q in dyadic_cubes(g) if 2 <= q.n_cells <= 4]) == 6  # 4 + 2
    cubes = dyadic_cubes(make_grid(1.0, 4))
    assert len(cubes) == 7 and cubes[-1] == Cube(0, 4)


def test_dyadic_level_tiles_domain():
    g = make_grid(2.0, 16)
    for n in (1, 2, 4, 8, 16):
        level = [q for q in dyadic_cubes(g) if q.n_cells == n]
        covered = sorted(i for q in level for i in range(q.i0, q.i0 + q.n_cells))
        assert covered == list(range(16))
        # dyadic: a power-of-two length, starting at a multiple of it
        assert all(q.n_cells & (q.n_cells - 1) == 0 and q.i0 % q.n_cells == 0 for q in level)


def test_shifted_family_offsets():
    g = make_grid(1.0, 8)
    fam = shifted_dyadic_cubes(g)
    assert all(q.i0 % q.n_cells == q.n_cells // 2 for q in fam)
    assert all(q.i0 + q.n_cells <= 8 for q in fam)
    both = cube_family(g, "dyadic+shifted")
    assert len(both) == len(dyadic_cubes(g)) + len(fam)
    with pytest.raises(ValueError):
        cube_family(g, "all")


def test_average_examples():
    g = make_grid(1.0, 64)
    f = indicator(g, 0.0, 1.0)
    assert average(f, Cube(0, 64)) == 0.5
    assert average(constant(g, 3.25), Cube(16, 8)) == 3.25
    linear = GridFunction(g, g.centers)
    assert abs(average(linear, Cube(0, 64))) <= 1e-12


def test_average_nesting_exact_for_integer_values():
    g = make_grid(1.0, 64)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.integers(-50, 50, size=64).astype(float))
    for q in dyadic_cubes(g)[64:]:  # every level past single cells
        half = q.n_cells // 2
        q1, q2 = Cube(q.i0, half), Cube(q.i0 + half, half)
        assert average(f, q) == (average(f, q1) + average(f, q2)) / 2.0


def test_average_linear_and_monotone():
    g = make_grid(1.0, 32)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(32))
    gfun = GridFunction(g, rng.standard_normal(32))
    q = Cube(4, 16)
    assert average(f + gfun, q) == pytest.approx(average(f, q) + average(gfun, q), rel=1e-13, abs=1e-13)
    bigger = GridFunction(g, f.values + np.abs(rng.standard_normal(32)))
    assert average(f, q) <= average(bigger, q)


def test_lp_norm_weighted():
    g = make_grid(1.0, 64)
    f = indicator(g, 0.0, 1.0)
    one = constant(g, 1.0)
    assert lp_norm_weighted(f, one, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert lp_norm_weighted(constant(g, 0.0), one, 2.0) == 0.0
    w_disjoint = indicator(g, -1.0, 0.0)
    assert lp_norm_weighted(f, w_disjoint, 2.0) == 0.0
    with pytest.raises(ValueError):
        lp_norm_weighted(f, GridFunction(g, -np.ones(64)), 2.0)


def test_lp_norm_homogeneity():
    g = make_grid(1.0, 64)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(64))
    w = GridFunction(g, rng.random(64))
    for c in (0.3, -2.0, 17.5):
        got = lp_norm_weighted(GridFunction(g, c * f.values), w, 3.0)
        want = abs(c) * lp_norm_weighted(f, w, 3.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_shift_translation_convention():
    # shift(f, k)(x) = f(x + k*h): positive k pulls mass leftward
    g = make_grid(1.0, 64)
    f = indicator(g, 0.5, 1.0)
    assert np.array_equal(shift(f, 16).values, indicator(g, 0.0, 0.5).values)
    assert np.array_equal(shift(indicator(g, 0.0, 0.5), -16).values, f.values)
    assert np.array_equal(shift(f, 0).values, f.values)


def test_shift_inverse_and_bounds():
    g = make_grid(1.0, 32)
    f = indicator(g, -0.25, 0.25)
    assert np.array_equal(shift(shift(f, 5), -5).values, f.values)
    with pytest.raises(ValueError):
        shift(f, 32)


def test_indicator_cell_counts():
    g = make_grid(1.0, 64)
    f = indicator(g, 0.0, 1.0)
    assert int(np.sum(f.values == 1.0)) == 32
    assert int(np.sum(f.values == 0.0)) == 32


def test_smooth_bump_values():
    g = make_grid(1.0, 1024)
    f = smooth_bump(g, 0.0, 0.5)
    x = g.centers
    assert np.all(f.values[np.abs(x) >= 0.5] == 0.0)
    mid = np.argmin(np.abs(x))
    assert f.values[mid] == pytest.approx(np.exp(-1.0), rel=1e-3)
    with pytest.raises(ValueError):
        smooth_bump(g, 0.0, 0.0)


def test_power_weight_and_log_spike():
    g = make_grid(1.0, 64)
    assert np.array_equal(power_weight(g, 0.0).values, np.ones(64))
    assert np.all(power_weight(g, -0.5).values > 0)  # centers avoid the origin
    spike = log_spike(g, 0.01)
    assert np.all(spike.values >= 0.0)
    assert spike.values.max() == pytest.approx(np.log(1 / (g.h / 2 + 0.01)), rel=1e-12)
    with pytest.raises(ValueError):
        log_spike(g, 0.0)
    with pytest.raises(ValueError):
        gaussian(g, 0.0, -1.0)


def test_haar_builder():
    g = make_grid(1.0, 16)
    q = Cube(4, 8)
    f = haar(g, q)
    assert np.all(f.values[4:8] == 1.0)
    assert np.all(f.values[8:12] == -1.0)
    assert np.all(f.values[:4] == 0.0) and np.all(f.values[12:] == 0.0)
    with pytest.raises(ValueError):
        haar(g, Cube(0, 1))


def test_cube_validation():
    g = make_grid(1.0, 16)
    with pytest.raises(ValueError):
        Cube(12, 8).check(g)
    with pytest.raises(ValueError):
        Cube(-1, 4)
    a, b = Cube(4, 8).endpoints(g)
    assert (a, b) == (-0.5, 0.5)


@pytest.mark.parametrize("m", [4, 64, 1024])
@pytest.mark.parametrize("name", ["dyadic", "dyadic+shifted"])
def test_cube_families_equal_list_builders(name, m):
    g = make_grid(1.0, m)
    fam = cube_family(g, name)
    want = cube_oracle.cube_family(g, name)
    assert len(fam) == len(want)
    assert fam == want and list(fam) == want
    assert [(q.i0, q.n_cells) for q in want] == list(zip(fam.i0.tolist(), fam.n_cells.tolist()))
    assert fam[-1] == want[-1] and fam[len(want) // 2] == want[len(want) // 2]
    assert fam[1:4] == want[1:4] and isinstance(fam[1:4], CubeFamily)
    assert shifted_dyadic_cubes(g) == cube_oracle.shifted_dyadic_cubes(g)


def test_cube_family_reads_like_a_list():
    g = make_grid(1.0, 8)
    fam = dyadic_cubes(g)[-3:]  # the levels of 4 and 8 cells
    assert fam == [Cube(0, 4), Cube(4, 4), Cube(0, 8)]
    assert fam != [Cube(0, 4), Cube(4, 4)] and fam != [Cube(0, 4), Cube(4, 4), Cube(0, 4)]
    assert Cube(4, 4) in fam and fam.index(Cube(0, 8)) == 2
    with pytest.raises(IndexError):
        fam[3]
    with pytest.raises(ValueError, match="at least one cell"):
        CubeFamily([0], [0])


def test_per_cube_hands_length_groups_in_order_of_first_appearance():
    g = make_grid(1.0, 8)
    cubes = [Cube(0, 4), Cube(0, 1), Cube(4, 4), Cube(1, 1)]
    seen = []

    def first_cell(blocks):
        seen.append((blocks.shape, blocks[:, 0].tolist()))
        return blocks[:, 0]

    out = per_cube(first_cell, g, cubes, np.arange(8.0))
    assert seen == [((2, 4), [0.0, 4.0]), ((2, 1), [0.0, 1.0])]
    assert out.tolist() == [0.0, 0.0, 4.0, 1.0]  # back in family order
    with pytest.raises(FloatingPointError, match="not finite"):
        per_cube(first_cell, g, cubes, np.full(8, np.inf))


# every builder with finite arguments that build a function; each argument in
# turn is replaced by a non-finite value
_BUILDERS = {
    "constant": (constant, (1.0,)),
    "indicator": (indicator, (-0.5, 0.5)),
    "gaussian": (gaussian, (0.0, 0.3)),
    "smooth_bump": (smooth_bump, (0.0, 0.5)),
    "log_spike": (log_spike, (0.01,)),
    "power_weight": (power_weight, (0.5,)),
    "haar": (lambda g, i0, n: haar(g, Cube(i0, n)), (0, 4)),
}
_NON_FINITE_ARGS = [(name, i, bad) for name, (_, args) in _BUILDERS.items()
                    for i in range(len(args)) for bad in (np.nan, np.inf, -np.inf)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, i, bad", _NON_FINITE_ARGS,
                         ids=[f"{n}-arg{i}-{b}" for n, i, b in _NON_FINITE_ARGS])
def test_builders_reject_non_finite_arguments(name, i, bad):
    build, args = _BUILDERS[name]
    g = make_grid(1.0, 8)
    build(g, *args)  # the finite arguments build
    with pytest.raises(ValueError):
        build(g, *args[:i], bad, *args[i + 1:])


def test_lp_norm_weighted_keeps_the_weight_rule():
    f, w = constant(make_grid(1.0, 8), 1.0), constant(make_grid(2.0, 8), 1.0)
    with pytest.raises(ValueError, match="f and u must share a grid: u lies on"):
        lp_norm_weighted(f, w, 2.0)
    with pytest.raises(ValueError, match="u must be nonnegative"):
        lp_norm_weighted(f, -1.0 * f, 2.0)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_grid_function_arithmetic_keeps_the_shared_grid_rule(op):
    one, two = constant(make_grid(1.0, 8), 1.0), constant(make_grid(2.0, 8), 2.0)
    with pytest.raises(ValueError, match="must share a grid"):
        getattr(one, op)(two)
    same = constant(make_grid(1.0, 8), 2.0)  # an equal grid, not the same object
    assert getattr(one, op)(same).values.tolist() == [getattr(1.0, op)(2.0)] * 8


def test_grid_function_scalar_arithmetic():
    f = GridFunction(make_grid(1.0, 4), [1.0, 2.0, 3.0, 4.0])
    assert (f + 1).values.tolist() == (1 + f).values.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert (f - 1).values.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert (f * 2).values.tolist() == (2 * f).values.tolist() == [2.0, 4.0, 6.0, 8.0]
    assert (f + f).grid is f.grid
