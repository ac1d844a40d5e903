import json

import numpy as np
import pytest

from bumplab import (
    BumpSpec,
    Cube,
    GridFunction,
    WeightPair,
    ap_constant,
    bump_constant,
    constant,
    cube_family,
    dyadic_cubes,
    indicator,
    iterate_maximal,
    make_grid,
    maximal_fn,
    power_weight,
    two_weight_ap,
)
from bumplab import orlicz, weights
from bumplab.cli import main as cli_main
from bumplab.weights import _bump_values


def exact_power_ap(grid, alpha, p, cubes):
    """A_p of |x|^alpha from closed-form antiderivatives, cube by cube."""

    def prim(x, beta):  # antiderivative of |t|^beta through 0
        return np.sign(x) * np.abs(x) ** (beta + 1.0) / (beta + 1.0)

    pc = p / (p - 1.0)
    best = 0.0
    for q in cubes:
        a, b = q.endpoints(grid)
        avg_w = (prim(b, alpha) - prim(a, alpha)) / (b - a)
        avg_d = (prim(b, alpha * (1 - pc)) - prim(a, alpha * (1 - pc))) / (b - a)
        best = max(best, avg_w * avg_d ** (p - 1.0))
    return best


def test_weight_pair_validation():
    g = make_grid(1.0, 16)
    one = constant(g, 1.0)
    with pytest.raises(ValueError):
        WeightPair(constant(g, -1.0), one)
    with pytest.raises(ValueError):
        WeightPair(constant(g, 0.0), one)
    with pytest.raises(ValueError):
        WeightPair(one, constant(g, 0.0))
    WeightPair(indicator(g, 0, 1), one)  # u may vanish on part of the grid


def test_bump_spec_presets():
    spec = BumpSpec.from_preset("comm", 2.0, 1.0)
    assert (spec.a_left, spec.a_right) == (4.0, 4.0)
    spec = BumpSpec.from_preset("czo", 2.0, 1.0)
    assert (spec.a_left, spec.a_right) == (2.0, 2.0)
    spec = BumpSpec.from_preset("max", 2.0, 1.0)
    assert spec.a_left is None and spec.a_right == 2.0
    with pytest.raises(ValueError):
        BumpSpec.from_preset("comm", 2.0, 0.0)
    with pytest.raises(ValueError):
        BumpSpec(0.5, 0.0, 0.0)


def test_ap_constant_trivial_weights():
    g = make_grid(1.0, 64)
    cubes = dyadic_cubes(g)
    assert ap_constant(constant(g, 1.0), 2.0, cubes).constant == 1.0
    for c in (0.2, 3.7):
        rep = ap_constant(constant(g, c), 2.5, cubes)
        assert rep.constant == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        ap_constant(indicator(g, 0, 1), 2.0, cubes)  # vanishing cells


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.5])
@pytest.mark.parametrize("c", [1e-320, 1e-300, 1e-30, 0.2, 1.0, 3.7, 1e30, 1e300, 1e308])
def test_ap_constant_of_a_constant_weight_is_one_at_any_scale(c, p):
    # w^(1-p') left the float range: 1e-320 raised FloatingPointError, and
    # 1e300 at p = 1.5 reported 0.0, though A_p is never below 1
    g = make_grid(1.0, 64)
    rep = ap_constant(constant(g, c), p, cube_family(g, "dyadic+shifted"))
    assert abs(rep.constant - 1.0) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("p", [1.2, 2.0, 3.5])
@pytest.mark.parametrize("cu, cv", [(1e300, 1e290), (1e-300, 1e-310), (1e-320, 1e-300)])
def test_two_weight_ap_of_constant_weights_is_their_ratio(cu, cv, p):
    g = make_grid(1.0, 64)
    rep = two_weight_ap(WeightPair(constant(g, cu), constant(g, cv)), p, dyadic_cubes(g))
    assert rep.constant == pytest.approx(cu / cv, rel=1e-14)


def test_ap_constant_power_weight_matches_exact_integrals():
    g = make_grid(1.0, 4096)
    cubes = dyadic_cubes(g)
    rep = ap_constant(power_weight(g, 0.5), 2.0, cubes)
    oracle = exact_power_ap(g, 0.5, 2.0, cubes)
    assert oracle == pytest.approx(4.0 / 3.0, rel=1e-3)
    assert rep.constant == pytest.approx(oracle, rel=0.02)


def test_ap_constant_at_least_one():
    g = make_grid(1.0, 256)
    rng = np.random.default_rng(8)
    cubes = dyadic_cubes(g)
    for _ in range(10):
        w = GridFunction(g, 0.1 + rng.random(256))
        assert ap_constant(w, 2.0, cubes).constant >= 1.0 - 1e-9


def test_two_weight_ap():
    g = make_grid(1.0, 64)
    cubes = dyadic_cubes(g)
    one = constant(g, 1.0)
    assert two_weight_ap(WeightPair(one, one), 2.0, cubes).constant == 1.0
    rng = np.random.default_rng(14)
    w = GridFunction(g, 0.1 + rng.random(64))
    same = two_weight_ap(WeightPair(w, w), 2.0, cubes).constant
    assert same == pytest.approx(ap_constant(w, 2.0, cubes).constant, rel=1e-13)
    # u supported on half the domain, v = 1: sup is the largest average of u
    u = indicator(g, 0.0, 1.0)
    rep = two_weight_ap(WeightPair(u, one), 2.0, cubes)
    brute = max(np.mean(u.values[q.i0 : q.i0 + q.n_cells]) for q in cubes)
    assert rep.constant == pytest.approx(brute, rel=1e-14)
    assert rep.constant == 1.0


def test_bump_constant_constant_weights_a0():
    g = make_grid(1.0, 64)
    one = constant(g, 1.0)
    spec = BumpSpec(2.0, 0.0, 0.0)
    rep = bump_constant(WeightPair(one, one), spec, dyadic_cubes(g))
    assert rep.constant == 1.0


def test_bump_constant_scale_invariance():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(31)
    cubes = dyadic_cubes(g)
    spec = BumpSpec.from_preset("comm", 2.0, 1.0)
    u = GridFunction(g, 0.5 + rng.random(128))
    v = GridFunction(g, 0.5 + rng.random(128))
    base = bump_constant(WeightPair(u, v), spec, cubes).constant
    for c in (0.1, 10.0):
        s = c**2.0
        scaled = bump_constant(
            WeightPair(GridFunction(g, s * u.values), GridFunction(g, s * v.values)),
            spec, cubes).constant
        assert scaled == pytest.approx(base, rel=4e-10)


def test_bump_preset_ordering():
    g = make_grid(1.0, 64)
    cubes = dyadic_cubes(g)
    one = constant(g, 1.0)
    pair = WeightPair(one, one)
    comm = bump_constant(pair, BumpSpec.from_preset("comm", 2.0, 1.0), cubes).constant
    czo = bump_constant(pair, BumpSpec.from_preset("czo", 2.0, 1.0), cubes).constant
    ap = two_weight_ap(pair, 2.0, cubes).constant
    assert comm >= czo >= ap == 1.0
    rng = np.random.default_rng(100)
    for _ in range(20):
        u = GridFunction(g, 0.2 + rng.random(64))
        v = GridFunction(g, 0.2 + rng.random(64))
        pair = WeightPair(u, v)
        comm = bump_constant(pair, BumpSpec.from_preset("comm", 2.0, 1.0), cubes).constant
        czo = bump_constant(pair, BumpSpec.from_preset("czo", 2.0, 1.0), cubes).constant
        assert comm >= czo * (1 - 4e-10)


def test_bump_maximal_preset_uses_plain_average():
    g = make_grid(1.0, 64)
    rng = np.random.default_rng(17)
    u = GridFunction(g, 0.5 + rng.random(64))
    one = constant(g, 1.0)
    spec = BumpSpec.from_preset("max", 2.0, 1.0)
    cubes = [Cube(0, 64)]
    rep = bump_constant(WeightPair(u, one), spec, cubes)
    right = bump_constant(WeightPair(one, one), spec, cubes).constant
    assert rep.constant == pytest.approx(np.mean(u.values) * right, rel=1e-9)


def test_bump_report_metadata(tmp_path):
    g = make_grid(1.0, 32)
    one = constant(g, 1.0)
    cubes = cube_family(g, "dyadic+shifted")
    pair, spec = WeightPair(one, one), BumpSpec.from_preset("comm", 2.0, 1.0)
    rep = bump_constant(pair, spec, cubes)
    # the report file labels the constant with the inputs the CLI resolved
    assert cli_main(["bump", "--u", "const:1", "--v", "const:1", "--L", "1", "--m", "32",
                     "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "bump.json").read_text())["result"]
    assert (result["p"], result["preset"], result["delta"]) == (2.0, "comm", 1.0)
    assert result["constant"] == rep.constant
    values = _bump_values(pair, spec, cubes)
    assert len(values) == len(cubes) and rep.constant == np.max(values)
    assert cubes[int(np.argmax(values))] == rep.argmax_cube


@pytest.mark.parametrize("preset, young_functions", [("comm", 2), ("max", 1)])
def test_bump_constant_solves_t_star_once_per_young_function(monkeypatch, preset,
                                                             young_functions):
    """log t* (Phi(t*) = 1) is solved once per Young function, not once per
    length group: the dyadic+shifted family at m = 256 has 9 lengths."""
    real, solved = orlicz.young_inverse_at_one, []
    monkeypatch.setattr(orlicz, "young_inverse_at_one",
                        lambda phi: solved.append(phi) or real(phi))
    g = make_grid(1.0, 256)
    cubes = cube_family(g, "dyadic+shifted")
    assert len(np.unique(cubes.n_cells)) == 9
    pair = WeightPair(GridFunction(g, 1.0 + np.linspace(0.0, 1.0, 256)), constant(g, 2.0))
    bump_constant(pair, BumpSpec.from_preset(preset, 2.0, 1.0), cubes)
    assert len(solved) == young_functions


def test_iterate_maximal_constant_and_monotone():
    g = make_grid(1.0, 64)
    one = constant(g, 1.0)
    for k in (1, 2, 3):
        assert np.array_equal(iterate_maximal(one, k).values, one.values)
    f = indicator(g, -0.5, 0.25)
    m1 = iterate_maximal(f, 1)
    m2 = iterate_maximal(f, 2)
    assert np.all(m2.values >= m1.values - 1e-15)
    assert np.all(m1.values >= f.values - 1e-15)
    with pytest.raises(ValueError):
        iterate_maximal(f, 0)


def test_iterate_maximal_indicator_value():
    g = make_grid(4.0, 512)
    f = indicator(g, -1.0, 1.0)
    m1 = iterate_maximal(f, 1)
    i3 = int(np.argmin(np.abs(g.centers - 3.0)))
    # brute-force enumeration of interval averages at that cell
    prefix = np.concatenate(([0.0], np.cumsum(f.values)))
    best = max(
        (prefix[b] - prefix[a]) / (b - a)
        for a in range(0, i3 + 1)
        for b in range(i3 + 1, 513)
    )
    assert m1.values[i3] == pytest.approx(best, rel=1e-13)
    assert best == pytest.approx(0.5, abs=2 * g.h)
    assert np.array_equal(m1.values, maximal_fn(f).values)


_P_MESSAGE = r"p must be > 1 with p - 1 <= 2\^22"
_P_CALLS = {
    "ap_constant": lambda p, w, cubes: ap_constant(w, p, cubes),
    "two_weight_ap": lambda p, w, cubes: two_weight_ap(WeightPair(w, w), p, cubes),
    "from_preset": lambda p, w, cubes: BumpSpec.from_preset("czo", p),
    "custom": lambda p, w, cubes: BumpSpec(p, 1.0, 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 0.5, -np.inf, np.nan, np.inf, 2.0**22 + 2, 1e20])
@pytest.mark.parametrize("call", _P_CALLS.values(), ids=_P_CALLS.keys())
def test_every_p_entry_point_keeps_the_one_p_rule(call, p):
    g = make_grid(1.0, 16)
    with pytest.raises(ValueError, match=_P_MESSAGE):
        call(p, power_weight(g, 0.5), dyadic_cubes(g))


@pytest.mark.filterwarnings("error")
def test_ap_constant_runs_at_the_largest_p():
    # the power form's cancellation in 1 - p' costs about 3e-11 relative at
    # p - 1 = 2^22, against a form without it
    g = make_grid(1.0, 64)
    cubes, w = dyadic_cubes(g), power_weight(g, 0.5)
    p = 2.0**22 + 1

    def log_space(block):  # (avg w) (avg w^(1 - p'))^(p - 1), with 1 - p' = -1/(p - 1)
        x = -np.log(block) / (p - 1)
        return np.mean(block) * np.exp((p - 1) * np.log1p(np.mean(np.expm1(x))))

    want = max(log_space(w.values[q.i0 : q.i0 + q.n_cells]) for q in cubes)
    assert ap_constant(w, p, cubes).constant == pytest.approx(want, rel=1e-9)


def test_weight_pair_on_two_grids_names_both():
    u, v = constant(make_grid(1.0, 16), 1.0), constant(make_grid(2.0, 16), 1.0)
    with pytest.raises(ValueError, match="u and v must share a grid: v lies on"):
        WeightPair(u, v)
    with pytest.raises(ValueError, match="v must be positive everywhere"):
        ap_constant(indicator(u.grid, 0, 1), 2.0, dyadic_cubes(u.grid))


def test_iterate_maximal_refuses_k_past_the_work_budget_before_any_call(monkeypatch):
    calls = []
    monkeypatch.setattr(weights, "maximal_fn", lambda f: calls.append(f) or f)
    g = make_grid(1.0, 64)  # below 1024 cells, each call counts 1024
    budget = weights.MAXIMAL_WORK_CELLS // 1024
    iterate_maximal(constant(g, 1.0), budget)
    assert len(calls) == budget
    calls.clear()
    for k, m in ((budget + 1, 64), (100_000, 64), (9, weights.MAXIMAL_CELL_CAP)):
        with pytest.raises(ValueError, match=r"capped at 262144 cells per call and 2097152 over"):
            iterate_maximal(constant(make_grid(1.0, m), 1.0), k)
    assert calls == []
    iterate_maximal(constant(make_grid(1.0, weights.MAXIMAL_CELL_CAP), 1.0), 8)
    assert len(calls) == 8
