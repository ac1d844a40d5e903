"""The Orlicz averages against the reference bisection in `orlicz_oracle`.

`orlicz_average_groups` decides most bracketing and bisection steps from
a Newton-located root instead of evaluating Phi. It must return the
reference's values, lower bracket ends and iteration counts exactly
(`array_equal`), and raise an error of the same type exactly when the
reference does; `average_values` runs it on one block of same-length rows. The last test runs two `bump` commands end to end with the
reference swapped in and compares the report bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orlicz_oracle as oracle
from bumplab import orlicz, weights
from bumplab.cli import main
from bumplab.grid import LengthGroup, cube_family, make_grid, per_cube
from bumplab.orlicz import (
    OrliczConvergenceError,
    OrliczOverflowError,
    YoungFunction,
    orlicz_average_groups,
)

profile = settings(max_examples=150, deadline=None)
exponents = st.floats(1.0, 6.0, exclude_min=True)
log_exponents = st.sampled_from((0.0, 0.5, 2.0, 4.0))
tolerances = st.sampled_from((1e-3, 1e-10, 1e-14))


def average_values(blocks, phi, rel_tol):
    """The Orlicz averages of the rows of blocks, as one length group: per-row
    values, the iteration count and per-row lower bracket ends."""
    rows, n = blocks.shape
    values, iterations, lower = orlicz_average_groups(
        blocks.reshape(-1), [LengthGroup(n, np.arange(rows) * n)], phi, rel_tol)
    return values, int(iterations[0]), lower


def outcome(fn, *args):
    """fn's result, or the type of the error it raises."""
    try:
        return fn(*args)
    except (OrliczOverflowError, OrliczConvergenceError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    values, iterations, lower = got
    assert np.array_equal(values, want[0])
    assert np.array_equal(iterations, want[1])
    assert np.array_equal(lower, want[2])


@st.composite
def blocks(draw):
    """(rows, cells) blocks of |f|: per-row scales across 1e-8..1e8, zero
    cells, and whole zero rows."""
    rows, cells = draw(st.integers(1, 12)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 1))
    spread = draw(st.sampled_from((0.0, 0.1, 1.0, 3.0)))
    out = scale * np.exp(spread * rng.standard_normal((rows, cells)))
    out *= rng.random((rows, cells)) > draw(st.sampled_from((0.0, 0.3, 0.9)))
    out[rng.random(rows) < 0.15] = 0.0
    return out


@profile
@given(blocks(), exponents, log_exponents, tolerances)
def test_values_equal_reference(block, p, a, rel_tol):
    phi = YoungFunction(p, a)
    assert_same(outcome(average_values, block, phi, rel_tol),
                outcome(oracle.orlicz_average_values, block, phi, rel_tol))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1), exponents, log_exponents, tolerances)
def test_groups_equal_reference_group_by_group(level, seed, p, a, rel_tol):
    """Every length group of a shuffled dyadic+shifted family of one grid."""
    grid = make_grid(1.0, 2**level)
    rng = np.random.default_rng(seed)
    cells = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(rng.standard_normal(grid.cells))
    cells[rng.random(grid.cells) < 0.2] = 0.0
    phi = YoungFunction(p, a)
    cubes = list(cube_family(grid, "dyadic+shifted"))
    rng.shuffle(cubes)
    seen = []
    per_cube(lambda groups, _: seen.append(groups) or np.ones(len(cubes)), grid, cubes, cells)
    groups = seen[0]
    assert_same(outcome(orlicz_average_groups, cells, groups, phi, rel_tol),
                outcome(oracle.orlicz_average_groups, cells, groups, phi, rel_tol))


def count_phi_evaluations(monkeypatch):
    calls = []
    real = orlicz._phi_means

    def counted(blocks, lam, phi):
        calls.append(len(blocks))
        return real(blocks, lam, phi)

    monkeypatch.setattr(orlicz, "_phi_means", counted)
    return calls


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-10, 1e-14])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_decisions_inside_the_root_band(monkeypatch, p, rel_tol):
    """Constant rows with a = 0 have the representable root lambda* = c, the
    first lambda tried, so decisions fall inside the band around it."""
    block = np.repeat(np.array([[0.3], [1.0], [7.25], [3.0e5]]), 16, axis=1)
    calls = count_phi_evaluations(monkeypatch)
    got = average_values(block, YoungFunction(p, 0.0), rel_tol)
    assert len(calls) > 2  # beyond the two root checks
    assert_same(got, oracle.orlicz_average_values(block, YoungFunction(p, 0.0), rel_tol))
    assert np.array_equal(got[0], block[:, 0])


@pytest.mark.parametrize("error", [np.nan, -1e-3, -1e-9, -1e-14, 1e-14, 1e-9, 1e-3])
@settings(max_examples=20, deadline=None)
@given(blocks(), exponents, log_exponents, tolerances)
def test_unknown_or_misplaced_root(error, block, p, a, rel_tol):
    """With no root (NaN) every decision evaluates Phi, as the reference does.
    A root off by more than the band fails its check and goes the same way;
    one off by less still decides right."""
    phi = YoungFunction(p, a)
    real = orlicz._roots
    orlicz._roots = lambda blocks, phi, t_star: real(blocks, phi, t_star) * (1.0 + error)
    try:
        got = outcome(average_values, block, phi, rel_tol)
    finally:
        orlicz._roots = real
    assert_same(got, outcome(oracle.orlicz_average_values, block, phi, rel_tol))


@settings(max_examples=80, deadline=None)
@given(blocks(), st.sampled_from((40.0, 150.0, 400.0, 1200.0)), log_exponents)
@example(np.array([[1e4, 1e-4, 0.0, 0.0]]), 1200.0, 0.0)  # test_orlicz_overflow_flagged
def test_overflow_raised_iff_reference_raises(block, p, a):
    phi = YoungFunction(p, a)
    assert_same(outcome(average_values, block, phi, 1e-10),
                outcome(oracle.orlicz_average_values, block, phi, 1e-10))


SPIKE_AND_FLAT = np.array([[1.0] + [0.0] * 63, [1.0] * 64])  # halves twice, doubles once


@pytest.mark.parametrize("cap", [1, 2, 4, 30])
@settings(max_examples=25, deadline=None)
@given(blocks(), exponents, log_exponents, tolerances)
@example(SPIKE_AND_FLAT, 2.0, 4.0, 1e-10)
def test_iteration_caps_met_like_reference(cap, block, p, a, rel_tol):
    """With a small cap, halving, doubling and bisection each run into it on
    some blocks: the same error, with the same message, or the same result."""
    phi = YoungFunction(p, a)
    outcomes = []
    for module, fn in ((orlicz, average_values), (oracle, oracle.orlicz_average_values)):
        real = module.MAX_ITERATIONS
        module.MAX_ITERATIONS = cap
        try:
            outcomes.append(fn(block, phi, rel_tol))
        except OrliczConvergenceError as exc:
            outcomes.append(str(exc))
        except OrliczOverflowError as exc:
            outcomes.append(type(exc))
        finally:
            module.MAX_ITERATIONS = real
    got, want = outcomes
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_same(got, want)


def test_bisection_cap_raises_like_reference():
    block = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 4.0]])
    for fn in (average_values, oracle.orlicz_average_values):
        with pytest.raises(OrliczConvergenceError, match="bisection exceeded iteration cap"):
            fn(block, YoungFunction(2.0, 1.0), 1e-17)


BUMPS = [
    ["bump", "--preset", "comm", "--u", "const:1+gaussian:-0.10,0.3", "--v", "M5:u"],
    ["bump", "--preset", "czo", "--u", "const:1+gaussian:-0.10,0.3",
     "--v", "const:1+gaussian:0.10,0.6"],
]


@pytest.mark.parametrize("argv", BUMPS, ids=["comm", "czo"])
def test_bump_report_bytes_equal_with_reference_core(tmp_path, monkeypatch, argv):
    """Each run writes to ./out of its own directory: the report embeds --out."""
    argv = [*argv, "--L", "8", "--m", "512", "--cubes", "dyadic+shifted", "--out", "out"]
    for run in ("fast", "reference"):
        if run == "reference":
            monkeypatch.setattr(weights, "orlicz_average_groups", oracle.orlicz_average_groups)
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main(argv) == 0
    fast = (tmp_path / "fast" / "out" / "bump.json").read_bytes()
    assert fast == (tmp_path / "reference" / "out" / "bump.json").read_bytes()
