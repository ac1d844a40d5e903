"""The Orlicz averages against the reference bisection in `orlicz_oracle`.

`orlicz_average_rows` finds each cube's root by Newton in log space and
certifies a bracket [lower, value] ROOT_BAND wide around it. Wherever the
reference returns, the values must lie within its rel_tol plus 2 ROOT_BAND
(relative) of the reference's; where the reference's product form of Phi
overflows, the package must still return a certified bracket. The
certificate itself is checked at 50 digits with mpmath: the end at the
Newton root up to the rounding of one float evaluation, the far end
strictly. The last test runs two `bump` commands end to end with the
reference swapped in and compares the reports.
"""

import importlib.util
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orlicz_oracle as oracle
from bumplab import orlicz, weights
from bumplab.cli import main
from bumplab.grid import cube_family, make_grid, per_cube
from bumplab.orlicz import ROOT_BAND, OrliczConvergenceError, YoungFunction
from bumplab.orlicz import orlicz_average_rows as average_values

profile = settings(max_examples=150, deadline=None)
exponents = st.floats(1.0, 6.0, exclude_min=True)
log_exponents = st.sampled_from((0.0, 0.5, 2.0, 4.0))
tolerances = st.sampled_from((1e-3, 1e-10, 1e-14))
HAVE_MPMATH = importlib.util.find_spec("mpmath") is not None


def assert_bracket(values, lower):
    live = values > 0.0
    assert np.all(lower[~live] == 0.0)
    assert np.all(lower[live] < values[live])
    assert np.all(values[live] <= lower[live] * (1.0 + ROOT_BAND * (1.0 + 1e-3)))


def assert_agrees(got, want, rel_tol):
    """Values within rel_tol + 2 ROOT_BAND of the reference's; certified
    brackets; step counts >= 0."""
    values, iterations, lower = got
    np.testing.assert_allclose(values, want[0], rtol=rel_tol + 2 * ROOT_BAND, atol=0.0)
    assert_bracket(values, lower)
    assert np.all(np.asarray(iterations) >= 0)


def assert_certified(block, phi, values, lower):
    """Per nonzero row, log mean Phi(|f|/value) <= 0 < log mean Phi(|f|/lower)
    at 50 digits (needs mpmath). The end at lambda-hat may miss by the
    rounding of one float evaluation; the far end, a band from it, holds
    without that slack, at least p ROOT_BAND less the slack past 0."""
    assert_bracket(values, lower)
    for row, value, low in zip(block, values, lower):
        if value > 0.0:
            slack = oracle.rounding_allowance(row, value, phi)
            far = max(phi.p * ROOT_BAND * (1.0 - 1e-3) - slack, 0.0)
            at_value, at_lower = (oracle.log_mean_phi_exact(row, lam, phi) for lam in (value, low))
            assert (at_value <= slack and at_lower > far) or (
                at_value < -far and at_lower > -slack)


def check_against_reference(block, phi, rel_tol=oracle.REL_TOL):
    """Agreement where the reference returns, the certificate where its
    product form of Phi overflows (without mpmath, the bracket alone)."""
    got = average_values(block, phi)
    try:
        want = oracle.orlicz_average_values(block, phi, rel_tol)
    except oracle.PhiOverflow:
        if HAVE_MPMATH:
            assert_certified(block, phi, got[0], got[2])
        else:
            assert_bracket(got[0], got[2])
        return
    assert_agrees(got, want, rel_tol)


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
    check_against_reference(block, YoungFunction(p, a), rel_tol)


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
    blocks = []
    per_cube(lambda block: blocks.append(block) or np.ones(len(block)), grid, cubes, cells)
    assert len(blocks) == level + 1
    for block in blocks:
        assert_agrees(average_values(block, phi),
                      oracle.orlicz_average_values(block, phi, rel_tol), rel_tol)


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-10, 1e-14])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_decisions_inside_the_root_band(p, rel_tol):
    """Constant rows with a = 0 have the representable root lambda* = c, where
    Newton starts: one step, the value c exactly, and the lower end
    c (1 - ROOT_BAND) infeasible. The reference's feasible end is c too."""
    block = np.repeat(np.array([[0.3], [1.0], [7.25], [3.0e5]]), 16, axis=1)
    values, iterations, lower = average_values(block, YoungFunction(p, 0.0))
    assert np.array_equal(values, block[:, 0])
    assert np.array_equal(lower, block[:, 0] * (1.0 - ROOT_BAND))
    assert iterations == 1
    want = oracle.orlicz_average_values(block, YoungFunction(p, 0.0), rel_tol)
    assert np.array_equal(want[0], values)


@pytest.mark.parametrize("error", [np.nan, -1e-3, -1e-9, -1e-14, 1e-14, 1e-9, 1e-3])
@settings(max_examples=20, deadline=None)
@given(blocks(), exponents, log_exponents)
def test_unknown_or_misplaced_root(error, block, p, a):
    """A start lambda_0 (1 + error), off the usual one, still ends in a
    certified bracket around the same root. With no start (NaN) the search
    has nothing to bracket, and raises instead of looping. Each run gets its
    own YoungFunction, so the misplaced run solves log t* too."""
    phi = YoungFunction(p, a)
    want = average_values(block, YoungFunction(p, a))
    real = orlicz._certified_roots

    def misplaced(r, r_p, top, s, lo, hi, phi):
        return real(r, r_p, top, s - np.log1p(error), lo, hi, phi)

    orlicz._certified_roots = misplaced
    try:
        if np.isnan(error):
            with pytest.raises(OrliczConvergenceError):
                average_values(block, phi)
            return
        values, _, lower = average_values(block, phi)
    finally:
        orlicz._certified_roots = real
    assert_bracket(values, lower)
    np.testing.assert_allclose(values, want[0], rtol=2 * ROOT_BAND, atol=0.0)


def test_bracket_that_cannot_halve_raises(monkeypatch):
    """An evaluation that never reaches the root (log mean Phi = 1 wherever it
    is asked) leaves brackets that close without a certificate: the search
    raises OrliczConvergenceError, its only exit besides a certified root."""

    def never_one(r, r_p, s, phi, slope=False):
        f = np.ones_like(s)
        return (f, np.full_like(s, phi.p)) if slope else f

    monkeypatch.setattr(orlicz, "_log_mean_phi", never_one)
    with pytest.raises(OrliczConvergenceError, match="can no longer halve"):
        average_values(np.array([[1.0, 2.0, 3.0]]), YoungFunction(2.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(blocks(), st.sampled_from((40.0, 150.0, 400.0, 1200.0)), log_exponents)
@example(np.array([[1e4, 1e-4, 0.0, 0.0]]), 1200.0, 0.0)  # test_orlicz_overflow_flagged
def test_overflow_in_reference_is_certified(block, p, a):
    """Large p, where the reference's product form of Phi overflows on many
    blocks: those are certified, the others agree with it."""
    check_against_reference(block, YoungFunction(p, a))


@st.composite
def small_blocks(draw):
    """(rows, cells <= 16) blocks of |f| across 1e-250..1e250, with zero cells."""
    rows, cells = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-250.0, 250.0, size=(rows, 1))
    spread = draw(st.sampled_from((0.0, 0.1, 1.0, 10.0)))
    out = scale * np.exp(spread * rng.standard_normal((rows, cells)))
    out *= rng.random((rows, cells)) > draw(st.sampled_from((0.0, 0.5)))
    return out


@settings(max_examples=100, deadline=None)
@given(small_blocks(), st.floats(1.0, 3000.0, exclude_min=True), st.floats(0.0, 6000.0))
@example(np.array([[1.0]]), 3000.0, 6000.0)  # Phi(1) = log(e+1)^6000 overflows
def test_bracket_certified_at_50_digits(block, p, a):
    """An independent certificate, evaluated in mpmath, over the whole range of
    p and a, where the float product form overflows or underflows."""
    pytest.importorskip("mpmath")
    phi = YoungFunction(p, a)
    values, _, lower = average_values(block, phi)
    assert_certified(block, phi, values, lower)


BUMPS = [
    ["bump", "--preset", "comm", "--u", "const:1+gaussian:-0.10,0.3", "--v", "M5:u"],
    ["bump", "--preset", "czo", "--u", "const:1+gaussian:-0.10,0.3",
     "--v", "const:1+gaussian:0.10,0.6"],
]


@pytest.mark.parametrize("argv", BUMPS, ids=["comm", "czo"])
def test_bump_report_matches_reference_core(tmp_path, monkeypatch, argv):
    """With the reference swapped in, the report is the same apart from the
    constant: that agrees within twice the reference's REL_TOL plus 2
    ROOT_BAND (it is the product of two averages), at the same argmax cube.
    Each run writes to ./out of its own directory: the report embeds --out."""
    argv = [*argv, "--L", "8", "--m", "512", "--cubes", "dyadic+shifted", "--out", "out"]
    reports = []
    for run in ("fast", "reference"):
        if run == "reference":
            monkeypatch.setattr(weights, "orlicz_average_rows", oracle.orlicz_average_values)
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main(argv) == 0
        reports.append(json.loads((tmp_path / run / "out" / "bump.json").read_text()))
    fast, reference = (report["result"].pop("constant") for report in reports)
    assert fast == pytest.approx(reference, rel=2 * (oracle.REL_TOL + 2 * ROOT_BAND))
    assert reports[0] == reports[1]
