import numpy as np
import pytest

from bumplab import (
    Cube,
    GridFunction,
    YoungFunction,
    constant,
    dyadic_cubes,
    indicator,
    make_grid,
    orlicz_average,
    young_eval,
    young_inverse_at_one,
)
from bumplab.orlicz import ROOT_BAND, bmo_norm
from cube_oracle import average

# frozen from a 50-digit evaluation of log(e+1)^4
LN_E_PLUS_1_POW4 = 2.9744392148233299

# frozen from an independent high-precision bisection of t^2 log(e+t)^a = 1
YOUNG_ROOT_P2 = {0: 1.0, 3: 0.7268774247351369, 4: 0.6711375600571870}


def independent_young_root(p: float, a: float) -> float:
    """Plain bisection oracle at 1e-14 bracket width, separate code path."""
    lo, hi = 0.0, 1.0
    while hi**p * np.log(np.e + hi) ** a < 1.0:
        hi *= 2.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid**p * np.log(np.e + mid) ** a < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_young_eval_examples():
    assert young_eval(YoungFunction(2, 0), 3.0) == 9.0
    for phi in (YoungFunction(2, 0), YoungFunction(1.5, 2), YoungFunction(3, 4)):
        assert young_eval(phi, 0.0) == 0.0
    assert young_eval(YoungFunction(2, 4), 1.0) == pytest.approx(LN_E_PLUS_1_POW4, rel=1e-12)
    with pytest.raises(ValueError):
        young_eval(YoungFunction(2, 0), -0.5)


def test_young_function_validation():
    with pytest.raises(ValueError):
        YoungFunction(1.0, 0)
    with pytest.raises(ValueError):
        YoungFunction(2.0, -1.0)
    for p, a in ((np.inf, 0.0), (np.nan, 0.0), (2.0, np.inf), (2.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            YoungFunction(p, a)
    for p, p_conj in ((2.0, 2.0), (3.0, 1.5)):  # the conjugate exponent p' = p / (p - 1)
        phi = YoungFunction(p, 0.0)
        assert phi.p / (phi.p - 1.0) == pytest.approx(p_conj)


@pytest.mark.parametrize("a", [0, 3, 4])
def test_young_inverse_at_one(a):
    phi = YoungFunction(2, a)
    t = young_inverse_at_one(phi)
    assert abs(young_eval(phi, t) - 1.0) <= 1e-12
    assert t == pytest.approx(YOUNG_ROOT_P2[a], abs=1e-12)
    assert t == pytest.approx(independent_young_root(2, a), abs=1e-12)
    assert young_inverse_at_one(YoungFunction(3, 0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p, a", [(1e6, 0.5), (1e5, 2.0)])
def test_young_inverse_at_one_ends_where_the_bracket_cannot_halve(p, a):
    # Phi steps by more than 1e-12 between adjacent floats near t*, so t* is
    # one of the two floats either side of the crossing
    phi = YoungFunction(p, a)
    t = young_inverse_at_one(phi)
    below, above = np.nextafter(t, 0.0), np.nextafter(t, 2.0)
    assert (young_eval(phi, below) < 1.0 <= young_eval(phi, t)
            or young_eval(phi, t) < 1.0 <= young_eval(phi, above))
    assert abs(young_eval(phi, t) - 1.0) < 1e-9


def test_young_inverse_at_one_where_phi_leaves_the_float_range():
    # t^3000 underflows where log(e + t)^6000 overflows, so a product form
    # would read 0 or NaN near t*; t^3000 log(e+t)^6000 = (t^2 log(e+t)^4)^1500
    # has the root of (2, 4)
    assert abs(young_eval(YoungFunction(3000, 6000), YOUNG_ROOT_P2[4]) - 1.0) <= 1e-9
    t = young_inverse_at_one(YoungFunction(3000, 6000))
    assert t == pytest.approx(YOUNG_ROOT_P2[4], abs=1e-12)


def test_orlicz_average_constant_a0_is_exact():
    g = make_grid(1.0, 64)
    for c in (0.5, 1.0, 7.25):
        r = orlicz_average(constant(g, c), Cube(0, 64), YoungFunction(2, 0))
        assert r.value == c  # feasible end of the bracket never moves below c


def test_orlicz_average_indicator_closed_form():
    g = make_grid(1.0, 64)
    f = indicator(g, 0.0, 1.0)
    r = orlicz_average(f, Cube(0, 64), YoungFunction(2, 0))
    assert r.value == pytest.approx(np.sqrt(0.5), rel=1e-9)


def test_orlicz_average_constant_log_bump():
    g = make_grid(1.0, 64)
    for c in (0.1, 1.0, 10.0):
        phi = YoungFunction(2, 4)
        r = orlicz_average(constant(g, c), Cube(0, 64), phi)
        assert r.value == pytest.approx(c / YOUNG_ROOT_P2[4], rel=1e-9)


def test_orlicz_average_zero_function():
    g = make_grid(1.0, 64)
    r = orlicz_average(constant(g, 0.0), Cube(8, 16), YoungFunction(2, 1))
    assert r.value == 0.0 and r.iterations == 0


def test_orlicz_bracket_contract():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(12)
    f = GridFunction(g, rng.standard_normal(128))
    phi = YoungFunction(2.5, 2.0)
    q = Cube(16, 64)
    r = orlicz_average(f, q, phi)
    lo, hi = r.bracket
    assert lo < r.value == hi
    assert hi - lo <= ROOT_BAND * r.value * (1 + 1e-3)
    # one end sits within rounding of the root, where the product form and
    # the package's log-space form may round to either side of 1; the other
    # end is a band away, where the mean is off 1 by at least p ROOT_BAND
    block = np.abs(f.values[16:80])
    at_value, at_lower = (np.mean(young_eval(phi, block / lam)) - 1.0 for lam in (hi, lo))
    assert at_value <= 1e-14 and at_lower >= -1e-14
    assert max(-at_value, at_lower) >= phi.p * ROOT_BAND * (1 - 1e-3)


def test_orlicz_homogeneity_property():
    g = make_grid(1.0, 256)
    rng = np.random.default_rng(77)
    phi = YoungFunction(2, 3)
    for _ in range(100):
        f = GridFunction(g, rng.standard_normal(256))
        c = float(rng.uniform(0.1, 10.0))
        q = Cube(0, 256)
        a = orlicz_average(GridFunction(g, c * f.values), q, phi).value
        b = orlicz_average(f, q, phi).value
        assert a == pytest.approx(c * b, rel=2 * ROOT_BAND)


def test_orlicz_a0_reduces_to_lp_average():
    g = make_grid(1.0, 256)
    rng = np.random.default_rng(42)
    for i in range(100):
        f = GridFunction(g, rng.standard_normal(256))
        p = [1.5, 2.0, 3.0][i % 3]
        level = int(rng.integers(2, 9))
        n = 2**level
        q = Cube(n * int(rng.integers(0, 256 // n)), n)
        got = orlicz_average(f, q, YoungFunction(p, 0)).value
        want = average(GridFunction(g, np.abs(f.values) ** p), q) ** (1.0 / p)
        assert got == pytest.approx(want, rel=2 * ROOT_BAND)


def test_orlicz_monotone_in_log_exponent():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.standard_normal(128))
    q = Cube(32, 64)
    vals = [orlicz_average(f, q, YoungFunction(2, a)).value for a in (0.0, 1.0, 2.0, 4.0)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo * (1 - 4e-10)
    # constant-function case has the exact closed form c / Phi^{-1}(1)
    c = 2.5
    for a in (0.0, 2.0, 4.0):
        got = orlicz_average(constant(g, c), q, YoungFunction(2, a)).value
        assert got == pytest.approx(c / independent_young_root(2, a), rel=1e-9)


def test_orlicz_overflow_flagged():
    """Phi's product form overflows here (1e8^1200); the log-space search
    returns the closed form (mean |f|^p)^(1/p) = 1e4 (1/4)^(1/1200), since
    (1e-4/1e4)^1200 underflows."""
    g = make_grid(1.0, 4)
    f = GridFunction(g, np.array([1e4, 1e-4, 0.0, 0.0]))
    r = orlicz_average(f, Cube(0, 4), YoungFunction(1200, 0))
    assert r.value == pytest.approx(1e4 * 0.25 ** (1 / 1200), rel=1e-10)
    assert r.bracket[0] < r.value


def test_bmo_norm_constant_is_zero():
    g = make_grid(1.0, 64)
    assert bmo_norm(constant(g, 7.0), dyadic_cubes(g)) == 0.0
    with pytest.raises(ValueError):
        bmo_norm(constant(g, 7.0), [])


def test_bmo_norm_linear_function():
    g = make_grid(1.0, 256)
    b = GridFunction(g, g.centers)
    cubes = dyadic_cubes(g)
    got = bmo_norm(b, cubes)
    # independent enumeration of the mean oscillation, cube by cube
    best = 0.0
    for q in cubes:
        block = g.centers[q.i0 : q.i0 + q.n_cells]
        best = max(best, float(np.mean(np.abs(block - block.mean()))))
    assert got == pytest.approx(best, rel=1e-14)
    assert got == pytest.approx(0.5, abs=2 * g.h)


def test_bmo_norm_two_level_symbol():
    g = make_grid(1.0, 64)
    c1, c2 = 1.5, -2.5
    b = GridFunction(g, np.where(g.centers < 0, c1, c2))
    assert bmo_norm(b, dyadic_cubes(g)) == pytest.approx(abs(c1 - c2) / 2, rel=1e-14)


def test_bmo_norm_invariances():
    g = make_grid(1.0, 128)
    rng = np.random.default_rng(21)
    b = GridFunction(g, rng.standard_normal(128))
    cubes = dyadic_cubes(g)
    base = bmo_norm(b, cubes)
    assert bmo_norm(GridFunction(g, b.values + 3.7), cubes) == pytest.approx(base, rel=1e-12)
    assert bmo_norm(GridFunction(g, -4.0 * b.values), cubes) == pytest.approx(4.0 * base, rel=1e-12)
    assert base <= 2 * np.max(np.abs(b.values))
