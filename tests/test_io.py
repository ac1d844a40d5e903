import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bumplab import GridFunction, cli, compactness, constant, gaussian, make_grid
from bumplab.io import (
    _csv_text,
    spectral_report_dict,
    write_curve_csv,
    write_grid_function_csv,
    write_json,
)


def test_grid_function_csv_roundtrip(tmp_path):
    g = make_grid(2.0, 64)
    rng = np.random.default_rng(1)
    f = GridFunction(g, rng.standard_normal(64))
    path = tmp_path / "f.csv"
    write_grid_function_csv(f, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], g.centers)
    assert np.array_equal(back[:, 1], f.values)  # 17 significant digits round-trip


def test_grid_function_csv_format(tmp_path):
    g = make_grid(1.0, 4)
    path = tmp_path / "f.csv"
    write_grid_function_csv(constant(g, 1.0 / 3.0), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 5
    assert lines[1].split(",") == ["-0.75", "0.33333333333333331"]


def test_curve_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_curve_csv(path, ("N", "tail"), [(1.0, 0.25), (2.0, 0.125)])
    assert path.read_text() == "N,tail\n1,0.25\n2,0.125\n"


def _loop_csv(header: str, pairs) -> bytes:
    """The writers' original per-value loop, kept as the byte-level reference."""
    lines = [header] + [f"{format(float(a), '.17g')},{format(float(b), '.17g')}"
                        for a, b in pairs]
    return ("\n".join(lines) + "\n").encode()


def test_csv_writers_match_the_per_value_loop(tmp_path):
    tiny = np.finfo(float).smallest_subnormal
    special = [-0.0, 0.0, tiny, -tiny, 3 * tiny, 2.2250738585072e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -2.0, 1024.0, 2.0**53, 1e16, 1e-5, 1.0 / 3.0]
    values = np.concatenate([special, np.random.default_rng(4).standard_normal(4096 - 16)
                             * 10.0 ** np.random.default_rng(5).uniform(-300, 300, 4080)])
    f = GridFunction(make_grid(8.0, 4096), values)
    write_grid_function_csv(f, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _loop_csv("x,value",
                                                          zip(f.grid.centers, f.values))
    rows = [(float(i + 1), float(v)) for i, v in enumerate(values)] + [(np.float64(-0.0), 7)]
    write_curve_csv(tmp_path / "c.csv", ("k", "sigma"), rows)
    assert (tmp_path / "c.csv").read_bytes() == _loop_csv("k,sigma", rows)
    write_curve_csv(tmp_path / "e.csv", ("N", "tail"), [])
    assert (tmp_path / "e.csv").read_bytes() == b"N,tail\n"


def test_spectrum_writers_match_the_per_value_conversions(tmp_path):
    # 1024 values, nonincreasing, from 1e2 down through subnormals to exact zeros
    s = np.concatenate([np.sort(10.0 ** np.random.default_rng(6).uniform(-320, 2, 1000))[::-1],
                        np.zeros(24)])
    cli._write_sigma(SimpleNamespace(get={"out": str(tmp_path)}.get), "sigma.csv", s)
    pairs = [(float(i + 1), float(v)) for i, v in enumerate(s)]
    assert (tmp_path / "sigma.csv").read_bytes() == _loop_csv("k,sigma", pairs)
    report = compactness._report(s, [64, 256])
    assert json.dumps(spectral_report_dict(report, [64, 256])) == json.dumps({
        "grid_cells": 1024,
        "K_list": [64, 256],
        "sigma_ratios": [float(v) for v in report.sigma_ratios],
        "energy_tails": [float(v) for v in report.energy_tails],
        "singular_values": [float(v) for v in s],
    })


def _row_format_csv(header: str, xs, ys) -> str:
    """The writers' per-row str.format join, kept as the reference for the one
    % format that replaced it."""
    return "".join([header + "\n", *map("{:.17g},{:.17g}\n".format, xs, ys)])


_TINY = float(np.finfo(float).smallest_subnormal)
_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),  # subnormals and ±0.0
    st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1.7e308, -1.7e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS), max_size=40))
@example([])  # the empty curve, which write_curve_csv writes as its header alone
def test_csv_text_matches_the_row_format_join(rows):
    xs, ys = [x for x, _ in rows], [y for _, y in rows]
    assert _csv_text("x,y", xs, ys) == _row_format_csv("x,y", xs, ys)


def test_write_json_deterministic(tmp_path):
    obj = {"b": 1.0 / 3.0, "a": [1, 2], "nested": {"z": 0.1, "y": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, obj)
    write_json(p2, json.loads(p1.read_text()))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_floats(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "r.json", {"result": {"slope": value}})
    assert not list(tmp_path.iterdir())


def test_atomic_write_leaves_no_temp_files(tmp_path):
    g = make_grid(1.0, 8)
    write_grid_function_csv(gaussian(g, 0.0, 0.5), tmp_path / "w.csv")
    write_json(tmp_path / "w.json", {"ok": True})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
