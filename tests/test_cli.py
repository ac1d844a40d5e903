import argparse
import copy
import csv
import json
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bumplab
from bumplab import GridFunction, cli, compactness, iterate_maximal, make_grid, operators, orlicz
from bumplab.cli import _COMMANDS, _COMMON, main, parse_function_spec, validate_config
from config_oracle import CONFIG_SCHEMA


def run(args):
    return main([str(a) for a in args])


def _env():
    return dict(os.environ, PYTHONPATH=str(Path(bumplab.__file__).parents[1]))


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["bump", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bumplab bump ") and "unrecognized arguments: --bogus" in err


# the words of every parser: the top level, each command and each action word
_HELP = [[], *([name] for name in _COMMANDS),
         *([name, action] for name, (_, actions) in _COMMANDS.items() for action in actions
           if action is not None)]


def _names(out: str, flag: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", out) is not None


@pytest.mark.parametrize("words", _HELP, ids=[" ".join(w) or "top" for w in _HELP])
def test_help_names_every_flag(capsys, words):
    """An action's help names its own flags and no flag that only a sibling action
    reads; a command that takes an action word names its actions."""
    with pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    actions = _COMMANDS[words[0]][1] if words else {}
    every = {opt.flag for _, options in actions.values() for opt in (*_COMMON, *options)
             if opt.help is not None}
    if not words:
        flags = ["--config", *_COMMANDS]
    elif None in actions or len(words) == 2:
        own = actions[words[1] if len(words) == 2 else None][1]
        flags = [opt.flag for opt in (*_COMMON, *own) if opt.help is not None]
    else:
        flags = list(actions)
    assert out.startswith(f"usage: bumplab {' '.join(words)}".rstrip())
    for flag in flags:
        assert _names(out, flag), flag
    for flag in every - set(flags):
        assert not _names(out, flag), flag


def test_help_wraps_to_the_terminal_width(capsys, monkeypatch):
    """Every parser formats its help at the one width read when the parser is built."""
    def help_lines(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["probe", "kr", "--help"])
        return capsys.readouterr().out.splitlines()

    narrow, wide = help_lines(60), help_lines(120)
    assert max(map(len, narrow)) <= 58 < max(map(len, wide))
    assert len(narrow) > len(wide)


def test_main_fills_only_the_invoked_subparser(tmp_path, monkeypatch):
    """A call adds the flags of the command it runs and of no other."""
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    assert run(["bmo", "--b", "const:1", "--L", "1", "--m", "16", "--out", tmp_path]) == 0
    (parser,) = built
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_COMMANDS)
    for name, p in sub.choices.items():
        dests = [a.dest for a in p._actions]
        assert dests == (["help", "L", "m", "out", "b", "cubes"] if name == "bmo" else ["help"])

    # a probe kr call fills the probe parser's action words and the kr parser only
    assert run([*_KR, "--out", tmp_path]) == 0
    (sub,) = [a for a in built[-1]._actions if isinstance(a, argparse._SubParsersAction)]
    probe = sub.choices.pop("probe")
    (words,) = [a for a in probe._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for a in probe._actions] == ["help", "action"]
    assert list(words.choices) == ["kr", "svd"]
    assert [a.dest for a in words.choices["kr"]._actions] == [
        "help", "L", "m", "out", "b", "u", "v", "p", "eta_cells", "count", "seed", "N_list",
        "shift_list"]
    assert [a.dest for a in words.choices["svd"]._actions] == ["help"]
    assert all([a.dest for a in p._actions] == ["help"] for p in sub.choices.values())


def test_validation_error_exits_2(tmp_path, capsys):
    assert run(["ap", "--w", "power:0.5", "--p", "2", "--L", "1", "--m", "13",
                "--out", tmp_path]) == 2
    assert run(["ap", "--w", "nosuch:1", "--p", "2", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2
    assert run(["bump", "--u", "const:1", "--v", "const:1", "--preset", "comm",
                "--a-left", "0", "--a-right", "0", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2  # overrides demand preset custom
    assert run(["bump", "--u", "const:1", "--v", "const:1", "--preset", "max", "--p", "1",
                "--L", "1", "--m", "16", "--out", tmp_path]) == 2  # p' would divide by 0
    capsys.readouterr()
    for cube in ("5", "0,16,3"):  # --cube takes exactly i0,n_cells
        assert run(["orlicz", "--f", "const:1", "--cube", cube, "--L", "1", "--m", "16",
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "--cube" in err and "i0,n_cells" in err and "unpack" not in err


_KR = ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1", "--p", "2",
       "--count", "2", "--N-list", "0.5", "--shift-list", "1", "--eta-cells", "8",
       "--L", "1", "--m", "16"]


@pytest.mark.parametrize("flag, value, cfg", [
    ("--eta-cells", 1, {"operator": {"eta_cells": 1}}),
    ("--m", 2, {"grid": {"m": 2}}),
    ("--count", 0, {"probes": {"kr": {"count": 0}}}),
    ("--p", 1, {"bump": {"p": 1}}),
    ("--L", 0, {"grid": {"L": 0}}),
])
def test_out_of_bounds_exits_2_from_flag_or_config(tmp_path, flag, value, cfg):
    i = _KR.index(flag)
    assert run([*_KR[:i + 1], value, *_KR[i + 2:], "--out", tmp_path]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["--config", cfg_path, *_KR[:i], *_KR[i + 2:], "--out", tmp_path]) == 2


@pytest.mark.parametrize("action, flag, value", [
    ("svd", "--count", "3"), ("svd", "--seed", "1"), ("svd", "--N-list", "0.5"),
    ("svd", "--shift-list", "1"), ("svd", "--p", "2"), ("kr", "--K-list", "2"),
])
def test_probe_action_rejects_unread_flag_exits_1(tmp_path, capsys, action, flag, value):
    assert run(["probe", action, flag, value, "--b", "bump:0,0.5", "--u", "const:1",
                "--v", "const:1", "--L", "1", "--m", "16", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bumplab probe {action} ")
    assert f"error: unrecognized arguments: {flag} {value}" in err
    assert not list(tmp_path.iterdir())


# op apply's flags besides --f, with a value each, and those that each --op does not read
_OP_FLAGS = {"--b": "bump:0,0.3", "--eta-cells": "9"}
_OP_UNREAD = {"M": ("--b", "--eta-cells"), "Teta": ("--b",), "Tsharp": ("--b", "--eta-cells"),
              "commutator": ()}
_OP_APPLY = ["op", "apply", "--f", "bump:0,0.5", "--L", "8", "--m", "64"]


@pytest.mark.parametrize("op, flag", [(op, flag) for op, flags in _OP_UNREAD.items()
                                      for flag in flags])
@pytest.mark.parametrize("op_from_config", [False, True])
def test_op_apply_rejects_flag_its_op_does_not_read_exits_1(tmp_path, capsys, op, flag,
                                                           op_from_config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"operator": {"op": op}}))
    out = tmp_path / "out"
    source = ["--config", cfg_path] if op_from_config else []
    op_flag = [] if op_from_config else ["--op", op]
    assert run([*source, *_OP_APPLY, *op_flag, flag, _OP_FLAGS[flag], "--out", out]) == 1
    assert f"op apply --op {op} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("op", _OP_UNREAD)
def test_op_apply_accepts_the_flags_its_op_reads(tmp_path, op):
    own = [flag for flag in _OP_FLAGS if flag not in _OP_UNREAD[op]]
    assert run([*_OP_APPLY, "--op", op, *[a for f in own for a in (f, _OP_FLAGS[f])],
                "--out", tmp_path]) == 0
    config = json.loads((tmp_path / "op_apply.json").read_text())["config"]
    assert ("b" in config.get("symbol", {})) == ("--b" in own)
    assert config.get("operator", {}).get("eta_cells") == (9 if "--eta-cells" in own else None)


_KR_UNIT = ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1",
            "--count", "2"]
_CUSTOM = ["bump", "--u", "const:1", "--v", "const:1", "--preset", "custom"]
_NON_FINITE = {
    "probe-kr-p": [*_KR_UNIT, "--p", "inf"],
    "probe-kr-N-list": [*_KR_UNIT, "--N-list", "0.5,nan"],
    "bump-delta": [*_CUSTOM, "--a-left", "1", "--a-right", "1", "--delta", "inf"],
    "bump-a-left-nan": [*_CUSTOM, "--a-left", "nan", "--a-right", "1"],
    "bump-a-left-inf": [*_CUSTOM, "--a-left", "inf", "--a-right", "1"],
    "bump-a-right-nan": [*_CUSTOM, "--a-left", "1", "--a-right", "nan"],
    "bump-a-right-inf": [*_CUSTOM, "--a-left", "1", "--a-right", "inf"],
    "orlicz-a": ["orlicz", "--f", "const:1", "--a", "inf"],
    "orlicz-p": ["orlicz", "--f", "const:1", "--p", "inf"],
    "ap-p": ["ap", "--w", "const:1", "--p", "inf"],
}


@pytest.mark.parametrize("argv", _NON_FINITE.values(), ids=_NON_FINITE.keys())
def test_non_finite_option_exits_2_without_report(tmp_path, capsys, argv):
    assert run([*argv, "--L", "1", "--m", "16", "--out", tmp_path]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_UNCONVERTIBLE = {
    "probe-svd-K-list": ([], ["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1",
                              "--v", "const:1", "--K-list", "8,x"],
                         "K_list must be integer, got 'x'"),
    "probe-kr-N-list": ([], [*_KR_UNIT, "--N-list", "0.1,abc"], "N_list must be number, got 'abc'"),
    "probe-kr-shift-list": ([], [*_KR_UNIT, "--shift-list", "1.5"],
                            "shift_list must be integer, got '1.5'"),
    "bump-a-left": ([], [*_CUSTOM, "--a-left", "abc", "--a-right", "1"],
                    "a_left must be number or 'avg', got 'abc'"),
    "bump-a-left-config": ([{"bump": {"a_left": "abc"}}], [*_CUSTOM, "--a-right", "1"],
                           "a_left must be number or 'avg', got 'abc'"),
    "orlicz-cube": ([], ["orlicz", "--f", "const:1", "--cube", "0,x"],
                    "cube must be integer, got 'x'"),
}


@pytest.mark.parametrize("config, argv, message", _UNCONVERTIBLE.values(),
                         ids=_UNCONVERTIBLE.keys())
def test_value_that_fails_conversion_names_its_option_exits_2(tmp_path, capsys, config, argv,
                                                              message):
    flags = []
    for cfg in config:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        flags = ["--config", tmp_path / "cfg.json"]
    assert run([*flags, *argv, "--L", "1", "--m", "16", "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


_NOT_FINITE = "error: grid function values must be finite"
_OVERFLOWED = ("error: numerical non-convergence: a per-cube value is not finite (the "
               "reduction overflowed); rescale the input")
_AVERAGE_OVERFLOWS = ("error: an Orlicz average overflows (above 1.8e+308); scale f by a power "
                      "of two, as the average scales with it")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, err", [
    (["bmo", "--b", "gaussian:0,1e-320"], 0, []),  # 0 everywhere: exp(-inf)
    (["op", "apply", "--op", "Teta", "--f", "power:1e308"], 2, [_NOT_FINITE]),
    (["bmo", "--b", "const:1+const:1e308+const:1e308"], 2, [_NOT_FINITE]),
    (["bmo", "--b", "1e308+1e308"], 2, [_NOT_FINITE]),
    (["bmo", "--b", "inf+-inf"], 2, [_NOT_FINITE]),
    (["ap", "--w", "power:200", "--p", "1.5"], 3, [_OVERFLOWED]),
    # A_p is scale-free: w is scaled by a power of two before the powers (this
    # exited 3 while w^(1 - p') overflowed)
    (["ap", "--w", "const:1e-320"], 0, []),
    # v^(-1/p) is inf on every cell: the error names that overflow, not the Orlicz
    # root search it would stop
    (["bump", "--preset", "czo", "--p", "1.01", "--u", "const:1", "--v", "const:5e-324",
      "--cubes", "dyadic"], 3,
     ["error: numerical non-convergence: v^(-1/p) overflowed to inf on a cell of a cube whose "
      "value is needed; rescale v"]),
    # c / t* > c on a constant c at the float maximum: the Orlicz average itself
    # overflows, and the error names that, not the root search
    (["orlicz", "--f", "const:1.7976931348623157e308", "--p", "1.01", "--a", "1"], 2,
     [_AVERAGE_OVERFLOWS]),
    (["bump", "--preset", "comm", "--p", "1.0001", "--u", "const:1.7976931348623157e308",
      "--v", "const:1"], 2, [_AVERAGE_OVERFLOWS]),
], ids=["gaussian-subnormal-width", "power-overflow", "spec-sum-overflow",
        "number-sum-overflow", "number-sum-inf-minus-inf", "ap-power-overflow",
        "ap-subnormal-constant", "bump-v-power-overflow", "orlicz-average-overflow",
        "bump-average-overflow"])
def test_overflow_in_numpy_exits_on_the_finiteness_check(tmp_path, capsys, argv, code, err):
    # with warnings as errors: an overflow numpy would warn about is left to
    # the finiteness checks, which decide the exit
    assert run([*argv, "--L", "8", "--m", "64", "--out", tmp_path]) == code
    assert capsys.readouterr().err.splitlines() == err
    if argv[0] == "ap" and code == 0:
        constant = json.loads((tmp_path / "ap.json").read_text())["result"]["constant"]
        assert abs(constant - 1.0) <= 4 * np.spacing(1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, err", [
    (["bmo", "--b", "bump:0,1e-320", "--L", "1"], 0, []),  # 0 everywhere: |t| = inf
    (["bmo", "--b", "logspike:1e-320", "--L", "1e-320"], 2, [_NOT_FINITE]),
    (["bmo", "--b", "logspike:1", "--L", "8e307"], 0, []),  # log(1/|x|) < 0 everywhere
    (["bmo", "--b", "gaussian:inf,inf", "--L", "1"], 2,
     ["error: bad arguments in builder term 'gaussian:inf,inf'"]),
    (["bmo", "--b", "bump:nan,1", "--L", "1"], 2,
     ["error: bad arguments in builder term 'bump:nan,1'"]),
], ids=["bump-subnormal-radius", "logspike-subnormal-grid", "logspike-huge-grid",
        "gaussian-inf-args", "bump-nan-center"])
def test_builder_edge_arguments_exit_without_a_warning(tmp_path, capsys, argv, code, err):
    # each was found by the sweep in test_cli_sweep.py: a numpy warning before
    # the exit (a traceback under -W error), or a NaN center that built 0
    assert run([*argv, "--m", "4", "--out", tmp_path]) == code
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize("text", ['{"orlicz": {"a": Infinity}}', '{"grid": {"L": NaN}}',
                                  '{"bump": {"a_left": -Infinity}}',
                                  pytest.param('{"grid": {"L": 1%s}}' % ("0" * 400),
                                               id="int-too-large-for-a-float")])
def test_non_finite_config_value_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["--config", cfg, "orlicz", "--f", "const:1", "--L", "1", "--m", "16",
                "--out", out]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_nonconvergence_exits_3(tmp_path, monkeypatch, capsys):
    """An Orlicz root that cannot be certified (here an evaluation that never
    reaches the root) exits 3 with one error line and no report."""
    def never_one(r, r_p, s, phi):
        return np.ones_like(s)

    monkeypatch.setattr(orlicz, "_log_mean_phi", never_one)
    rc = run(["orlicz", "--f", "const:1", "--L", "1", "--m", "16", "--out", tmp_path / "out"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: numerical non-convergence: the bracket of an Orlicz root can no longer halve, "
        "and its band check fails"]
    assert not (tmp_path / "out").exists()


def test_orlicz_where_phi_overflows_exits_0(tmp_path):
    """1.0001^1200 on 4 of 16 cells, where Phi's product form overflows: the
    log-space search returns the closed form (mean f^p)^(1/p) =
    1.0001 (1/4)^(1/1200), since the other 12 cells' 1e-4^1200 underflows."""
    assert run(["orlicz", "--f", "const:0.0001+indicator:0,0.5", "--p", "1200",
                "--a", "0", "--L", "1", "--m", "16", "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "orlicz.json").read_text())["result"]
    assert result["value"] == pytest.approx(1.0001 * 0.25 ** (1 / 1200), rel=1e-10)
    assert result["bracket"][0] < result["bracket"][1] == result["value"]


def test_subnormal_orlicz_average_exits_2(tmp_path, capsys):
    """The average of const:1e-320 is subnormal, where adjacent floats lie
    more than ROOT_BAND apart: an input to rescale, not a non-convergence."""
    assert run(["orlicz", "--f", "const:1e-320", "--a", "1", "--L", "1", "--m", "16",
                "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: an Orlicz average is subnormal (below 2.23e-308), where floats lie too far "
        "apart for a bracket 1e-12 wide at its magnitude; scale f by a power of two, as the "
        "average scales with it"]
    assert not (tmp_path / "out").exists()


def test_tiny_normal_orlicz_average_exits_0(tmp_path):
    assert run(["orlicz", "--f", "const:1e-300", "--a", "1", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "orlicz.json").read_text())["result"]
    assert result["bracket"][0] < result["bracket"][1] == result["value"] > 0


@pytest.mark.parametrize("argv", [
    ["--p", "3000", "--u", "const:1", "--v", "const:1"],
    ["--p", "1500", "--u", "const:1", "--v", "const:1"],
    ["--preset", "custom", "--a-left", "0.5", "--a-right", "0.5", "--p", "1e6",
     "--u", "const:1+gaussian:0,0.3", "--v", "const:1"],
], ids=["comm-p3000", "comm-p1500", "custom-p1e6"])
def test_bump_with_large_exponents_exits_0(tmp_path, argv):
    """Phi's product form overflows at t = 1 from a = 2604 and at t = 2 from
    p = 1024. For constant weights the constant is 1 / (t*_left t*_right),
    with Phi(t*) = 1 for each Young function."""
    assert run(["bump", *argv, "--L", "1", "--m", "64", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "bump.json").read_text())
    constant = report["result"]["constant"]
    assert np.isfinite(constant)
    if "custom" not in argv:
        p = float(argv[1])
        pc = p / (p - 1.0)
        t_left = orlicz.young_inverse_at_one(orlicz.YoungFunction(p, 2 * p))
        t_right = orlicz.young_inverse_at_one(orlicz.YoungFunction(pc, 2 * pc))
        assert constant == pytest.approx(1.0 / (t_left * t_right), rel=1e-10)


def test_orlicz_rel_tol_is_gone(tmp_path, capsys):
    assert run(["orlicz", "--f", "const:1", "--rel-tol", "1e-10", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 1
    assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err


# the config block of an `orlicz` report written while the command still took
# --rel-tol; its value was 1.927756598603949, the feasible end of a bisection
_OLD_ORLICZ_CONFIG = {
    "function": {"f": "const:1+gaussian:0,0.3"},
    "grid": {"L": 1.0, "m": 16},
    "orlicz": {"a": 1.0, "cube": "4,8", "p": 2.0, "rel_tol": 1e-10},
    "output": {"dir": "po"},
}


def test_old_orlicz_report_runs_as_config(tmp_path):
    """orlicz.rel_tol names no option any more, and config keys that name no
    option are ignored, so the report still runs and gives its value."""
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"config": _OLD_ORLICZ_CONFIG, "kind": "orlicz_average"}))
    assert run(["--config", cfg, "orlicz", "--out", tmp_path / "out"]) == 0
    report = json.loads((tmp_path / "out" / "orlicz.json").read_text())
    assert "rel_tol" not in report["config"]["orlicz"]
    assert report["result"]["value"] == pytest.approx(1.927756598603949, rel=1e-10 + 2e-12)


def test_bump_constant_weight_calibration(tmp_path):
    rc = run(["bump", "--preset", "custom", "--a-left", "0", "--a-right", "0",
              "--p", "2", "--delta", "1", "--u", "const:1", "--v", "const:1",
              "--L", "1", "--m", "256", "--out", tmp_path])
    assert rc == 0
    report = json.loads((tmp_path / "bump.json").read_text())
    assert report["result"]["constant"] == 1.0
    assert report["config"]["bump"]["a_left"] == 0.0


def test_op_apply_commutator_constant_symbol(tmp_path):
    rc = run(["op", "apply", "--op", "commutator", "--b", "const:5",
              "--f", "indicator:0,1", "--eta-cells", "4",
              "--L", "2", "--m", "128", "--out", tmp_path])
    assert rc == 0
    with open(tmp_path / "op_apply.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "value"]
    assert all(float(r[1]) == 0.0 for r in rows[1:])


def test_probe_kr_rerun_is_byte_identical(tmp_path):
    args = ["probe", "kr", "--seed", "7", "--b", "bump:0,0.5",
            "--u", "const:1+gaussian:0,0.3", "--v", "M2:u",
            "--L", "4", "--m", "128", "--eta-cells", "16",
            "--N-list", "1.5,3", "--shift-list", "1,2", "--out", tmp_path]
    assert run(args) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("probe_kr.json", "probe_kr_tail.csv", "probe_kr_modulus.csv")}
    assert run(args) == 0
    for name, data in first.items():
        assert (tmp_path / name).read_bytes() == data


def test_probe_kr_runs_on_its_default_shifts(tmp_path, capsys):
    args = ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3",
            "--v", "M2:u", "--L", "1", "--m", "32", "--out", tmp_path]
    assert run(args) == 0  # eta_cells defaults to 8: only shift 1 lies below eta/4
    report = json.loads((tmp_path / "probe_kr.json").read_text())
    assert report["config"]["probes"]["kr"]["shift_list"] == [1]
    assert run([*args, "--eta-cells", "17", "--count", "2"]) == 0
    report = json.loads((tmp_path / "probe_kr.json").read_text())
    assert report["config"]["probes"]["kr"]["shift_list"] == [1, 2, 4]
    capsys.readouterr()
    assert run([*args, "--eta-cells", "4"]) == 2
    err = capsys.readouterr().err
    assert "--eta-cells 4 leaves no default shift" in err and "--shift-list" in err


_UV = ("--u", "const:1+gaussian:0,0.3", "--v", "M2:u")
_ROUNDTRIP = {
    "orlicz": ["orlicz", "--f", "const:1+gaussian:0,0.3", "--cube", "4,8", "--a", "1"],
    "bmo": ["bmo", "--b", "logspike:0.01", "--cubes", "dyadic"],
    "ap": ["ap", "--w", "power:0.5", "--p", "3"],
    "bump-preset": ["bump", "--preset", "czo", "--delta", "0.5", *_UV],
    "bump-custom": ["bump", "--preset", "custom", "--a-left", "avg", "--a-right", "1.5", *_UV],
    "weights-gen": ["weights", "gen", "--u", "indicator:-1,1", "--k", "2"],
    "op-apply-M": ["op", "apply", "--op", "M", "--f", "indicator:0,1"],
    "op-apply-Teta": ["op", "apply", "--op", "Teta", "--f", "indicator:0,1", "--eta-cells", "4"],
    "op-apply-Tsharp": ["op", "apply", "--op", "Tsharp", "--f", "indicator:0,1"],
    "op-apply-commutator": ["op", "apply", "--op", "commutator", "--b", "bump:0,0.5",
                            "--f", "indicator:0,1", "--eta-cells", "4"],
    "probe-kr": ["probe", "kr", "--seed", "3", "--b", "bump:0,0.5", "--u", "const:1",
                 "--v", "const:1", "--eta-cells", "16", "--N-list", "1.5", "--shift-list", "1"],
    "probe-svd": ["probe", "svd", "--b", "bump:0,0.5", *_UV, "--eta-cells", "8",
                  "--K-list", "4,8"],
    "compare": ["compare", "--b-bmo", "logspike:0.02", *_UV, "--K-list", "8"],
}


@pytest.mark.parametrize("case", list(_ROUNDTRIP))
def test_report_config_roundtrip(tmp_path, case):
    argv = _ROUNDTRIP[case]
    assert run([*argv, "--L", "4", "--m", "64", "--out", tmp_path]) == 0
    first = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    (report_path,) = [tmp_path / name for name in first if name.endswith(".json")]
    words = argv[:2] if argv[0] in ("weights", "op", "probe") else argv[:1]
    # feed the emitted report back as the config; no flags beyond the path
    assert run(["--config", report_path, *words]) == 0
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == first


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    *_ROUNDTRIP.values(),
    ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3", "--v", "M2:u",
     "--shift-list", "1"],
    ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3", "--v", "M2:u",
     "--shift-list", "1,-1"],
], ids=[*_ROUNDTRIP, "probe-kr-one-shift", "probe-kr-one-distinct-shift"])
def test_reports_are_strict_json(tmp_path, argv):
    assert run([*argv, "--L", "4", "--m", "64", "--out", tmp_path]) == 0
    (report_path,) = tmp_path.glob("*.json")
    report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    if argv[:2] == ["probe", "kr"]:  # one |h|: too few points for a slope
        assert report["result"]["slope"] is None


def test_hand_written_config_records_scalars_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"L": 1, "m": 16}, "bump": {"p": 2}}))
    out = tmp_path / "out"
    assert run(["--config", cfg, "ap", "--w", "power:0.5", "--out", out]) == 0
    text = (out / "ap.json").read_text()
    assert '"L": 1,' in text and '"p": 2\n' in text
    assert run(["--config", out / "ap.json", "ap"]) == 0
    assert (out / "ap.json").read_text() == text


def test_config_schema_rejects_bad_file(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"grid": {"L": -1.0, "m": 64}}))
    assert run(["--config", bad, "bmo", "--b", "const:1"]) == 2
    bad.write_text("{not json")
    assert run(["--config", bad, "bmo", "--b", "const:1"]) == 2


@pytest.mark.parametrize("text", ["3", "[1]", '"grid"', "null"])
def test_non_object_config_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "cfg.json"
    bad.write_text(text)
    assert run(["--config", bad, "bmo", "--b", "const:1", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


# Wrong values of every JSON kind: the probes' background, and the junk that
# replaces a section or the whole config.
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.floats(-2, 6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1.0, 2.0, 4.0, 3.5]),
    st.sampled_from(["", "x", "avg", "hilbert", "dyadic", "max", "custom", "Teta", "0,16"]),
)
_JUNK = st.one_of(_LEAVES, st.lists(_LEAVES, max_size=3),
                  st.dictionaries(st.sampled_from(["L", "p", "zz"]), _LEAVES, max_size=2))


def _schema_paths(schema, prefix=()):
    """(sections, leaves): the object paths of ``schema``, and (path, schema) per leaf."""
    sections, leaves = [], []
    for key, sub in schema["properties"].items():
        if "properties" in sub:
            more = _schema_paths(sub, prefix + (key,))
            sections += [prefix + (key,), *more[0]]
            leaves += more[1]
        else:
            leaves.append((prefix + (key,), sub))
    return sections, leaves


def _valid(leaf):
    if "enum" in leaf:
        return st.sampled_from(leaf["enum"])
    types = leaf["type"] if isinstance(leaf["type"], list) else [leaf["type"]]
    if types == ["array"]:
        return st.lists(_valid(leaf["items"]), max_size=3)
    strict = "exclusiveMinimum" in leaf
    low = leaf.get("minimum", leaf.get("exclusiveMinimum", -3))
    kinds = {"integer": st.integers(low + strict, low + 6),
             "number": st.floats(low, low + 6, exclude_min=strict),
             "string": st.sampled_from(["x", "const:1"]), "null": st.none()}
    return st.one_of([kinds[t] for t in types])


def _probe(leaf):
    """Values on or just off a leaf's bound and type, including bools, nulls,
    integral floats and lists with one bad entry."""
    low = leaf.get("minimum", leaf.get("exclusiveMinimum"))
    options = [_LEAVES]
    if low is not None:
        options.append(st.sampled_from([low, float(low), low - 1, low + 1, low - 1e-9,
                                        low + 1e-9, low + 0.5]))
    if leaf.get("type") == "array":
        options.append(st.builds(lambda good, bad: [*good, bad],
                                 st.lists(_valid(leaf["items"]), max_size=2),
                                 _probe(leaf["items"])))
    return st.one_of(options)


def _put(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg.setdefault(key, {})
    cfg[path[-1]] = value


@st.composite
def _configs(draw, schema):
    """A valid config over random known paths, with at most one change: a
    probed leaf, a section or the whole config replaced by junk, or an
    unknown key."""
    sections, leaves = _schema_paths(schema)
    cfg = {}
    for path, leaf in draw(st.lists(st.sampled_from(leaves), max_size=6)):
        _put(cfg, path, draw(_valid(leaf)))
    change = draw(st.sampled_from(["none", "leaf", "leaf", "leaf", "section", "unknown", "all"]))
    if change == "leaf":
        path, leaf = draw(st.sampled_from(leaves))
        _put(cfg, path, draw(_probe(leaf)))
    elif change == "section":
        _put(cfg, draw(st.sampled_from(sections)), draw(_JUNK))
    elif change == "unknown":
        parent = draw(st.sampled_from([(), *sections]))
        _put(cfg, (*parent, draw(st.sampled_from(["zz", "extra"]))), draw(_JUNK))
    elif change == "all":
        return draw(_JUNK)
    return cfg


def test_validator_matches_jsonschema_oracle():
    jsonschema = pytest.importorskip("jsonschema")
    schema = copy.deepcopy(CONFIG_SCHEMA)
    del schema["properties"]["output"]["properties"]["formats"]  # dropped on purpose

    # what jsonschema.validate does on each call, with the schema checked once
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    validator = cls(schema)

    @settings(max_examples=500, deadline=None)
    @given(_configs(schema))
    def check(cfg):
        try:
            validator.validate(cfg)
            want = True
        except jsonschema.ValidationError:
            want = False
        try:
            validate_config(cfg)
            got = True
        except ValueError:
            got = False
        assert got == want, cfg

    check()


def test_weights_gen_outputs(tmp_path):
    rc = run(["weights", "gen", "--u", "indicator:-1,1", "--k", "2",
              "--L", "4", "--m", "64", "--out", tmp_path])
    assert rc == 0
    u, v = (np.loadtxt(tmp_path / f"weights_{w}.csv", delimiter=",", skiprows=1)
            for w in "uv")
    g = make_grid(4.0, 64)
    assert np.array_equal(u[:, 0], g.centers) and np.array_equal(v[:, 0], g.centers)
    want = iterate_maximal(GridFunction(g, u[:, 1]), 2)
    assert np.array_equal(v[:, 1], want.values)
    assert np.all(v[:, 1] >= u[:, 1] - 1e-15)


def test_probe_svd_and_compare(tmp_path):
    common = ["--u", "const:1+gaussian:0,0.3", "--v", "M2:u", "--L", "4",
              "--m", "64", "--eta-cells", "8", "--out", tmp_path]
    assert run(["probe", "svd", "--b", "bump:0,0.5", "--K-list", "8", *common]) == 0
    rep = json.loads((tmp_path / "probe_svd.json").read_text())
    sig = rep["result"]["singular_values"]
    assert sig == sorted(sig, reverse=True)
    assert run(["compare", "--b-cmo", "bump:0,0.5", "--b-bmo", "logspike:0.01",
                "--K-list", "8", *common]) == 0
    cmprep = json.loads((tmp_path / "compare.json").read_text())
    assert cmprep["result"]["smooth"]["energy_tails"][0] <= \
        cmprep["result"]["spike"]["energy_tails"][0]


def test_parse_function_spec_grammar():
    g = make_grid(1.0, 64)
    f = parse_function_spec(g, "const:1+gaussian:0,0.25")
    assert f.values.min() >= 1.0
    assert parse_function_spec(g, "0.5").values[0] == 0.5
    base = parse_function_spec(g, "indicator:0,1")
    m2 = parse_function_spec(g, "M2:indicator:0,1")
    assert np.array_equal(m2.values, iterate_maximal(base, 2).values)
    with pytest.raises(ValueError):
        parse_function_spec(g, "wobble:1")
    with pytest.raises(ValueError):
        parse_function_spec(g, "gaussian:0")
    with pytest.raises(ValueError):
        parse_function_spec(g, "")


def test_cli_import_does_not_load_scipy():
    code = ("import sys, bumplab.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_numpy_fft():
    """numpy.fft loads on first use (about 2 ms), which the weights commands
    never make."""
    code = "import sys, bumplab.cli; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_spectral_commands_do_not_load_numpy_random(tmp_path):
    """numpy.random loads on first use (about 6 MB of RSS); the spectral probes
    start their power bound from a fixed vector built in plain numpy."""
    code = ("import json, sys; from bumplab.cli import main; "
            "codes = [main([*argv, '--L', '4', '--m', '64', '--out', sys.argv[2]]) "
            "for argv in json.loads(sys.argv[1])]; "
            "print(codes, 'numpy.random' in sys.modules)")
    argvs = [_ROUNDTRIP["probe-svd"], _ROUNDTRIP["compare"]]
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs), str(tmp_path)],
                         env=_env(), capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0] False", out.stderr


def test_every_subcommand_runs_without_scipy(tmp_path):
    covered = {tuple(argv[:2]) if argv[0] in ("op", "probe", "weights") else (argv[0],)
               for argv in _ROUNDTRIP.values()}
    assert covered == {(name,) if None in actions else (name, action)
                       for name, (_, actions) in _COMMANDS.items() for action in actions}
    code = ("import json, sys; sys.modules['scipy'] = None; from bumplab.cli import main; "
            "sys.exit(max(main([*argv, '--L', '4', '--m', '64', '--out', sys.argv[2]]) "
            "for argv in json.loads(sys.argv[1])))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(list(_ROUNDTRIP.values())),
                          str(tmp_path)], env=_env(), capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr


def test_oversized_dense_run_exits_2_before_allocating(tmp_path):
    argv = ["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3",
            "--v", "const:2", "--L", "8", "--m", str(2**20), "--out", tmp_path]
    # the child reports its own peak RSS: the ru_maxrss of wait4 would carry this
    # process's high-water mark, which Linux passes to a child across exec
    code = ("import sys; from bumplab.cli import main; code = main(); "
            "print(next(l.split()[1] for l in open('/proc/self/status') "
            "if l.startswith('VmHWM:'))); sys.exit(code)")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "physical memory" in proc.stderr and "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 30.0
    peak_kib = int(proc.stdout.splitlines()[-1])
    assert peak_kib < 512 * 1024  # O(m) vectors only, no m x m array


def test_oversized_maximal_run_exits_2_quickly(tmp_path):
    argv = ["weights", "gen", "--u", "const:1+gaussian:0,0.3", "--L", "8",
            "--m", str(2**20), "--out", tmp_path]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bumplab.cli import main; sys.exit(main())",
         *map(str, argv)], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert (f"capped at {operators.MAXIMAL_CELL_CAP} cells" in proc.stderr
            and "Traceback" not in proc.stderr)
    assert time.perf_counter() - start < 30.0
    assert not list(tmp_path.iterdir())


def test_maximal_run_at_the_cap_finishes_quickly(tmp_path):
    """O(m log^2 m) work: about 3 s at the cap in a fresh process, where the
    m^2 / 2 slope evaluations of a scan over every interval would take minutes."""
    argv = ["op", "apply", "--op", "M", "--f", "const:1+gaussian:0,0.3", "--L", "8",
            "--m", str(operators.MAXIMAL_CELL_CAP), "--out", tmp_path]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bumplab.cli import main; sys.exit(main())",
         *map(str, argv)], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 30.0
    assert (tmp_path / "op_apply.csv").exists()


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(compactness, "_operator_split", exhausted)
    assert run(["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1",
                "--L", "1", "--m", "16", "--out", tmp_path]) == 2
    assert "out of memory" in capsys.readouterr().err


# power:255 on [-16, 16]: operator entries near 1e298 under u = v = 1
_OVERFLOW = ["probe", "svd", "--b", "power:255", "--u", "const:1", "--L", "16", "--m", "16"]


def test_probe_svd_with_entries_that_overflow_exits_2(tmp_path, capsys):
    # v = 1e-300 multiplies every column by v^(-1/2) = 1e150
    assert run([*_OVERFLOW, "--v", "const:1e-300", "--out", tmp_path]) == 2
    assert "error: matrix entries must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_probe_svd_whose_squares_overflow_exits_0(tmp_path):
    # the entries are finite, but ||A||_F^2 and sigma_1^2 (sigma_1 = 2.45e298) are not
    assert run([*_OVERFLOW, "--v", "const:1", "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "probe_svd.json").read_text())["result"]
    sigma = np.array(rep["singular_values"], dtype=float)
    assert np.all(np.isfinite(sigma)) and sigma[0] == pytest.approx(2.447e298, rel=1e-3)
    assert all(np.isfinite(rep["sigma_ratios"] + rep["energy_tails"]))
    assert 0.0 < rep["energy_tails"][0] < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op, max_abs", [("Teta", 7.546e307), ("Tsharp", 1.028e308),
                                         ("commutator", 3.319e306)])
def test_op_apply_near_the_overflow_threshold_exits_0(tmp_path, op, max_abs):
    """f = 1e308: the direct sums stay finite, and so must the FFT's, whose
    unscaled transform would sum m values near 1e308 and overflow."""
    flags = {"--b": "bump:0,0.5", "--eta-cells": "4"}
    own = [a for flag, val in flags.items() if flag not in _OP_UNREAD[op] for a in (flag, val)]
    assert run(["op", "apply", "--op", op, "--f", "const:1e308", *own,
                "--m", "64", "--L", "8", "--out", tmp_path]) == 0
    got = json.loads((tmp_path / "op_apply.json").read_text())["result"]["max_abs"]
    assert np.isfinite(got) and got == pytest.approx(max_abs, rel=1e-3)


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


def test_probe_kr_count_past_memory_exits_2_before_sampling(tmp_path):
    # the address-space limit ends a runaway sample with MemoryError, not the machine
    argv = [*_KR[:_KR.index("--count")], "--count", "1000000000000",
            *_KR[_KR.index("--count") + 2:-2], "--m", "64", "--out", tmp_path]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bumplab.cli import main; sys.exit(main())",
         *map(str, argv)], env=_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=_address_space_limit)
    assert proc.returncode == 2
    assert "1000000000000 functions" in proc.stderr and "memory limit" in proc.stderr
    assert time.perf_counter() - start < 30.0
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, limit", [("1073741824\n", 2**30), ("max\n", None), (None, None)],
                         ids=["bytes", "max", "missing"])
def test_cgroup_memory_max_reader(tmp_path, monkeypatch, text, limit):
    path = tmp_path / "memory.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(operators, "_CGROUP_MEMORY_MAX", str(path))
    assert operators._cgroup_memory_max() == limit


# the bench's probe svd at m = 1024; its arrow blocks, Z and LAPACK's copy of Z
# take about 3 MiB, the dense matrix and its copy 16 MiB
_PROBE_SVD_1024 = ["probe", "svd", "--b", "bump:-0.15,0.5", "--u", "const:1+gaussian:-0.30,0.3",
                   "--v", "const:1+gaussian:0.30,0.6", "--eta-cells", "16", "--K-list", "64,256",
                   "--L", "8", "--m", "1024"]


@pytest.mark.parametrize("limit, code", [(2**20, 2), (8 * 2**20, 0)], ids=["1MiB", "8MiB"])
def test_memory_guard_honours_cgroup_limit_and_counts_the_blocks(tmp_path, monkeypatch, capsys,
                                                                 limit, code):
    monkeypatch.setattr(operators, "_cgroup_memory_max", lambda: limit)
    assert run([*_PROBE_SVD_1024, "--out", tmp_path]) == code
    if code == 2:
        assert "physical memory" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["bmo", "--b", "const:1e308"], ["ap", "--w", "const:1e308"],
                                  ["op", "apply", "--op", "M", "--f", "const:1e308"],
                                  ["weights", "gen", "--u", "const:1e308", "--k", "1"],
                                  ["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1e200",
                                   "--v", "const:1e-300", "--eta-cells", "8", "--count", "2"]],
                         ids=["bmo", "ap", "op-apply-M", "weights-gen", "probe-kr"])
def test_non_finite_constant_exits_3_without_report(tmp_path, capsys, argv):
    """A cube sum, the maximal function's prefix sum, or a KR mass |g|^p u that
    overflows ends the run with exit 3, not an Infinity in the report, and
    numpy warns of nothing. A_p scales w by a power of two first, so its sums
    stay finite and it reports 1 (it exited 3 here while it summed w
    unscaled). probe kr wrote its two curves, holding inf, before the report
    failed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run([*argv, "--L", "1", "--m", "64", "--out", tmp_path])
    if argv[0] == "ap":
        assert rc == 0 and capsys.readouterr().err == ""
        constant = json.loads((tmp_path / "ap.json").read_text())["result"]["constant"]
        assert abs(constant - 1.0) <= 4 * np.spacing(1.0)
        return
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_subnormal_cell_width_kernel_exits_2_without_report(tmp_path, capsys):
    # h = 1.7e-310: 1 / (pi h) overflowed, numpy warned, and the run was no clean exit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["op", "apply", "--op", "commutator", "--f", "const:1", "--b", "const:1",
                  "--eta-cells", "2", "--L", "2.2250738585072014e-308", "--m", "256",
                  "--out", tmp_path])
    assert rc == 2
    assert "kernel 1/(pi x) is not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_kr_mass_underflow_exits_3_without_report(tmp_path, capsys):
    # |g|^2000 underflows to 0 on every cell: the run reported a bound, tails
    # and moduli of 0.0 for images that are not zero
    assert run(["probe", "kr", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1",
                "--p", "2000", "--count", "2", "--eta-cells", "8", "--L", "1", "--m", "64",
                "--out", tmp_path]) == 3
    assert "or 0 for a nonzero image" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["haar:0.9,4.7", "haar:-0.5,4", "haar:0,4.5", "haar:inf,4"])
def test_haar_rejects_non_integral_arguments_exits_2(tmp_path, capsys, spec):
    # int() used to truncate: haar:0.9,4.7 and haar:-0.5,4 both built haar on Cube(0, 4)
    assert run(["op", "apply", "--op", "M", "--f", spec, "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2
    assert f"bad arguments in builder term '{spec}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    grid = make_grid(1.0, 16)
    assert np.array_equal(parse_function_spec(grid, "haar:4.0,8").values,
                          parse_function_spec(grid, "haar:4,8").values)


@pytest.mark.parametrize("argv, report", [
    (["probe", "svd", "--b", "bump:0,0.5"], "probe_svd.json"),
    (["compare", "--b-cmo", "bump:0,0.5", "--b-bmo", "logspike:0.01"], "compare.json"),
], ids=["probe-svd", "compare"])
def test_spectral_commands_run_at_4_cells_on_their_default_K_list(tmp_path, argv, report):
    # the default [m // 8] read [0] at m = 4, and the run exited 2 on a flag never passed
    assert run([*argv, "--u", "const:1", "--v", "const:1", "--L", "1", "--m", "4",
                "--out", tmp_path]) == 0
    config = json.loads((tmp_path / report).read_text())["config"]
    assert config["probes"]["spectral"]["K_list"] == [1]


@pytest.mark.parametrize("argv", [["ap", "--w", "power:0.5"],
                                  ["bump", "--u", "const:1", "--v", "const:1"]],
                         ids=["ap", "bump"])
def test_p_past_the_cap_exits_2_with_the_one_p_message(tmp_path, capsys, argv):
    assert run([*argv, "--p", "1e20", "--L", "1", "--m", "64", "--out", tmp_path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: p must be > 1 with p - 1 <= 2^22, got 1e+20"]
    assert not list(tmp_path.iterdir())


def test_ap_at_a_large_p_exits_0(tmp_path):
    assert run(["ap", "--w", "power:0.5", "--p", "1e6", "--L", "1", "--m", "64",
                "--out", tmp_path]) == 0


@pytest.mark.parametrize("argv", [["weights", "gen", "--u", "const:1", "--k", "100000"],
                                  ["bump", "--u", "const:1", "--v", "M100000:u"]],
                         ids=["weights-gen-k", "bump-M-k"])
def test_maximal_iterations_past_the_work_budget_exit_2_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert run([*argv, "--L", "1", "--m", "64", "--out", tmp_path]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "got k = 100000, m = 64" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["dyadic", "dyadic+shifted"])
@pytest.mark.parametrize("argv", [["ap", "--w", "power:0.5"],
                                  ["bump", "--u", "const:1", "--v", "const:1"],
                                  ["bmo", "--b", "logspike:0.01"]],
                         ids=["ap", "bump", "bmo"])
def test_sup_results_carry_the_cube_family(tmp_path, argv, family):
    assert run([*argv, "--cubes", family, "--L", "1", "--m", "16", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert report["result"]["family"] == report["config"]["cubes"] == family


_LABELS = {
    "ap": (["ap", "--w", "power:0.5"], {"preset": "ap", "p": 2.0, "delta": None}),
    "bump": (["bump", "--u", "const:1", "--v", "const:1", "--preset", "czo", "--p", "3",
              "--delta", "0.5"], {"preset": "czo", "p": 3.0, "delta": 0.5}),
    "bump-custom": ([*_CUSTOM, "--a-left", "1", "--a-right", "1"],
                    {"preset": "custom", "p": 2.0, "delta": 1.0}),
    "probe-svd": (["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1",
                   "--K-list", "2,3"], {"grid_cells": 16, "K_list": [2, 3]}),
}


@pytest.mark.parametrize("argv, labels", _LABELS.values(), ids=_LABELS.keys())
def test_results_carry_the_inputs_the_cli_resolved(tmp_path, argv, labels):
    """The result types hold what was computed; the CLI labels each report's
    result with the inputs it resolved, a custom preset's unused delta too."""
    assert run([*argv, "--L", "1", "--m", "16", "--out", tmp_path]) == 0
    (report,) = tmp_path.glob("*.json")
    result = json.loads(report.read_text())["result"]
    assert {key: result[key] for key in labels} == labels


def test_compare_result_carries_its_K_list_three_times(tmp_path):
    assert run(["compare", "--u", "const:1", "--v", "const:1", "--K-list", "2,3",
                "--L", "1", "--m", "16", "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "compare.json").read_text())["result"]
    assert result["K_list"] == [2, 3]
    for tag in ("smooth", "spike"):
        assert (result[tag]["grid_cells"], result[tag]["K_list"]) == (16, [2, 3])


@pytest.mark.parametrize("flags, message", [
    (["--a-left", "1"], "--preset custom requires --a-right"),
    ([], "--preset custom requires --a-left and --a-right"),
], ids=["a-left-only", "neither"])
def test_custom_preset_without_its_exponents_exits_2(tmp_path, capsys, flags, message):
    assert run([*_CUSTOM, *flags, "--L", "1", "--m", "16", "--out", tmp_path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not list(tmp_path.iterdir())


def test_custom_preset_records_an_avg_left_exponent_as_null(tmp_path):
    assert run([*_CUSTOM, "--a-left", "avg", "--a-right", "2", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 0
    bump = json.loads((tmp_path / "bump.json").read_text())["config"]["bump"]
    assert bump["a_left"] is None and bump["a_right"] == 2.0


@pytest.mark.parametrize("term, message", [
    ("nope:x", "bad arguments"),  # arguments are parsed before the name is looked up
    ("nope:1", "unknown builder term"),
    ("haar:1.5", "unknown builder term"),  # the count is checked before haar's integer rule
    ("haar:1.5,2", "bad arguments"),
    ("const:1,2", "unknown builder term"),
])
def test_builder_term_errors_keep_their_precedence(term, message):
    with pytest.raises(ValueError, match=f"^{message} .*{term!r}$"):
        parse_function_spec(make_grid(1.0, 16), f"const:1+{term}")
