"""Batch front-end: experiment configs in, JSON reports and CSV curves out.

Configuration comes from an optional JSON file (--config) plus flags; flags
win. Every report embeds the fully resolved configuration it ran with, and
--config accepts a previously emitted report (the embedded config is used),
so any run can be reproduced byte-for-byte from its own artifact.

Exit codes: 0 success, 1 usage error, 2 validation error (including a run
too large for memory), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import compactness, io, operators, orlicz, weights
from .grid import (
    Cube,
    Grid,
    GridFunction,
    constant,
    cube_family,
    gaussian,
    haar,
    indicator,
    log_spike,
    power_weight,
    smooth_bump,
)

_USAGE_EXIT = 1
_VALIDATION_EXIT = 2
_NUMERICAL_EXIT = 3

_NONCONVERGENCE = (
    orlicz.OrliczConvergenceError,
    orlicz.OrliczOverflowError,
    np.linalg.LinAlgError,
    FloatingPointError,
)

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {"L": {"type": "number", "exclusiveMinimum": 0},
                           "m": {"type": "integer", "minimum": 4}},
        },
        "weights": {
            "type": "object",
            "properties": {"u": {"type": "string"}, "v": {"type": "string"},
                           "w": {"type": "string"}, "k": {"type": "integer", "minimum": 1}},
        },
        "function": {
            "type": "object",
            "properties": {"f": {"type": "string"}},
        },
        "bump": {
            "type": "object",
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "preset": {"enum": ["max", "czo", "comm", "custom"]},
                "a_left": {"type": ["number", "string", "null"]},
                "a_right": {"type": ["number", "null"]},
            },
        },
        "operator": {
            "type": "object",
            "properties": {"kernel": {"enum": ["hilbert"]},
                           "eta_cells": {"type": "integer", "minimum": 2},
                           "op": {"enum": ["M", "Teta", "Tsharp", "commutator"]}},
        },
        "symbol": {
            "type": "object",
            "properties": {"b": {"type": "string"}, "b_cmo": {"type": "string"},
                           "b_bmo": {"type": "string"}},
        },
        "orlicz": {
            "type": "object",
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "a": {"type": "number", "minimum": 0},
                "cube": {"type": "string"},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "cubes": {"enum": ["dyadic", "dyadic+shifted"]},
        "probes": {
            "type": "object",
            "properties": {
                "kr": {
                    "type": "object",
                    "properties": {
                        "count": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "N_list": {"type": "array", "items": {"type": "number"}},
                        "shift_list": {"type": "array", "items": {"type": "integer"}},
                    },
                },
                "spectral": {
                    "type": "object",
                    "properties": {"K_list": {"type": "array",
                                              "items": {"type": "integer", "minimum": 1}}},
                },
            },
        },
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"},
                           "formats": {"type": "array", "items": {"enum": ["json", "csv"]}}},
        },
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


_TERM_RE = re.compile(r"^([a-zA-Z_]+):(.*)$")
_MAXIMAL_RE = re.compile(r"^M(\d+):(.+)$")


def parse_function_spec(grid: Grid, spec: str,
                        env: dict[str, GridFunction] | None = None) -> GridFunction:
    """Builder mini-language: terms joined by '+'.

    Terms: const:c, indicator:a,b, gaussian:c,sigma, bump:c,r, logspike:eps,
    power:alpha, haar:i0,n, or a bare number. "M<k>:<spec>" applies the
    maximal operator k times; "M<k>:u" references the already-built u.
    """
    spec = spec.strip()
    mk = _MAXIMAL_RE.match(spec)
    if mk:
        k = int(mk.group(1))
        inner = mk.group(2)
        if env and inner in env:
            base = env[inner]
        else:
            base = parse_function_spec(grid, inner, env)
        return weights.iterate_maximal(base, k)

    total = np.zeros(grid.cells)
    for term in spec.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in function spec {spec!r}")
        m = _TERM_RE.match(term)
        if m is None:
            try:
                total += float(term)
            except ValueError:
                raise ValueError(f"unknown builder term {term!r}") from None
            continue
        name, argstr = m.group(1), m.group(2)
        try:
            args = [float(a) for a in argstr.split(",")] if argstr else []
        except ValueError:
            raise ValueError(f"bad arguments in builder term {term!r}") from None
        if name == "const" and len(args) == 1:
            f = constant(grid, args[0])
        elif name == "indicator" and len(args) == 2:
            f = indicator(grid, args[0], args[1])
        elif name == "gaussian" and len(args) == 2:
            f = gaussian(grid, args[0], args[1])
        elif name in ("bump", "smooth_bump") and len(args) == 2:
            f = smooth_bump(grid, args[0], args[1])
        elif name in ("logspike", "log_spike") and len(args) == 1:
            f = log_spike(grid, args[0])
        elif name == "power" and len(args) == 1:
            f = power_weight(grid, args[0])
        elif name == "haar" and len(args) == 2:
            f = haar(grid, Cube(int(args[0]), int(args[1])))
        else:
            raise ValueError(f"unknown builder term {term!r}")
        total += f.values
    return GridFunction(grid, total)


class Resolved:
    """Merged view of config file and flags; flags win.

    Records every config path actually consumed so reports can embed the
    fully resolved configuration they ran with.
    """

    def __init__(self, config: dict, args: argparse.Namespace):
        self.config = config
        self.args = args
        self.used: dict = {}

    def record(self, path: tuple[str, ...], val) -> None:
        node = self.used
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = val

    def get(self, flag: str, path: tuple[str, ...], default=None, required=False):
        val = getattr(self.args, flag, None)
        if val is None:
            node = self.config
            for key in path:
                if not isinstance(node, dict) or key not in node:
                    node = None
                    break
                node = node[key]
            val = default if node is None else node
        if val is None and required:
            raise ValueError(f"missing required option --{flag.replace('_', '-')} "
                             f"(config {'.'.join(path)})")
        self.record(path, val)
        return val

    def snapshot(self) -> dict:
        return json.loads(json.dumps(self.used))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a previously emitted report
    import jsonschema

    jsonschema.validate(data, CONFIG_SCHEMA)
    return data


def _int_list(text) -> list[int]:
    if isinstance(text, list):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v != ""]


def _float_list(text) -> list[float]:
    if isinstance(text, list):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v != ""]


def _grid_of(res: Resolved) -> Grid:
    L = float(res.get("L", ("grid", "L"), required=True))
    m = int(res.get("m", ("grid", "m"), required=True))
    return Grid(L, m)


def _outdir(res: Resolved) -> Path:
    return Path(res.get("out", ("output", "dir"), default="."))


def _cubes_of(res: Resolved, grid: Grid) -> tuple[str, list[Cube]]:
    name = res.get("cubes", ("cubes",), default="dyadic+shifted")
    return name, cube_family(grid, name)


def _trunc_of(res: Resolved, grid: Grid) -> operators.TruncationSpec:
    eta_cells = int(res.get("eta_cells", ("operator", "eta_cells"), default=8))
    if eta_cells < 2:
        raise ValueError("eta_cells must be >= 2")
    res.record(("operator", "kernel"), "hilbert")
    return operators.TruncationSpec(eta_cells * grid.h)


def _weight_pair(res: Resolved, grid: Grid) -> tuple[GridFunction, GridFunction]:
    u_spec = res.get("u", ("weights", "u"), required=True)
    v_spec = res.get("v", ("weights", "v"), required=True)
    u = parse_function_spec(grid, u_spec)
    v = parse_function_spec(grid, v_spec, env={"u": u})
    return u, v


def _emit(res: Resolved, outdir: Path, name: str, kind: str, result: dict) -> None:
    io.write_json(outdir / f"{name}.json",
                  {"kind": kind, "result": result, "config": res.snapshot()})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_orlicz(res: Resolved) -> int:
    grid = _grid_of(res)
    f = parse_function_spec(grid, res.get("f", ("function", "f"), required=True))
    p = float(res.get("p", ("orlicz", "p"), default=2.0))
    a = float(res.get("a", ("orlicz", "a"), default=0.0))
    cube_arg = res.get("cube", ("orlicz", "cube"), default=f"0,{grid.cells}")
    i0, n = _int_list(cube_arg)
    rel_tol = float(res.get("rel_tol", ("orlicz", "rel_tol"), default=1e-10))
    result = orlicz.orlicz_average(f, Cube(i0, n), orlicz.YoungFunction(p, a), rel_tol)
    _emit(res, _outdir(res), "orlicz", "orlicz_average", {
        "value": result.value,
        "iterations": result.iterations,
        "bracket": list(result.bracket),
    })
    return 0


def _cmd_bmo(res: Resolved) -> int:
    grid = _grid_of(res)
    b = parse_function_spec(grid, res.get("b", ("symbol", "b"), required=True))
    family, cubes = _cubes_of(res, grid)
    _emit(res, _outdir(res), "bmo", "bmo_norm", {
        "norm": orlicz.bmo_norm(b, cubes),
        "family": family,
    })
    return 0


def _cmd_ap(res: Resolved) -> int:
    grid = _grid_of(res)
    w = parse_function_spec(grid, res.get("w", ("weights", "w"), required=True))
    p = float(res.get("p", ("bump", "p"), default=2.0))
    family, cubes = _cubes_of(res, grid)
    report = weights.ap_constant(w, p, cubes, family=family)
    _emit(res, _outdir(res), "ap", "ap_constant", io.bump_report_dict(report, grid))
    return 0


def _cmd_bump(res: Resolved) -> int:
    grid = _grid_of(res)
    u, v = _weight_pair(res, grid)
    p = float(res.get("p", ("bump", "p"), default=2.0))
    delta = float(res.get("delta", ("bump", "delta"), default=1.0))
    preset = res.get("preset", ("bump", "preset"), default="comm")
    a_left = res.get("a_left", ("bump", "a_left"))
    a_right = res.get("a_right", ("bump", "a_right"))
    if a_left is not None or a_right is not None:
        if preset != "custom":
            raise ValueError("explicit a_left/a_right require --preset custom")
        if a_right is None:
            raise ValueError("--preset custom requires --a-right")
        left = None if a_left in (None, "avg") else float(a_left)
        res.record(("bump", "a_left"), left)
        spec = weights.BumpSpec.custom(p, left, float(a_right), delta)
    elif preset == "custom":
        raise ValueError("--preset custom requires --a-left and --a-right")
    else:
        spec = weights.BumpSpec.from_preset(preset, p, delta)
    family, cubes = _cubes_of(res, grid)
    report = weights.bump_constant(weights.WeightPair(u, v), spec, cubes, family=family)
    _emit(res, _outdir(res), "bump", "bump_constant", io.bump_report_dict(report, grid))
    return 0


def _cmd_weights_gen(res: Resolved) -> int:
    grid = _grid_of(res)
    u = parse_function_spec(grid, res.get("u", ("weights", "u"), required=True))
    k = int(res.get("k", ("weights", "k"), default=5))
    v = weights.iterate_maximal(u, k)
    outdir = _outdir(res)
    io.write_grid_function_csv(u, outdir / "weights_u.csv")
    io.write_grid_function_csv(v, outdir / "weights_v.csv")
    _emit(res, outdir, "weights", "weights_gen", {
        "k": k,
        "u_csv": "weights_u.csv",
        "v_csv": "weights_v.csv",
        "v_min": float(np.min(v.values)),
        "v_max": float(np.max(v.values)),
    })
    return 0


def _cmd_op_apply(res: Resolved) -> int:
    grid = _grid_of(res)
    op = res.get("op", ("operator", "op"), required=True)
    f = parse_function_spec(grid, res.get("f", ("function", "f"), required=True))
    outdir = _outdir(res)
    if op == "M":
        out = operators.maximal_fn(f)
    elif op == "Teta":
        out = operators.apply_truncated(f, _trunc_of(res, grid))
    elif op == "Tsharp":
        res.record(("operator", "kernel"), "hilbert")
        out = operators.maximal_truncation(f)
    elif op == "commutator":
        b = parse_function_spec(grid, res.get("b", ("symbol", "b"), required=True))
        out = operators.commutator(b, f, _trunc_of(res, grid))
    else:
        raise ValueError(f"unknown operator {op!r} (M, Teta, Tsharp, commutator)")
    io.write_grid_function_csv(out, outdir / "op_apply.csv")
    _emit(res, outdir, "op_apply", "op_apply", {
        "op": op,
        "csv": "op_apply.csv",
        "max_abs": float(np.max(np.abs(out.values))),
    })
    return 0


def _cmd_probe_kr(res: Resolved) -> int:
    grid = _grid_of(res)
    u, v = _weight_pair(res, grid)
    b = parse_function_spec(grid, res.get("b", ("symbol", "b"), required=True))
    p = float(res.get("p", ("bump", "p"), default=2.0))
    trunc = _trunc_of(res, grid)
    count = int(res.get("count", ("probes", "kr", "count"), default=32))
    seed = int(res.get("seed", ("probes", "kr", "seed"), default=0))
    N_list = _float_list(res.get("N_list", ("probes", "kr", "N_list"),
                                 default=[grid.half_width / 4, grid.half_width / 2]))
    shifts = _int_list(res.get("shift_list", ("probes", "kr", "shift_list"),
                               default=[1, 2, 4]))
    res.record(("probes", "kr", "N_list"), N_list)
    res.record(("probes", "kr", "shift_list"), shifts)
    sample = compactness.sample_unit_ball(v, p, count, seed)
    report = compactness.kr_probe(sample, b, trunc, u, p, N_list, shifts)
    outdir = _outdir(res)
    io.write_curve_csv(outdir / "probe_kr_tail.csv", ("N", "tail"), report.tail_curve)
    io.write_curve_csv(outdir / "probe_kr_modulus.csv", ("h", "modulus"),
                       report.modulus_curve)
    _emit(res, outdir, "probe_kr", "kr_probe", io.kr_report_dict(report))
    return 0


def _cmd_probe_svd(res: Resolved) -> int:
    grid = _grid_of(res)
    u, v = _weight_pair(res, grid)
    b = parse_function_spec(grid, res.get("b", ("symbol", "b"), required=True))
    trunc = _trunc_of(res, grid)
    K_list = _int_list(res.get("K_list", ("probes", "spectral", "K_list"),
                               default=[grid.cells // 8]))
    res.record(("probes", "spectral", "K_list"), K_list)
    matrix = compactness.operator_matrix(b, trunc, u, v)
    report = compactness.spectral_report(matrix, K_list, grid.cells)
    outdir = _outdir(res)
    io.write_curve_csv(outdir / "probe_svd_sigma.csv", ("k", "sigma"),
                       [(float(i + 1), float(s))
                        for i, s in enumerate(report.singular_values)])
    _emit(res, outdir, "probe_svd", "spectral_probe", io.spectral_report_dict(report))
    return 0


def _cmd_compare(res: Resolved) -> int:
    grid = _grid_of(res)
    u, v = _weight_pair(res, grid)
    b_cmo = parse_function_spec(grid, res.get("b_cmo", ("symbol", "b_cmo"),
                                              default="bump:0,0.5"))
    b_bmo = parse_function_spec(grid, res.get("b_bmo", ("symbol", "b_bmo"),
                                              default="logspike:0.01"))
    trunc = _trunc_of(res, grid)
    K_list = _int_list(res.get("K_list", ("probes", "spectral", "K_list"),
                               default=[grid.cells // 8]))
    res.record(("probes", "spectral", "K_list"), K_list)
    cmp = compactness.decay_compare(b_cmo, b_bmo, trunc, u, v, K_list)
    outdir = _outdir(res)
    for tag, rep in (("smooth", cmp.smooth), ("spike", cmp.spike)):
        io.write_curve_csv(outdir / f"compare_sigma_{tag}.csv", ("k", "sigma"),
                           [(float(i + 1), float(s))
                            for i, s in enumerate(rep.singular_values)])
    _emit(res, outdir, "compare", "decay_compare", io.decay_comparison_dict(cmp))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bumplab",
                     description="Two-weight bump constants and compactness probes")
    parser.add_argument("--config", help="JSON config file (or a previous report)")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--L", type=float, help="grid half-width")
        p.add_argument("--m", type=int, help="grid cells (power of two)")
        p.add_argument("--out", help="output directory")
        return p

    p = add("orlicz", _cmd_orlicz, help="one Orlicz average")
    p.add_argument("--f", help="function spec")
    p.add_argument("--p", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--cube", help="i0,n_cells (default: whole grid)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float)

    p = add("bmo", _cmd_bmo, help="BMO norm over a cube family")
    p.add_argument("--b", help="symbol spec")
    p.add_argument("--cubes", choices=["dyadic", "dyadic+shifted"])

    p = add("ap", _cmd_ap, help="A_p constant")
    p.add_argument("--w", help="weight spec")
    p.add_argument("--p", type=float)
    p.add_argument("--cubes", choices=["dyadic", "dyadic+shifted"])

    p = add("bump", _cmd_bump, help="two-weight bump constant")
    p.add_argument("--u", help="u weight spec")
    p.add_argument("--v", help="v weight spec (supports M<k>:u)")
    p.add_argument("--p", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--preset", choices=["max", "czo", "comm", "custom"])
    p.add_argument("--a-left", dest="a_left", help="custom left exponent or 'avg'")
    p.add_argument("--a-right", dest="a_right", type=float)
    p.add_argument("--cubes", choices=["dyadic", "dyadic+shifted"])

    p = add("weights", _cmd_weights_gen, help="emit u and M^k u as CSV")
    p.add_argument("action", choices=["gen"])
    p.add_argument("--u", help="u weight spec")
    p.add_argument("--k", type=int, help="maximal iterations")

    p = add("op", _cmd_op_apply, help="apply an operator to a function")
    p.add_argument("action", choices=["apply"])
    p.add_argument("--op", choices=["M", "Teta", "Tsharp", "commutator"])
    p.add_argument("--f", help="function spec")
    p.add_argument("--b", help="symbol spec (commutator only)")
    p.add_argument("--eta-cells", dest="eta_cells", type=int)

    p = add("probe", None, help="kr or svd probes")
    p.add_argument("action", choices=["kr", "svd"])
    p.add_argument("--b", help="symbol spec")
    p.add_argument("--u", help="u weight spec")
    p.add_argument("--v", help="v weight spec (supports M<k>:u)")
    p.add_argument("--p", type=float)
    p.add_argument("--eta-cells", dest="eta_cells", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--N-list", dest="N_list", help="comma-separated radii")
    p.add_argument("--shift-list", dest="shift_list", help="comma-separated cell shifts")
    p.add_argument("--K-list", dest="K_list", help="comma-separated spectral indices")

    p = add("compare", _cmd_compare, help="paired singular-value decay")
    p.add_argument("--b-cmo", dest="b_cmo", help="smooth symbol spec")
    p.add_argument("--b-bmo", dest="b_bmo", help="rough symbol spec")
    p.add_argument("--u", help="u weight spec")
    p.add_argument("--v", help="v weight spec (supports M<k>:u)")
    p.add_argument("--eta-cells", dest="eta_cells", type=int)
    p.add_argument("--K-list", dest="K_list", help="comma-separated spectral indices")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError:
        return _USAGE_EXIT
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    func = args.func
    if args.command == "probe":
        func = _cmd_probe_kr if args.action == "kr" else _cmd_probe_svd

    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except Exception as exc:  # jsonschema.ValidationError
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT

    res = Resolved(config, args)
    try:
        return func(res)
    except _NONCONVERGENCE as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large for memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
