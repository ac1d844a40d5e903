"""Batch front-end: experiment configs in, JSON reports and CSV curves out.

Configuration comes from an optional JSON file (--config) plus flags; flags
win. Every report embeds the fully resolved configuration it ran with, and
--config accepts a previously emitted report (the embedded config is used),
so any run can be reproduced byte-for-byte from its own artifact. Each
handler builds its report's result dict; ``io`` only writes the files.

Every option is declared once, as an ``Opt`` in the table of the
(sub)command that reads it (``_COMMANDS``). The tables generate the argparse
flags, the config validator (``validate_config``) and the resolution of each
option (``Resolved.get``). Every action (``bump``, ``probe kr``, ``probe svd``,
...) has its own parser, with the common flags and its own, so argparse
rejects any other flag, a sibling action's included. A parser adds its flags,
or a command its action parsers, when it first parses, so a call pays only
for the parsers of the action it runs. Flags follow the action word.

Exit codes: 0 success, 1 usage error, 2 validation error (including a run
too large for memory), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import shutil
import sys
from dataclasses import dataclass
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
    np.linalg.LinAlgError,
    FloatingPointError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, and which runs ``fill(self)``,
    to add its arguments, the first time it parses."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        # argparse calls this on the chosen subparser only, before its -h and its errors
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):  # argparse would exit(2); the contract wants 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


_TERM_RE = re.compile(r"^([a-zA-Z_]+):(.*)$")
_MAXIMAL_RE = re.compile(r"^M(\d+):(.+)$")
# builder term -> (its builder of (grid, *arguments), its argument count)
_BUILDERS = {
    "const": (constant, 1),
    "indicator": (indicator, 2),
    "gaussian": (gaussian, 2),
    "bump": (smooth_bump, 2),
    "logspike": (log_spike, 1),
    "power": (power_weight, 1),
    "haar": (lambda grid, i0, n: haar(grid, Cube(int(i0), int(n))), 2),  # integer arguments
}


def parse_function_spec(grid: Grid, spec: str,
                        env: dict[str, GridFunction] | None = None) -> GridFunction:
    """Builder mini-language: terms joined by '+'.

    Terms: const:c, indicator:a,b, gaussian:c,sigma, bump:c,r, logspike:eps,
    power:alpha, haar:i0,n (the names of ``_BUILDERS``), or a bare
    number. "M<k>:<spec>" applies the maximal operator k times; "M<k>:u"
    references the already-built u.
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
                value = float(term)
            except ValueError:
                raise ValueError(f"unknown builder term {term!r}") from None
            with np.errstate(over="ignore", invalid="ignore"):  # GridFunction rejects inf, NaN
                total += value
            continue
        name, argstr = m.group(1), m.group(2)
        try:
            args = [float(a) for a in argstr.split(",")] if argstr else []
            if not all(map(math.isfinite, args)):
                raise ValueError
        except ValueError:
            raise ValueError(f"bad arguments in builder term {term!r}") from None
        builder, count = _BUILDERS.get(name, (None, None))
        if len(args) != count:
            raise ValueError(f"unknown builder term {term!r}")
        if name == "haar" and not all(a.is_integer() for a in args):
            raise ValueError(f"bad arguments in builder term {term!r}")
        with np.errstate(over="ignore"):  # GridFunction rejects the inf
            total += builder(grid, *args).values
    return GridFunction(grid, total)


def _list_of(convert):
    """Conversion of a JSON list, or of comma-separated text, to a list of ``convert``;
    an item it cannot convert is kept as it is, for ``Opt.check`` to name."""
    def attempt(item):
        try:
            return convert(item)
        except ValueError:
            return item

    def to_list(val) -> list:
        items = val if isinstance(val, list) else [v for v in str(val).split(",") if v != ""]
        return [attempt(v) for v in items]
    return to_list


# JSON type -> membership test as JSON Schema defines it: a bool is no number,
# an integral float is an integer
_IS_TYPE = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
}
# first JSON type -> a flag's argparse type; a list flag stays text until it is
# resolved, so a malformed list is a validation error (exit 2), not a usage error
_FLAG_TYPES = {"number": float, "integer": int}
# first JSON type -> conversion of a resolved value
_CONVERT = {**_FLAG_TYPES, "number[]": _list_of(float), "integer[]": _list_of(int)}


def _is_finite(x: int | float) -> bool:
    """math.isfinite, and False for an int too large to convert to a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Opt:
    """One option: dotted config ``path``, JSON type, bound, default and help.

    Its flag is ``--`` plus the last key of ``path`` (``dest`` if given), with
    ``-`` for ``_``. ``type`` is "number", "integer" or "string"; a union
    such as "string|number|null", whose first member sets the flag's type and
    the conversion; or "number[]" / "integer[]", a list (comma-separated as a
    flag). ``gt`` / ``ge`` bound a number, or each list entry, from below.
    ``default`` may be a callable of the ``Resolved`` view, for a default
    that follows the grid or other options; an option with no default is
    required unless its type allows null. ``help=None`` declares a
    config-only option, with no flag.
    """

    path: str
    type: str
    default: object = None
    gt: float | None = None
    ge: float | None = None
    choices: tuple[str, ...] = ()
    help: str | None = ""
    dest: str | None = None

    @property
    def name(self) -> str:
        return self.dest or self.path.rpartition(".")[2]

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, val, what: str) -> None:
        """Raise ValueError unless ``val`` is a finite value of this option's type,
        choices and bound."""
        kind = self.type.removesuffix("[]")
        if kind != self.type and not isinstance(val, list):
            raise ValueError(f"{what} must be a list, got {val!r}")
        for item in val if kind != self.type else [val]:
            if not any(_IS_TYPE[t](item) for t in kind.split("|")):
                raise ValueError(f"{what} must be {kind.replace('|', ' or ')}, got {item!r}")
            if isinstance(item, (int, float)) and not _is_finite(item):
                raise ValueError(f"{what} must be finite, got {item!r}")
            if self.choices and item not in self.choices:
                raise ValueError(f"{what} must be one of {', '.join(self.choices)}, "
                                 f"got {item!r}")
            if self.gt is not None and not item > self.gt:
                raise ValueError(f"{what} must be > {self.gt:g}, got {item!r}")
            if self.ge is not None and not item >= self.ge:
                raise ValueError(f"{what} must be >= {self.ge:g}, got {item!r}")


class Resolved:
    """Merged view of config file and flags; flags win.

    Resolves the options of one command from their table entries, and records
    every config path actually consumed, scalars as given and lists converted,
    so reports can embed the fully resolved configuration they ran with.
    """

    def __init__(self, config: dict, args: argparse.Namespace, options: tuple[Opt, ...]):
        self.config = config
        self.args = args
        self.options = {opt.name: opt for opt in options}
        self.used: dict = {}
        self._grid: Grid | None = None

    def record(self, name: str, val) -> None:
        *path, last = self.options[name].path.split(".")
        node = self.used
        for key in path:
            node = node.setdefault(key, {})
        node[last] = val

    def get(self, name: str):
        opt = self.options[name]
        val = getattr(self.args, name, None)
        if val is None:
            val = self.config
            for key in opt.path.split("."):
                val = val.get(key) if isinstance(val, dict) else None
        if val is None:
            val = opt.default(self) if callable(opt.default) else opt.default
        if val is None and "null" not in opt.type:
            raise ValueError(f"missing required option {opt.flag} (config {opt.path})")
        convert = _CONVERT.get(opt.type.split("|")[0])
        out = val if val is None or convert is None else convert(val)
        if out is not None:
            opt.check(out, name)
        self.record(name, out if opt.type.endswith("[]") else val)
        return out

    def grid(self) -> Grid:
        if self._grid is None:
            self._grid = Grid(self.get("L"), self.get("m"))
        return self._grid

    def snapshot(self) -> dict:
        return json.loads(json.dumps(self.used))


def _trunc_of(res: Resolved, grid: Grid) -> operators.TruncationSpec:
    res.get("kernel")  # read to be recorded; "hilbert" is its only value
    return operators.TruncationSpec(res.get("eta_cells") * grid.h)


def _weight_pair(res: Resolved, grid: Grid) -> tuple[GridFunction, GridFunction]:
    u = parse_function_spec(grid, res.get("u"))
    v = parse_function_spec(grid, res.get("v"), env={"u": u})
    return u, v


def _emit(res: Resolved, name: str, kind: str, result: dict) -> None:
    io.write_json(Path(res.get("out")) / f"{name}.json",
                  {"kind": kind, "result": result, "config": res.snapshot()})


def _emit_sup(res: Resolved, name: str, kind: str, sup) -> None:
    """Emit the result dict sup(cubes) of the --cubes family, labelled with its name."""
    family = res.get("cubes")
    _emit(res, name, kind, {**sup(cube_family(res.grid(), family)), "family": family})


def _bump_result(report: weights.BumpReport, grid: Grid, preset: str, p: float,
                 delta: float | None) -> dict:
    """The constant and its argmax cube, labelled with the caller's preset, p and delta."""
    a, b = report.argmax_cube.endpoints(grid)
    return {
        "constant": float(report.constant),
        "argmax": {"a": a, "b": b},
        "preset": preset,
        "p": float(p),
        "delta": None if delta is None else float(delta),
    }


def _spectral_result(report: compactness.SpectralReport, K_list: list[int]) -> dict:
    """The spectrum, labelled with its count (the grid's cells) and the caller's K_list."""
    return {
        "grid_cells": len(report.singular_values),
        "K_list": [int(k) for k in K_list],
        "sigma_ratios": list(report.sigma_ratios),
        "energy_tails": list(report.energy_tails),
        "singular_values": report.singular_values.tolist(),
    }


def _write_sigma(res: Resolved, name: str, singular_values: np.ndarray) -> None:
    k = np.arange(1.0, singular_values.size + 1)
    io.write_curve_csv(Path(res.get("out")) / name, ("k", "sigma"),
                       np.column_stack([k, singular_values]))


# subcommands

def _cmd_orlicz(res: Resolved) -> int:
    grid = res.grid()
    f = parse_function_spec(grid, res.get("f"))
    p, a, cube_arg = res.get("p"), res.get("a"), res.get("cube")
    bounds = _CONVERT["integer[]"](cube_arg)
    Opt("orlicz.cube", "integer[]").check(bounds, "cube")
    if len(bounds) != 2:
        raise ValueError(f"--cube takes i0,n_cells (two integers), got {cube_arg!r}")
    result = orlicz.orlicz_average(f, Cube(*bounds), orlicz.YoungFunction(p, a))
    _emit(res, "orlicz", "orlicz_average", {"value": result.value, "iterations": result.iterations,
                                             "bracket": list(result.bracket)})
    return 0


def _cmd_bmo(res: Resolved) -> int:
    b = parse_function_spec(res.grid(), res.get("b"))
    _emit_sup(res, "bmo", "bmo_norm", lambda cubes: {"norm": orlicz.bmo_norm(b, cubes)})
    return 0


def _cmd_ap(res: Resolved) -> int:
    grid = res.grid()
    w, p = parse_function_spec(grid, res.get("w")), res.get("p")
    _emit_sup(res, "ap", "ap_constant",
              lambda cubes: _bump_result(weights.ap_constant(w, p, cubes), grid, "ap", p, None))
    return 0


def _cmd_bump(res: Resolved) -> int:
    grid = res.grid()
    u, v = _weight_pair(res, grid)
    p, delta, preset = res.get("p"), res.get("delta"), res.get("preset")
    a_left, a_right = res.get("a_left"), res.get("a_right")
    if a_left is not None or a_right is not None:
        if preset != "custom":
            raise ValueError("explicit a_left/a_right require --preset custom")
        if a_right is None:
            raise ValueError("--preset custom requires --a-right")
        try:
            left = None if a_left in (None, "avg") else float(a_left)
        except ValueError:
            raise ValueError(f"a_left must be number or 'avg', got {a_left!r}") from None
        if left is not None and not math.isfinite(left):
            raise ValueError(f"a_left must be finite, got {a_left!r}")
        res.record("a_left", left)
        spec = weights.BumpSpec(p, left, a_right)
    elif preset == "custom":
        raise ValueError("--preset custom requires --a-left and --a-right")
    else:
        spec = weights.BumpSpec.from_preset(preset, p, delta)
    pair = weights.WeightPair(u, v)
    _emit_sup(res, "bump", "bump_constant",
              lambda cubes: _bump_result(weights.bump_constant(pair, spec, cubes), grid,
                                         preset, p, delta))
    return 0


def _cmd_weights_gen(res: Resolved) -> int:
    grid = res.grid()
    u = parse_function_spec(grid, res.get("u"))
    k = res.get("k")
    v = weights.iterate_maximal(u, k)
    outdir = Path(res.get("out"))
    io.write_grid_function_csv(u, outdir / "weights_u.csv")
    io.write_grid_function_csv(v, outdir / "weights_v.csv")
    _emit(res, "weights", "weights_gen", {
        "k": k, "u_csv": "weights_u.csv", "v_csv": "weights_v.csv",
        "v_min": float(np.min(v.values)), "v_max": float(np.max(v.values))})
    return 0


# op apply's operators -> the options besides f that each reads
_OP_READS = {"M": (), "Teta": ("eta_cells",), "Tsharp": (), "commutator": ("b", "eta_cells")}


def _cmd_op_apply(res: Resolved) -> int:
    op = res.get("op")
    for name in ("b", "eta_cells"):
        if name not in _OP_READS[op] and getattr(res.args, name) is not None:
            res.args.command_parser.error(f"op apply --op {op} does not read "
                                          f"{res.options[name].flag}")
    grid = res.grid()
    f = parse_function_spec(grid, res.get("f"))
    if op == "M":
        out = operators.maximal_fn(f)
    elif op == "Teta":
        out = operators.apply_truncated(f, _trunc_of(res, grid))
    elif op == "Tsharp":
        res.get("kernel")
        out = operators.maximal_truncation(f)
    else:  # "commutator": the option's choices allow nothing else
        b = parse_function_spec(grid, res.get("b"))
        out = operators.commutator(b, f, _trunc_of(res, grid))
    io.write_grid_function_csv(out, Path(res.get("out")) / "op_apply.csv")
    _emit(res, "op_apply", "op_apply", {"op": op, "csv": "op_apply.csv",
                                        "max_abs": float(np.max(np.abs(out.values)))})
    return 0


def _cmd_probe_kr(res: Resolved) -> int:
    grid = res.grid()
    u, v = _weight_pair(res, grid)
    b = parse_function_spec(grid, res.get("b"))
    p, trunc = res.get("p"), _trunc_of(res, grid)
    count, seed = res.get("count"), res.get("seed")
    N_list, shifts = res.get("N_list"), res.get("shift_list")
    sample = compactness.sample_unit_ball(v, p, count, seed)
    report = compactness.kr_probe(sample, b, trunc, u, N_list, shifts)
    outdir = Path(res.get("out"))
    io.write_curve_csv(outdir / "probe_kr_tail.csv", ("N", "tail"), report.tail_curve)
    io.write_curve_csv(outdir / "probe_kr_modulus.csv", ("h", "modulus"),
                       report.modulus_curve)
    _emit(res, "probe_kr", "kr_probe", {
        "bound_sup": float(report.bound_sup),
        "tail_curve": [[float(n), float(v)] for n, v in report.tail_curve],
        "modulus_curve": [[float(h), float(v)] for h, v in report.modulus_curve],
        # NaN (fewer than two positive modulus points) is not JSON: write null
        "slope": float(report.slope) if math.isfinite(report.slope) else None,
    })
    return 0


def _cmd_probe_svd(res: Resolved) -> int:
    grid = res.grid()
    u, v = _weight_pair(res, grid)
    b = parse_function_spec(grid, res.get("b"))
    trunc, K_list = _trunc_of(res, grid), res.get("K_list")
    report = compactness.operator_spectral_report(b, trunc, u, v, K_list)
    _write_sigma(res, "probe_svd_sigma.csv", report.singular_values)
    _emit(res, "probe_svd", "spectral_probe", _spectral_result(report, K_list))
    return 0


def _cmd_compare(res: Resolved) -> int:
    grid = res.grid()
    u, v = _weight_pair(res, grid)
    b_cmo = parse_function_spec(grid, res.get("b_cmo"))
    b_bmo = parse_function_spec(grid, res.get("b_bmo"))
    trunc, K_list = _trunc_of(res, grid), res.get("K_list")
    cmp = compactness.decay_compare(b_cmo, b_bmo, trunc, u, v, K_list)
    for tag, rep in (("smooth", cmp.smooth), ("spike", cmp.spike)):
        _write_sigma(res, f"compare_sigma_{tag}.csv", rep.singular_values)
    _emit(res, "compare", "decay_compare", {
        "K_list": [int(k) for k in K_list],
        "bmo_scale": float(cmp.bmo_scale),
        "smooth": _spectral_result(cmp.smooth, K_list),
        "spike": _spectral_result(cmp.spike, K_list),
    })
    return 0


def _default_shifts(res: Resolved) -> list[int]:
    """The shifts of 1, 2 and 4 cells below eta/4, where the KR modulus applies."""
    eta_cells = res.get("eta_cells")
    shifts = [k for k in (1, 2, 4) if 4 * k < eta_cells]
    if not shifts:
        raise ValueError(f"--eta-cells {eta_cells} leaves no default shift below eta/4; "
                         f"pass --shift-list or --eta-cells >= 5")
    return shifts


# option tables: every option of every (sub)command, declared once

_COMMON = (
    Opt("grid.L", "number", gt=0, help="grid half-width"),
    Opt("grid.m", "integer", ge=4, help="grid cells (power of two)"),
    Opt("output.dir", "string", default=".", dest="out", help="output directory"),
)
_U = Opt("weights.u", "string", help="u weight spec")
_V = Opt("weights.v", "string", help="v weight spec (supports M<k>:u)")
_B = Opt("symbol.b", "string", help="symbol spec")
_F = Opt("function.f", "string", help="function spec")
_P = Opt("bump.p", "number", default=2.0, gt=1)
_CUBES = Opt("cubes", "string", default="dyadic+shifted", choices=("dyadic", "dyadic+shifted"))
_ETA = Opt("operator.eta_cells", "integer", default=8, ge=2)
_KERNEL = Opt("operator.kernel", "string", default="hilbert", choices=("hilbert",), help=None)
_K_LIST = Opt("probes.spectral.K_list", "integer[]",
              default=lambda res: [max(1, res.grid().cells // 8)],
              ge=1, help="comma-separated spectral indices")

# command -> (help, {action word (None: the command takes none) -> (handler, options)})
_COMMANDS = {
    "orlicz": ("one Orlicz average", {None: (_cmd_orlicz, (
        _F,
        Opt("orlicz.p", "number", default=2.0, gt=1),
        Opt("orlicz.a", "number", default=0.0, ge=0),
        Opt("orlicz.cube", "string", default=lambda res: f"0,{res.grid().cells}",
            help="i0,n_cells (default: whole grid)"),
    ))}),
    "bmo": ("BMO norm over a cube family", {None: (_cmd_bmo, (_B, _CUBES))}),
    "ap": ("A_p constant", {None: (_cmd_ap, (
        Opt("weights.w", "string", help="weight spec"), _P, _CUBES,
    ))}),
    "bump": ("two-weight bump constant", {None: (_cmd_bump, (
        _U, _V, _P,
        Opt("bump.delta", "number", default=1.0, gt=0),
        Opt("bump.preset", "string", default="comm", choices=("max", "czo", "comm", "custom")),
        Opt("bump.a_left", "string|number|null", help="custom left exponent or 'avg'"),
        Opt("bump.a_right", "number|null"),
        _CUBES,
    ))}),
    "weights": ("emit u and M^k u as CSV", {"gen": (_cmd_weights_gen, (
        _U, Opt("weights.k", "integer", default=5, ge=1, help="maximal iterations"),
    ))}),
    "op": ("apply an operator to a function", {"apply": (_cmd_op_apply, (
        Opt("operator.op", "string", choices=("M", "Teta", "Tsharp", "commutator")),
        _F, _B, _ETA, _KERNEL,
    ))}),
    "probe": ("kr or svd probes", {
        "kr": (_cmd_probe_kr, (
            _B, _U, _V, _P, _ETA, _KERNEL,
            Opt("probes.kr.count", "integer", default=32, ge=1),
            Opt("probes.kr.seed", "integer", default=0),
            Opt("probes.kr.N_list", "number[]", help="comma-separated radii",
                default=lambda res: [res.grid().half_width / 4,
                                     res.grid().half_width / 2]),
            Opt("probes.kr.shift_list", "integer[]", default=_default_shifts,
                help="comma-separated cell shifts (default: those of 1,2,4 below "
                     "eta-cells/4)"),
        )),
        "svd": (_cmd_probe_svd, (_B, _U, _V, _ETA, _KERNEL, _K_LIST)),
    }),
    "compare": ("paired singular-value decay", {None: (_cmd_compare, (
        Opt("symbol.b_cmo", "string", default="bump:0,0.5", help="smooth symbol spec"),
        Opt("symbol.b_bmo", "string", default="logspike:0.01", help="rough symbol spec"),
        _U, _V, _ETA, _KERNEL, _K_LIST,
    ))}),
}


_CONFIG_OPTIONS = {opt.path: opt for _, actions in _COMMANDS.values()
                   for _, options in actions.values() for opt in (*_COMMON, *options)}


def validate_config(data) -> None:
    """Raise ValueError unless ``data`` is a valid config.

    A config is a JSON object. Each option path it holds must lead through
    JSON objects to a value of that option's type, choices and bound. Keys
    that name no option are ignored.
    """
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for path, opt in _CONFIG_OPTIONS.items():
        node, keys = data, path.split(".")
        for depth, key in enumerate(keys):
            if not isinstance(node, dict):
                raise ValueError(f"{'.'.join(keys[:depth])} must be a JSON object")
            if key not in node:
                break
            node = node[key]
        else:
            opt.check(node, path)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("config"), dict):
        data = data["config"]  # accept a previously emitted report
    validate_config(data)
    return data


def _fill(p: _Parser, actions: dict, formatter) -> None:
    """Add what a command's parser reads: a parser per action word, if the command
    takes one; else a flag per option that has one, and the action's parser,
    handler and options as defaults."""
    if None not in actions:
        sub = p.add_subparsers(dest="action", required=True)
        for word, action in actions.items():
            sub.add_parser(word, formatter_class=formatter, fill=functools.partial(
                _fill, actions={None: action}, formatter=formatter))
        return
    func, options = actions[None]
    options = (*_COMMON, *options)
    p.set_defaults(command_parser=p, func=func, options=options)
    for opt in options:
        if opt.help is not None:
            p.add_argument(opt.flag, dest=opt.name, help=opt.help or None,
                           type=_FLAG_TYPES.get(opt.type.split("|")[0]),
                           choices=opt.choices or None)


def build_parser() -> _Parser:
    """The top-level parser and one parser per command, each of which adds its
    arguments, or its action parsers, when it first parses (see _fill)."""
    # the width argparse would read from the terminal for every formatter it makes
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="bumplab", formatter_class=formatter,
                     description="Two-weight bump constants and compactness probes")
    parser.add_argument("--config", help="JSON config file (or a previous report)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, actions) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, formatter_class=formatter,
                       fill=functools.partial(_fill, actions=actions, formatter=formatter))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:  # reported under the usage of the action that was parsed
            args.command_parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT

    res = Resolved(config, args, args.options)
    try:
        return args.func(res)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except _NONCONVERGENCE as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large for memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
