"""An adversarial sweep of the command line.

Each example draws a command from the option tables (`cli._COMMANDS`), flags
from each option's type, and function specs from a grammar that covers every
builder term, sums and `M<k>:` forms, with boundary, subnormal, huge and
non-finite numbers, and p near 1 as well as the other numbers. It runs `cli.main` in-process, with warnings as errors,
in its own directory. Whatever the input, the run must exit 0, 1, 2 or 3;
a failed run prints one error line (after argparse's usage, for exit 1) and
writes no file; a run that succeeds prints nothing and writes strict JSON.

Draws stay cheap: at most 256 cells, at most 3 maximal iterations, at most
4 sample functions, and no threads or processes.
"""

import contextlib
import io
import json
import os
import warnings

from hypothesis import example, given, settings, strategies as st

from bumplab.cli import _BUILDERS, _COMMANDS, _COMMON, main

# numbers as text: ordinary ones, and boundary, subnormal, huge and non-finite ones
_EDGE_NUMBERS = st.sampled_from([
    "0", "-0", "1", "-1", "1e-320", "5e-324", "-1e-320", "2.2250738585072014e-308",
    "1e-300", "1e300", "1e308", "-1e308", "1.7976931348623157e308", "inf", "-inf", "nan"])
_TAME_NUMBERS = st.floats(0.01, 4.0).map(repr)
_NUMBERS = st.one_of(_TAME_NUMBERS, st.floats(-10.0, 10.0).map(repr), _EDGE_NUMBERS)
_SMALL_INTS = st.integers(-2, 40).map(str)

# builder term -> its argument count
_TERMS = {name: count for name, (_, count) in _BUILDERS.items()}
_BAD_TERMS = ["nope:1", "const:", "const:1,2", "const:x", "M:u", "", "M1:"]


@st.composite
def _term(draw, hostile: bool) -> str:
    numbers = _NUMBERS if hostile else _TAME_NUMBERS
    kind = draw(st.sampled_from([*_TERMS, "number", *(["bad"] if hostile else [])]))
    if kind == "number":
        return draw(numbers)
    if kind == "bad":
        return draw(st.sampled_from(_BAD_TERMS))
    args = _SMALL_INTS if kind == "haar" else numbers
    return f"{kind}:" + ",".join(draw(st.lists(args, min_size=_TERMS[kind],
                                                max_size=_TERMS[kind])))


@st.composite
def _spec(draw, hostile: bool, may_name_u: bool) -> str:
    inner = "+".join(draw(st.lists(_term(hostile), min_size=1, max_size=3)))
    if may_name_u and draw(st.booleans()):
        inner = "u"  # only an M<k>: form may name u
    if inner == "u" or draw(st.booleans()):
        return f"M{draw(st.integers(0 if hostile else 1, 3))}:{inner}"
    return inner


_SPECS = {"u", "v", "w", "b", "f", "b_cmo", "b_bmo"}


def _value(opt, hostile: bool):
    """A strategy for the flag text of one option: tame values, which mostly
    pass validation, or hostile ones, which mostly do not."""
    bound = opt.gt if opt.gt is not None else opt.ge if opt.ge is not None else 0.0
    numbers = _NUMBERS if hostile else st.floats(bound + 0.01, bound + 4.0).map(repr)
    if opt.name in _SPECS:
        return _spec(hostile, may_name_u=opt.name == "v")
    if opt.choices:
        return st.sampled_from([*opt.choices, *(["bogus"] if hostile else [])])
    if opt.name == "m":
        return st.sampled_from(["4", "8", "16", "64", "256", *(["0", "3", "100"] * hostile)])
    if opt.name == "p":  # near 1 too, where powers of subnormal and huge weights overflow
        return st.one_of(st.sampled_from(["1.01", "1.0001", "1.000001"]), numbers)
    if opt.name == "L":
        return st.one_of(st.sampled_from(["1", "8"]), numbers)
    if opt.name in ("k", "count"):
        return st.integers(-1 if hostile else 1, 3 if opt.name == "k" else 4).map(str)
    if opt.name == "cube":
        return st.lists(_SMALL_INTS, min_size=1, max_size=3).map(",".join)
    if opt.name == "a_left":
        return st.one_of(st.just("avg"), numbers)
    if opt.type == "integer":
        return _SMALL_INTS if hostile else st.integers(max(int(bound), 1), 40).map(str)
    if opt.type == "integer[]":
        return st.lists(st.integers(-1, 300).map(str), max_size=3).map(",".join)
    if opt.type == "number[]":
        return st.lists(numbers, min_size=1, max_size=3).map(",".join)
    return numbers


@st.composite
def _argv(draw) -> list[str]:
    """A command and its action word, then flags: mostly the action's own, and
    now and then one of another action of the command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    actions = _COMMANDS[command][1]
    action = None if None in actions else draw(st.sampled_from(sorted(actions)))
    argv = [command] + ([action] if action else [])
    own = {opt.name for opt in actions[action][1]} | {"L", "m"}
    hostile = draw(st.booleans())
    # every flag of the command's actions, the common ones first, each once
    for opt in dict.fromkeys([*_COMMON, *(opt for _, options in actions.values()
                                          for opt in options)]):
        if opt.help is None or opt.name == "out":
            continue
        # options with no default are passed more often
        required = opt.default is None and "null" not in opt.type
        percent = (95 if required else 50) if opt.name in own else 3
        if draw(st.sampled_from(range(100))) < percent:
            argv += [opt.flag, draw(_value(opt, hostile))]
    return argv + ["--out", "out"]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
# a subnormal cell width rounds the center nearest 0 to 0.0, where 0^-1 = inf
@example(argv=["bmo", "--b", "power:-1.0", "--L", "1e-320", "--m", "256", "--out", "out"])
def test_any_argv_exits_cleanly(tmp_path_factory, argv):
    rundir = tmp_path_factory.mktemp("run")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    written = [p for p in rundir.rglob("*") if p.is_file()]
    lines = err.getvalue().splitlines()
    if code:
        assert not written
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and lines[-1] == errors[0], lines
        assert code == 1 or lines == errors, lines
        return
    assert lines == [] and out.getvalue() == ""
    reports = [p for p in written if p.suffix == ".json"]
    assert len(reports) == 1
    json.loads(reports[0].read_text(), parse_constant=_reject_constant)
