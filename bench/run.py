#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bumplab CLI.

Run from the repository root:

    python3 bench/run.py --workload kr --seed 1 --seconds 40 --trace 0

One client drives the CLI as a closed loop, one command at a time. The
program runs at its own defaults: the benchmark sets no BUMPLAB_THREADS and
pins no BLAS threads, and records both in the result file.

``--trace 0`` measures the end-to-end metrics with tracing off:

* setup_s     median wall time of a fresh interpreter importing bumplab.cli;
* cli_s       median over passes of the summed wall time of the workload's
              commands, each in a fresh process (import and writes included);
* solve_s     median over passes of the same commands run in-process through
              bumplab.cli.main, after one warm-up pass;
* peak_rss_mb largest peak RSS of any fresh-process command.

``--trace 1`` runs the same commands in-process, alternating untraced passes
with passes traced by ``tracing.Tracer``, and reports the per-layer metrics
named in BENCHMARK.json.

Every command execution is checked: it must exit 0, match the stored
reference within its tolerance, and write files byte-identical to the first
execution of that command in the run. Failed executions are counted in
``failed`` and in error_rate. The last line of standard output is the JSON
result; a fuller record, environment included, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
MAX_PASSES = 25
SETUP_RUNS = 3  # at the start of a run
SETUP_PER_PASS = 2
IMPORTTIME_RUNS = 3
# Each execution runs in its own directory and writes to this relative path,
# so the output directory embedded in every report is the same string.
OUT = "out"
_ENTRY = "import sys; from bumplab.cli import main; sys.exit(main())"
_ENV_KEYS = ("BUMPLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Functions whose calls and self time the traced run reports (see README.md
# for the end-to-end metric and workload each one should move).
TRACED_FUNCTIONS = (
    "operators.maximal_fn", "weights.iterate_maximal", "cli.parse_function_spec",
    "orlicz.orlicz_average_values", "orlicz.bmo_norm", "weights.bump_constant",
    "weights.ap_constant", "grid.cube_family",
    "operators.apply_truncated", "operators.commutator", "operators.maximal_truncation",
    "compactness.sample_unit_ball", "compactness.kr_probe",
    "operators.commutator_matrix", "compactness.operator_matrix",
    "compactness.singular_values", "compactness.spectral_report",
    "compactness.decay_compare", "_threads.parallel_map",
    "io.write_json", "io.write_grid_function_csv", "io.write_curve_csv",
    "operators.truncated_kernel_block", "grid.average",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], cwd: Path = ROOT) -> tuple[float, float, int, str]:
    """Run the interpreter with args; (seconds, peak RSS in MB, exit code, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=_child_env(), cwd=cwd,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.decode(errors="replace")


class Checker:
    """Counts command executions and the ones that fail any check."""

    def __init__(self, commands, ref_outputs, tol):
        self.commands = commands
        self.ref_outputs = ref_outputs
        self.tol = tol
        self.first: dict[int, dict[str, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, idx: int, rundir: Path, exit_code, how: str) -> None:
        self.attempted += 1
        outdir = rundir / OUT
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        else:
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            first = self.first.setdefault(idx, files)
            if files != first:
                problems.append("output not byte-identical to the first execution")
            got = reference.read_outputs(outdir)
            problems += reference.compare(got, self.ref_outputs[idx], self.tol)
            if self.commands[idx].exact_zero:
                max_abs = next((float(v) for k, v in got.items()
                                if k.endswith(".result.max_abs")), None)
                if max_abs != 0.0:
                    problems.append(f"result.max_abs = {max_abs!r}, must be exactly 0")
        shutil.rmtree(rundir, ignore_errors=True)
        if problems:
            self.failed += 1
            argv = " ".join(self.commands[idx].argv)
            for p in problems[:5]:
                self.problems.append(f"[{how}] {argv}: {p}")


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        from bumplab import _threads
        max_workers = _threads.max_workers()
    except (ImportError, AttributeError, ValueError):
        max_workers = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in _ENV_KEYS},
        "max_workers": max_workers,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _import_profile() -> tuple[float, float]:
    """Cumulative -X importtime seconds of bumplab.cli and of scipy."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bumplab.cli"],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    rows = []  # (depth, name, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))

    def outermost(pred) -> float:
        total = 0
        for i, (depth, name, cum) in enumerate(rows):
            if not pred(name):
                continue
            want, inside = depth - 1, False
            for d2, n2, _ in rows[i + 1:]:
                if d2 == want:
                    if pred(n2):
                        inside = True
                        break
                    want -= 1
                if want < 0:
                    break
            if not inside:
                total += cum
        return total / 1e6

    return (outermost(lambda n: n == "bumplab" or n.startswith("bumplab.")),
            outermost(lambda n: n == "scipy" or n.startswith("scipy.")))


def _import_time() -> float:
    return _spawn(["-c", "import bumplab.cli"])[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="wall-time budget of one workload run, set-up included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="grid size; 'tiny' is for the smoke test")
    ap.add_argument("--reference-dir", type=Path, default=BENCH / "expected")
    ap.add_argument("--results-dir", type=Path, default=BENCH / "results")
    args = ap.parse_args(argv)

    if not (SRC / "bumplab" / "cli.py").is_file():
        print(f"error: {SRC / 'bumplab'} not found; run from a bumplab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bumplab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bumplab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(cli, args.workload, args)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result = run_workload(cli, name, args)
        if result is None:
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def run_workload(cli, workload: str, args) -> dict | None:
    """Run one workload, write its result file, print its summary, and
    return the result object (None if the stored reference is missing)."""
    variant = workloads.variant_of(args.seed)
    commands = workloads.commands(workload, variant, args.size)
    stored = [reference.stored(args.reference_dir, workload, variant, idx)
              for idx in range(len(commands))]
    if not all(d.is_dir() for d in stored):
        print(f"error: no stored reference under {args.reference_dir / workload}; "
              "record it with bench/make_reference.py", file=sys.stderr)
        return None
    tol = reference.TOLERANCE
    checker = Checker(commands, [reference.read_outputs(d) for d in stored], tol)
    deadline = time.perf_counter() + args.seconds

    work = BENCH / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = _run_traced if args.trace else _run_untraced
        record = run(cli, commands, checker, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    record.update({
        "workload": workload, "seed": args.seed, "variant": variant,
        "size": args.size, "trace": args.trace, "seconds": args.seconds,
        "commands": [list(c.argv) for c in commands], "tolerance": tol,
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems, "environment": environment(),
    })
    args.results_dir.mkdir(parents=True, exist_ok=True)
    result_file = args.results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    spans = record.pop("spans", None)
    with open(result_file, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if spans is not None:
        with open(result_file.with_suffix(".spans.json"), "w") as fh:
            json.dump(spans, fh)

    for p in checker.problems:
        print(f"FAIL {p}", file=sys.stderr)
    env = record["environment"]
    print(f"workload {workload} seed {args.seed} (variant {variant}), "
          f"nproc {env['nproc']}, BLAS {env['blas']['name']} {env['blas']['version']}, "
          f"max_workers {env['max_workers']}, thread env {env['env']}")
    for name, m in record["metrics"].items():
        label = f"  computed: {m['computed']}" if "computed" in m else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}  (n={m['n']}){label}")
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'error_rate':42s} {rate:.6g} ratio  "
          f"(n={checker.attempted}, {checker.failed} failed)")
    print(f"  result file {result_file}")
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }


def _solve_pass(cli, commands, checker, work: Path, tag: str) -> list[float]:
    """Run every command in-process; the seconds each one took."""
    times = []
    for idx, cmd in enumerate(commands):
        rundir = work / f"{tag}-c{idx}"
        rundir.mkdir()
        os.chdir(rundir)
        start = time.perf_counter()
        try:
            code = cli.main([*cmd.argv, "--out", OUT])
        except Exception as exc:  # a raising command counts as a failure
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            times.append(time.perf_counter() - start)
            os.chdir(ROOT)
        checker.check(idx, rundir, code, "in-process")
    return times


def _cli_pass(commands, checker, work: Path, tag: str) -> tuple[list[float], float]:
    """Run every command in a fresh process; the seconds each one took, and
    the largest peak RSS in MB."""
    times, peak = [], 0.0
    for idx, cmd in enumerate(commands):
        rundir = work / f"{tag}-c{idx}"
        rundir.mkdir()
        seconds, rss, code, err = _spawn(["-c", _ENTRY, *cmd.argv, "--out", OUT], cwd=rundir)
        if code != 0 and err.strip():
            code = f"{code} ({err.strip().splitlines()[-1]})"
        times.append(seconds)
        peak = max(peak, rss)
        checker.check(idx, rundir, code, "fresh process")
    return times, peak


def _metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def _more_passes(done: int, deadline: float, last_pass: float) -> bool:
    """At least MIN_PASSES; then another pass while it should end near the deadline."""
    if done < MIN_PASSES:
        return True
    return done < MAX_PASSES and time.perf_counter() + last_pass / 2 < deadline


def _run_untraced(cli, commands, checker, work, deadline) -> dict:
    _import_time()  # not timed: fills the page and bytecode caches
    setup = [_import_time() for _ in range(SETUP_RUNS)]
    _solve_pass(cli, commands, checker, work, "warmup")
    cli_runs, solve_runs, peak, last = [], [], 0.0, 0.0
    while _more_passes(len(cli_runs), deadline, last):
        start = time.perf_counter()
        n = len(cli_runs)
        # spread over the run, not bunched at its start
        setup += [_import_time() for _ in range(SETUP_PER_PASS)]
        times, rss = _cli_pass(commands, checker, work, f"cli{n}")
        cli_runs.append(times)
        peak = max(peak, rss)
        solve_runs.append(_solve_pass(cli, commands, checker, work, f"solve{n}"))
        last = time.perf_counter() - start
    cli_times = [sum(t) for t in cli_runs]
    solve_times = [sum(t) for t in solve_runs]
    return {
        "metrics": {
            "setup_s": _metric(statistics.median(setup), "s", len(setup)),
            "cli_s": _metric(statistics.median(cli_times), "s", len(cli_times)),
            "solve_s": _metric(statistics.median(solve_times), "s", len(solve_times)),
            "peak_rss_mb": _metric(peak, "MB", len(cli_times) * len(commands)),
        },
        "samples": {"setup_s": setup, "cli_s": cli_times, "solve_s": solve_times,
                    "cli_s_by_command": cli_runs, "solve_s_by_command": solve_runs},
    }


def _run_traced(cli, commands, checker, work, deadline) -> dict:
    from tracing import COUNTERS, Tracer

    _import_time()
    profiles = [_import_profile() for _ in range(IMPORTTIME_RUNS)]
    _solve_pass(cli, commands, checker, work, "warmup")
    tracer = Tracer()
    plain, traced, per_pass, last = [], [], [], 0.0
    while _more_passes(len(plain), deadline, last):
        start = time.perf_counter()
        n = len(plain)
        plain.append(sum(_solve_pass(cli, commands, checker, work, f"plain{n}")))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(_solve_pass(cli, commands, checker, work, f"traced{n}")))
        finally:
            tracer.uninstall()
        workers, ratio = tracer.parallel_map_stats()
        per_pass.append({"self": tracer.self_times(), "calls": tracer.call_counts(),
                         "counts": dict(tracer.counts), "workers": workers,
                         "ratio": ratio})
        last = time.perf_counter() - start

    n = len(per_pass)
    final = per_pass[-1]
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = _metric(final["calls"].get(fn, 0), "count", n)
        metrics[f"{fn}.self_s"] = _metric(
            statistics.median([p["self"].get(fn, 0.0) for p in per_pass]), "s", n)
    metrics["_threads.parallel_map.workers"] = _metric(
        max(p["workers"] for p in per_pass), "count", n)
    metrics["_threads.parallel_map.child_ratio"] = _metric(
        statistics.median([p["ratio"] for p in per_pass]), "ratio", n)
    for name, (unit, formula) in COUNTERS.items():
        metrics[name] = _metric(final["counts"].get(name, 0), unit, n)
        metrics[name]["computed"] = formula
    for i, name in enumerate(("cli.import_s", "cli.import_scipy_s")):
        metrics[name] = _metric(statistics.median(p[i] for p in profiles), "s", len(profiles))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s", n)
    return {
        "metrics": metrics,
        "samples": {"solve_s": plain, "traced_solve_s": traced},
        "spans": tracer.span_records(),
    }


if __name__ == "__main__":
    sys.exit(main())
