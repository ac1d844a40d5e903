#!/usr/bin/env python3
"""Record the reference outputs that bench/run.py checks every command against.

Runs every command of every variant of each workload once, in-process, and
keeps the files it wrote under ``<out-dir>/<workload>/v<variant>/c<index>/``.
Run it from the repository root on the commit whose outputs are the
reference:

    python3 bench/make_reference.py                  # bench/expected/, full size
    python3 bench/make_reference.py --size tiny --out-dir DIR
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import reference
import workloads
from run import OUT

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", type=Path, default=BENCH / "expected")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from bumplab.cli import main as cli_main

    out_dir = args.out_dir.resolve()
    rundir = out_dir / ".work"
    cwd = os.getcwd()
    for name in workloads.WORKLOADS:
        shutil.rmtree(out_dir / name, ignore_errors=True)
        for variant in range(workloads.VARIANTS):
            for idx, cmd in enumerate(workloads.commands(name, variant, args.size)):
                shutil.rmtree(rundir, ignore_errors=True)
                rundir.mkdir(parents=True)
                os.chdir(rundir)
                try:
                    code = cli_main([*cmd.argv, "--out", OUT])
                finally:
                    os.chdir(cwd)
                if code != 0:
                    print(f"error: {' '.join(cmd.argv)} exited {code}", file=sys.stderr)
                    return 1
                target = reference.stored(out_dir, name, variant, idx)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(rundir / OUT, target)
        print(f"wrote {out_dir / name}")
    shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
