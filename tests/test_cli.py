import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bumplab
from bumplab import compactness, iterate_maximal, make_grid
from bumplab.cli import main, parse_function_spec
from bumplab.io import read_grid_function_csv


def run(args):
    return main([str(a) for a in args])


def _env():
    return dict(os.environ, PYTHONPATH=str(Path(bumplab.__file__).parents[1]))


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_validation_error_exits_2(tmp_path):
    assert run(["ap", "--w", "power:0.5", "--p", "2", "--L", "1", "--m", "13",
                "--out", tmp_path]) == 2
    assert run(["ap", "--w", "nosuch:1", "--p", "2", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2
    assert run(["bump", "--u", "const:1", "--v", "const:1", "--preset", "comm",
                "--a-left", "0", "--a-right", "0", "--L", "1", "--m", "16",
                "--out", tmp_path]) == 2  # overrides demand preset custom
    assert run(["bump", "--u", "const:1", "--v", "const:1", "--preset", "max", "--p", "1",
                "--L", "1", "--m", "16", "--out", tmp_path]) == 2  # p' would divide by 0


def test_nonconvergence_exits_3(tmp_path):
    rc = run(["orlicz", "--f", "const:0.0001+indicator:0,0.5", "--p", "1200",
              "--a", "0", "--L", "1", "--m", "16", "--out", tmp_path])
    assert rc == 3


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


def test_report_config_roundtrip(tmp_path):
    args = ["probe", "kr", "--seed", "3", "--b", "bump:0,0.5",
            "--u", "const:1", "--v", "const:1",
            "--L", "4", "--m", "128", "--eta-cells", "16",
            "--N-list", "1.5", "--shift-list", "1", "--out", tmp_path]
    assert run(args) == 0
    report_path = tmp_path / "probe_kr.json"
    first = report_path.read_bytes()
    # feed the emitted report back as the config; no flags beyond the path
    assert run(["--config", report_path, "probe", "kr"]) == 0
    assert report_path.read_bytes() == first


def test_config_schema_rejects_bad_file(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"grid": {"L": -1.0, "m": 64}}))
    assert run(["--config", bad, "bmo", "--b", "const:1"]) == 2
    bad.write_text("{not json")
    assert run(["--config", bad, "bmo", "--b", "const:1"]) == 2


def test_weights_gen_outputs(tmp_path):
    rc = run(["weights", "gen", "--u", "indicator:-1,1", "--k", "2",
              "--L", "4", "--m", "64", "--out", tmp_path])
    assert rc == 0
    u = read_grid_function_csv(tmp_path / "weights_u.csv")
    v = read_grid_function_csv(tmp_path / "weights_v.csv")
    g = make_grid(4.0, 64)
    assert u.grid == g and v.grid == g
    want = iterate_maximal(u, 2)
    assert np.array_equal(v.values, want.values)
    assert np.all(v.values >= u.values - 1e-15)


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


def test_oversized_dense_run_exits_2_before_allocating(tmp_path):
    argv = ["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1+gaussian:0,0.3",
            "--v", "const:2", "--L", "8", "--m", str(2**20), "--out", tmp_path]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from bumplab.cli import main; sys.exit(main())",
         *map(str, argv)], env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 2
    assert "physical memory" in err and "Traceback" not in err
    assert time.perf_counter() - start < 30.0
    assert usage.ru_maxrss < 512 * 1024  # KiB: O(m) vectors only, no m x m array


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(compactness, "operator_matrix", exhausted)
    assert run(["probe", "svd", "--b", "bump:0,0.5", "--u", "const:1", "--v", "const:1",
                "--L", "1", "--m", "16", "--out", tmp_path]) == 2
    assert "out of memory" in capsys.readouterr().err
