"""Symbol-times-function products that overflow end the run through the
callers' own finiteness checks, with no numpy warning printed first."""

import pytest

from bumplab.cli import main


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["probe", "kr", "--b", "power:200", "--count", "2"], 3),
    (["probe", "svd", "--b", "power:300"], 2),
], ids=["probe-kr", "probe-svd"])
def test_an_overflowing_commutator_exits_without_a_numpy_warning(tmp_path, capsys, argv, code):
    assert main([*argv, "--u", "const:1", "--v", "const:1e-300", "--eta-cells", "8",
                 "--L", "8", "--m", "64", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
