"""The CLI loads one scipy extension, and only when an IMEX step runs, and never numpy.random.

One fresh interpreter runs `classify`, `predict`, a small explicit `simulate`
and `verify` on its series through `decaylab.cli.main`, with no scipy module
loaded at the end; then an IMEX `simulate` loads exactly one scipy module,
the LAPACK wrapper extension `scipy.linalg._flapack`.  `evolve.spsolve`, the
sweep solve the benchmark times, is decaylab's own, and resolving it loads no
more.  Two more fresh interpreters import decaylab and `scipy.linalg.lapack`
in either order and share one set of LAPACK wrappers, as the test suite does
in its own process.  A `random_positive` `simulate` and a one-job `sweep`
draw their data from the standard library's `random` and never load
`numpy.random`.  A scipy directory without the extension makes
`_flapack()` raise ImportError naming that directory.
"""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decaylab import evolve

SRC = Path(__file__).resolve().parents[1] / "src"

EXPLICIT_CFG = """
p = 2.0
q = 1.5
dim_n = 3
gamma = 0.1
grid_n = 12
initial_kind = "eigenfunction"
t_end = 1e-3
verify_linf_contraction = true
"""

IMEX_CFG = """
p = 1.8
q = 1.0
dim_n = 2
grid_n = [8, 8]
initial_kind = "bump"
t_end = 4e-3
dt_init = 2e-3
stepper = "imex"
"""

RANDOM_CFG = """
p = 2.2
q = 1.0
dim_n = 4
grid_n = [8, 8]
initial_kind = "random_positive"
initial_amplitude = 0.5
t_end = 1e-3
sweep_gamma = [0.0, 0.05]
"""

RANDOM_SCRIPT = """
import sys
from pathlib import Path

from decaylab import cli

tmp = Path(sys.argv[1])
config = str(tmp / "random.cfg")
assert cli.main(["simulate", "--config", config, "--out", str(tmp / "simulate"), "--seed", "3"]) == 0
assert cli.main(["sweep", "--config", config, "--out", str(tmp / "sweep"), "--jobs", "1"]) == 0
assert "numpy.random" not in sys.modules
print("no numpy.random")
"""

SCRIPT = """
import sys
from pathlib import Path

from decaylab import cli, evolve


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


tmp = Path(sys.argv[1])
assert cli.main(["classify", "--p", "2.0", "--q", "1.5", "--N", "3"]) == 0
assert cli.main(["predict", "--p", "2.0", "--q", "1.5", "--N", "3", "--gamma", "1.0", "--y0", "1.0"]) == 0
explicit = str(tmp / "explicit.cfg")
assert cli.main(["simulate", "--config", explicit, "--out", str(tmp / "explicit")]) == 0
assert cli.main(["verify", "--config", explicit, "--series", str(tmp / "explicit" / "series.csv")]) == 0
assert not scipy_modules(), scipy_modules()[:5]

assert cli.main(["simulate", "--config", str(tmp / "imex.cfg"), "--out", str(tmp / "imex")]) == 0
assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()[:5]
assert evolve.spsolve.__module__ == "decaylab.evolve"
assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()[:5]
print("import contract ok")
"""

DECAYLAB_FIRST = """
import sys

from decaylab import evolve

dpbtrf, dpbtrs = evolve._flapack().dpbtrf, evolve._flapack().dpbtrs
import scipy.linalg.lapack

assert scipy.linalg.lapack.dpbtrf is dpbtrf
assert scipy.linalg.lapack.dpbtrs is dpbtrs
assert sys.modules["scipy.linalg._flapack"] is evolve._flapack()
assert evolve._openblas_threads() is not None
print("shared ok")
"""

SCIPY_FIRST = """
import sys

import scipy.linalg.lapack

from decaylab import evolve

assert scipy.linalg.lapack.dpbtrf is evolve._flapack().dpbtrf
assert scipy.linalg.lapack.dpbtrs is evolve._flapack().dpbtrs
assert sys.modules["scipy.linalg._flapack"] is evolve._flapack()
print("shared ok")
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_an_imex_step_loads_scipy(tmp_path):
    (tmp_path / "explicit.cfg").write_text(EXPLICIT_CFG)
    (tmp_path / "imex.cfg").write_text(IMEX_CFG)
    assert _run(SCRIPT, str(tmp_path)).endswith("import contract ok\n")


def test_random_data_leave_numpy_random_unloaded(tmp_path):
    (tmp_path / "random.cfg").write_text(RANDOM_CFG)
    assert _run(RANDOM_SCRIPT, str(tmp_path)).endswith("no numpy.random\n")


@pytest.mark.parametrize("script", [DECAYLAB_FIRST, SCIPY_FIRST], ids=["decaylab_first", "scipy_first"])
def test_decaylab_and_scipy_linalg_share_the_lapack_wrappers(script):
    assert _run(script).endswith("shared ok\n")


def test_a_scipy_without_flapack_is_an_import_error(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    (tmp_path / "linalg" / "_flapack.py").write_text("")  # not an extension suffix
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
    evolve._flapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            evolve._flapack()
    finally:
        monkeypatch.undo()
        evolve._flapack.cache_clear()
