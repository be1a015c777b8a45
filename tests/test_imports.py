"""No command loads scipy or numpy.random.

One fresh interpreter runs `classify`, `predict`, a small explicit and a
small IMEX `simulate`, `verify` on the explicit series and a one-job IMEX
`sweep` through `decaylab.cli.main`, with no scipy module loaded at the end.
`evolve.spsolve`, the sweep solve the benchmark times, is decaylab's own.
Another fresh interpreter, in which `import scipy` fails, runs an IMEX
`simulate` to exit 0.  A `random_positive` `simulate` and a one-job `sweep`
draw their data from the standard library's `random` and never load
`numpy.random`.
"""

import os
import subprocess
import sys
from pathlib import Path

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
imex = str(tmp / "imex.cfg")
assert cli.main(["simulate", "--config", imex, "--out", str(tmp / "imex")]) == 0
assert cli.main(["sweep", "--config", imex, "--out", str(tmp / "sweep"), "--jobs", "1"]) == 0
assert evolve.spsolve.__module__ == "decaylab.evolve"
assert not scipy_modules(), scipy_modules()[:5]
print("import contract ok")
"""

WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # every import of scipy or a submodule raises ImportError

from decaylab import cli

sys.exit(cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "explicit.cfg").write_text(EXPLICIT_CFG)
    (tmp_path / "imex.cfg").write_text(IMEX_CFG)
    assert _run(SCRIPT, str(tmp_path)).endswith("import contract ok\n")


def test_random_data_leave_numpy_random_unloaded(tmp_path):
    (tmp_path / "random.cfg").write_text(RANDOM_CFG)
    assert _run(RANDOM_SCRIPT, str(tmp_path)).endswith("no numpy.random\n")


def test_an_imex_simulate_runs_without_scipy(tmp_path):
    (tmp_path / "imex.cfg").write_text(IMEX_CFG)
    _run(WITHOUT_SCIPY, str(tmp_path / "imex.cfg"), str(tmp_path / "out"))
    assert (tmp_path / "out" / "series.csv").is_file()
