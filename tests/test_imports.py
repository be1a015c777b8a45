"""The CLI loads scipy only when an IMEX step runs.

One fresh interpreter runs `classify`, `predict`, a small explicit `simulate`
and `verify` on its series through `decaylab.cli.main`, with no scipy module
loaded at the end; then an IMEX `simulate` loads `scipy.linalg`, and
`evolve.spsolve` is scipy's.
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
assert "scipy.linalg" in sys.modules, scipy_modules()[:5]
import scipy.sparse.linalg

assert evolve.spsolve is scipy.sparse.linalg.spsolve
print("import contract ok")
"""


def test_only_an_imex_step_loads_scipy(tmp_path):
    (tmp_path / "explicit.cfg").write_text(EXPLICIT_CFG)
    (tmp_path / "imex.cfg").write_text(IMEX_CFG)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("import contract ok\n")
