"""The hooks the benchmark in perfbench/ relies on still run against the package.

perfbench/setup_probe.py builds each workload's scenario and initial datum;
perfbench/traced.py wraps module-level functions of decaylab.cli and
decaylab.evolve from outside the package, and perfbench/run.py times the
field and step kernels by their public signatures on the states it saves.
A renamed function or a changed signature otherwise shows only in a full
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decaylab import evolve
from decaylab import field as fields
from decaylab.cli import build_scenario, load_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = sorted((BENCH / "workloads").glob("*.cfg"))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_workloads_exist():
    assert [w.stem for w in WORKLOADS] == ["explicit2d", "imex2d", "sweep_io"]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.stem)
def test_setup_probe_builds_each_workload(workload, tmp_path):
    proc = _run([BENCH / "setup_probe.py", workload, 1], tmp_path)
    assert proc.returncode == 0, proc.stderr


TINY_CFG = """
p = 1.8
q = 1.0
dim_n = 2
gamma = 0.0
grid_n = [8, 8]
initial_kind = "bump"
t_end = 4e-3
dt_init = 1e-3
sample_ratio = 1.5
r_list = [2.0]
k_levels = [0.0, 0.3]
"""


@pytest.mark.parametrize("stepper", ["explicit", "imex"])
def test_traced_run_writes_spans_and_states(stepper, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG + f'stepper = "{stepper}"\n')
    trace = tmp_path / "trace"
    trace.mkdir()
    proc = _run([BENCH / "traced.py", trace, "simulate", "--config", cfg, "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    spans = list(trace.glob("spans-*.json"))
    states = list(trace.glob("states-*.npz"))
    assert spans and states
    names = {s[0] for path in spans for s in json.loads(path.read_text())["spans"]}
    assert {"cli.main", "evolve.run", "metrics.lr_norm", "metrics.truncate_excess"} <= names
    assert ("evolve.step_imex" in names) == (stepper == "imex")
    assert ("evolve.spsolve" in names) == (stepper == "imex")

    # the kernel timings call these by position on the saved states
    scen = build_scenario(load_config(tmp_path / "out" / "config.txt"))
    params, coeff, eps, p = scen.params, scen.coefficient, scen.eps_resolved, scen.params.p
    with np.load(states[0]) as data:
        for key in ("initial", "mid"):
            fld = fields.ScalarField(scen.grid, data[key])
            dt = evolve.stable_dt(fld, params, coeff, eps)
            assert dt > 0.0
            assert evolve.step_explicit(fld, dt, params, coeff, eps).values.shape == (8, 8)
            assert fields.p_flux_divergence(fld, coeff, p, eps).values.shape == (8, 8)
            assert fields.gradient_magnitude(fld).values.shape == (8, 8)
            assert len(fields.face_diffusivities(fld, p, eps)) == 2
