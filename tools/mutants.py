"""Apply fixed one-line mutants of src/ and report which ones the tests kill.

Usage: python3 tools/mutants.py [--tree DIR] [-- PYTEST_ARG ...]

Each mutant in MUTANTS replaces one text, which occurs exactly once in its
file under src/decaylab, with another.  For each mutant the tool copies the
tree (src, tests, tools, perfbench, README.md and pyproject.toml of DIR,
default this checkout) into a temporary directory, applies the replacement
there, and runs `python -m pytest -x -q PYTEST_ARG...` (default: tests) in
the copy with its own PYTHONPATH and one BLAS thread, JOBS mutants at a
time, leaving out tests/test_mutants.py, which every mutant breaks.  It
prints one line per mutant: killed with the first failing test, survived,
or timeout (a pytest run longer than TIMEOUT_S).  The checkout itself is
never written.

Exit status: 0 when every mutant was killed, 1 when one survived or timed
out, 2 when an old text does not occur exactly once.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "README.md", "pyproject.toml")
JOBS = 2
TIMEOUT_S = 900.0


class Mutant(NamedTuple):
    name: str
    path: str  # under src/decaylab
    old: str
    new: str


MUTANTS = (
    # stepping constants and rules
    Mutant("imex_rtol_1e-5", "evolve.py", "IMEX_RTOL = 1e-10", "IMEX_RTOL = 1e-5"),
    Mutant("extinction_tol_1e-6", "evolve.py", "tol = 1e-9 * float(linf[0])", "tol = 1e-6 * float(linf[0])"),
    Mutant("overflow_sentinel_1e3", "evolve.py", "OVERFLOW_SENTINEL = 1e12", "OVERFLOW_SENTINEL = 1e3"),
    Mutant("halving_never_raises", "evolve.py", "if halvings == IMEX_MAX_HALVINGS or",
           "if halvings == IMEX_MAX_HALVINGS + 1 or"),
    Mutant("datum_failure_halves", "evolve.py", "or isinstance(exc, _DatumFailure):", "or False:"),
    Mutant("datum_failure_never_raised", "evolve.py", "if x is fld.values:", "if False:"),
    # killed by tests/test_evolve.py::test_stable_dt_divides_by_the_flux_stiffness
    Mutant("cfl_kappa_dropped", "evolve.py", "max(1.0, params.p - 1.0)", "1.0"),
    # killed first by tests/test_acceptance.py::test_c3_heat_baseline_rate, then by
    # tests/test_evolve.py::test_stable_dt_frozen_heat and the no-new-extrema property
    Mutant("cfl_safety_doubled", "evolve.py", "CFL_SAFETY = 0.8", "CFL_SAFETY = 1.6"),
    # killed by tests/test_evolve.py::test_random_positive_is_the_stdlib_stream_in_c_order
    Mutant("random_positive_seed_shifted", "evolve.py", "draw = random.Random(seed).random",
           "draw = random.Random(seed + 1).random"),
    # the IMEX preconditioner's eigenvalues; killed first by
    # tests/test_evolve.py::test_step_imex_matches_heat_reference, then by
    # tests/test_evolve.py::test_heat_imex_takes_one_sweep_of_one_cg_iteration_per_step
    Mutant("sine_eigenvalues_halved", "evolve.py", "4.0 * np.sin", "2.0 * np.sin"),
    # the operator's constants
    Mutant("inverse_h_halved", "field.py", "[1.0 / h for h in grid.spacing]", "[0.5 / h for h in grid.spacing]"),
    Mutant("quarter_h_as_half_h", "field.py", "1.0 / (4.0 * h)", "1.0 / (2.0 * h)"),
    Mutant("mobility_exponent_doubled", "field.py", "np.multiply(mob, e, out=mob)",
           "np.multiply(mob, 2.0 * e, out=mob)"),
    # exponent formulas
    Mutant("lambda_rate_beta_p_minus_1", "regime.py", "/ beta**p", "/ beta**(p - 1.0)"),
    Mutant("lambda_rate_measure_exp_halved", "regime.py",
           "measure_exp = -(n * (p - 2.0) + p * sigma) / (n * sigma)",
           "measure_exp = -(n * (p - 2.0) + p * sigma) / (2.0 * n * sigma)"),
    Mutant("sup_decay_data_exp_sigma_over_d", "regime.py", "return (p * sigma / d, n / d)",
           "return (sigma / d, n / d)"),
    Mutant("regularizing_time_exp_d_plus_1", "regime.py", "n * (r - sigma) / d)", "n * (r - sigma) / (d + 1.0))"),
    Mutant("universal_sup_exp_p_minus_1.9", "regime.py", "return 1.0 / (p - 2.0)", "return 1.0 / (p - 1.9)"),
    # verdicts
    Mutant("fit_min_slope_dropped", "verify.py",
           "if target.min_slope is not None and not fit.slope >= target.min_slope:", "if False:"),
    Mutant("fit_max_slope_dropped", "verify.py",
           "if target.max_slope is not None and not fit.slope <= target.max_slope:", "if False:"),
    Mutant("fit_window_error_passes", "verify.py",
           'DegenerateWindowError) as exc:\n        check["passed"] = False',
           'DegenerateWindowError) as exc:\n        check["passed"] = True'),
    Mutant("envelope_calibration_failure_passes", "verify.py",
           'except InsufficientDataError as exc:\n            check["passed"] = False',
           'except InsufficientDataError as exc:\n            check["passed"] = True'),
    Mutant("envelope_nonpositive_rate_passes", "verify.py",
           'if rate <= 0.0:\n        check["passed"] = False', 'if rate <= 0.0:\n        check["passed"] = True'),
    Mutant("gk_contraction_ceiling_1e-3", "verify.py", "ceiling = vals[0] * (1.0 + 1e-6)",
           "ceiling = vals[0] * (1.0 + 1e-3)"),
)


def source_problems(tree: Path, mutants=MUTANTS) -> list:
    """One message per mutant whose old text does not occur exactly once in its file."""
    problems = []
    for m in mutants:
        count = (tree / "src" / "decaylab" / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in src/decaylab/{m.path}")
    return problems


def first_failure(output: str) -> str:
    """The first FAILED or ERROR test id in pytest's short summary, or ''."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else ""


def run_mutant(tree: Path, mutant: Mutant, pytest_args, base: Path) -> tuple:
    """(verdict, detail, seconds) of one mutant, run in its own copy of tree under base."""
    copy = Path(tempfile.mkdtemp(prefix=f"{mutant.name}-", dir=base))
    try:
        for name in COPIED:
            if (tree / name).is_dir():
                shutil.copytree(tree / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            elif (tree / name).is_file():
                shutil.copy2(tree / name, copy / name)
        target = copy / "src" / "decaylab" / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--ignore=tests/test_mutants.py", *pytest_args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", "", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if proc.returncode == 0:
            return "survived", "", seconds
        return "killed", first_failure(proc.stdout) or f"pytest exit {proc.returncode}", seconds
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pytest_args = ["tests"]
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to copy and mutate (default: this one)")
    tree = parser.parse_args(argv).tree.resolve()
    problems = source_problems(tree)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    base = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = [pool.submit(run_mutant, tree, m, pytest_args, base) for m in MUTANTS]
            verdicts = []
            for mutant, future in zip(MUTANTS, futures):
                verdict, detail, seconds = future.result()
                verdicts.append(verdict)
                print(f"{mutant.name:<38} {verdict:<9} {seconds:6.1f} s  {detail}".rstrip(), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    survived = [m.name for m, v in zip(MUTANTS, verdicts) if v != "killed"]
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} killed; not killed: {', '.join(survived) or 'none'}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
