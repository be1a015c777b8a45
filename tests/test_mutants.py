"""tools/mutants.py's list still applies to src/; tier-1 runs no mutant."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_old_text_occurs_once_under_src():
    assert mutants.source_problems(ROOT) == []
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.old != m.new for m in mutants.MUTANTS)


def test_a_missing_old_text_is_named(tmp_path):
    (tmp_path / "src" / "decaylab").mkdir(parents=True)
    (tmp_path / "src" / "decaylab" / "evolve.py").write_text("IMEX_RTOL = 1e-10\nIMEX_RTOL = 1e-10\n")
    rtol, sentinel = mutants.MUTANTS[0], mutants.MUTANTS[2]
    assert mutants.source_problems(tmp_path, [rtol, sentinel]) == [
        "imex_rtol_1e-5: old text occurs 2 times in src/decaylab/evolve.py",
        "overflow_sentinel_1e3: old text occurs 0 times in src/decaylab/evolve.py",
    ]


def test_first_failure_reads_the_short_summary():
    out = "..F\n=== short test summary info ===\nFAILED tests/test_x.py::test_y[a] - AssertionError\n"
    assert mutants.first_failure(out) == "tests/test_x.py::test_y[a]"
    assert mutants.first_failure("ERROR tests/test_z.py - ImportError\n") == "tests/test_z.py"
    assert mutants.first_failure("3 passed\n") == ""
