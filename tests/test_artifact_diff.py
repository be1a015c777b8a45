"""tools/artifact_diff.py's deviation reports, on hand-written files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def _write(path: Path, rows) -> Path:
    path.write_text("\n".join(rows) + "\n")
    return path


def test_snapshot_deviation_names_the_worst_node(tmp_path):
    head = "i,j,x,y,value"
    old = _write(tmp_path / "old.csv", [head, "1,1,0.25,0.5,1.0", "1,2,0.25,1.0,2.0", "2,1,0.5,0.5,-4.0"])
    new = _write(tmp_path / "new.csv", [head, "1,1,0.25,0.5,1.0", "1,2,0.25,1.0,2.000000000000001",
                                        "2,1,0.5,0.5,-4.000000000000001"])
    worst = (2.000000000000001 - 2.0) / 2.000000000000001
    assert artifact_diff.snapshot_deviation(old, new) == (
        f"2 of 3 values differ; value {worst:.3e} at node (i, j) = (1, 2)"
    )


def test_snapshot_deviation_in_1d_and_on_other_nodes(tmp_path):
    old = _write(tmp_path / "old.csv", ["i,x,value", "1,0.5,3.0"])
    new = _write(tmp_path / "new.csv", ["i,x,value", "1,0.5,-3.0"])
    assert artifact_diff.snapshot_deviation(old, new) == "1 of 1 values differ; value 2.000e+00 at node (i) = (1)"
    moved = _write(tmp_path / "moved.csv", ["i,x,value", "1,0.25,3.0"])
    assert artifact_diff.snapshot_deviation(old, moved) == "the nodes differ (1 rows -> 1)"


def test_metadata_deviation_lists_the_run_keys_that_differ(tmp_path):
    run = {"sigma_eff": 2.0, "final_time": 0.5, "steps_accepted": 299, "steps_rejected": 0,
           "extinction_time": 0.25, "blow_up_time": None}
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"config": {"p": 1.8}, "run": run}))
    new = tmp_path / "new.json"
    new.write_text(json.dumps({"config": {"p": 1.8}, "run": {**run, "steps_accepted": 301, "extinction_time": None,
                                                            "blow_up_time": 0.125}}))
    assert artifact_diff.metadata_deviation(old, new) == (
        "run.steps_accepted 299 -> 301; run.extinction_time 0.25 -> null; run.blow_up_time null -> 0.125"
    )
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps({"config": {"p": 1.9}, "run": {k: v for k, v in run.items() if k != "final_time"}}))
    assert artifact_diff.metadata_deviation(old, moved) == "run.final_time 0.5 -> absent; also differing: config"
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps({"config": {"p": 1.8}, "run": run}, indent=2))
    assert artifact_diff.metadata_deviation(old, spaced) == "the same values, written differently"
