"""tools/artifact_diff.py's deviation reports, on hand-written files."""

import importlib.util
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
