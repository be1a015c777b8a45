"""Write the series references that run.py reports `metrics.series_max_rel_dev`
against.  Run it only at a commit whose numerics are the accepted ones.

    python3 perfbench/make_reference.py [SEED ...]

imex2d and explicit2d keep their whole series.csv (their data does not depend
on the seed).  sweep_io keeps, for each seed (default 0-15 and 123), the
SHA-256 and the final row of every cell's series.csv.
"""

import json
import shutil
import sys
import time

from run import REFERENCE, RUN_LIMIT_S, WORKLOADS, read_series, run_op, sha256


def checked_op(w, seed):
    op = run_op(w, seed, time.perf_counter() + RUN_LIMIT_S)
    if op.problems:
        shutil.rmtree(op.tmp, ignore_errors=True)
        sys.exit(f"{w.name} seed {seed}: {op.problems}")
    return op


def main(seeds) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name in ("imex2d", "explicit2d"):
        op = checked_op(WORKLOADS[name], 0)
        shutil.copyfile(op.series["out"], REFERENCE / f"{name}.csv")
        shutil.rmtree(op.tmp)
    stored = {"header": None, "seeds": {}}
    for seed in seeds:
        op = checked_op(WORKLOADS["sweep_io"], seed)
        cells = {}
        for cell, path in sorted(op.series.items()):
            header, rows = read_series(path)
            stored["header"] = header
            cells[cell] = {"sha256": sha256(path), "final": rows[-1]}
        stored["seeds"][str(seed)] = cells
        shutil.rmtree(op.tmp)
        print(f"sweep_io seed {seed}: {len(cells)} cells", flush=True)
    with open(REFERENCE / "sweep_io.json", "w") as handle:
        write_sweep_reference(stored, handle)


def write_sweep_reference(stored, handle) -> None:
    """JSON with one line per cell, so a regenerated reference diffs by cell."""
    seeds = []
    for seed, cells in stored["seeds"].items():
        lines = ",\n".join(f"  {json.dumps(cell)}: {json.dumps(ref)}" for cell, ref in cells.items())
        seeds.append(f" {json.dumps(seed)}: {{\n{lines}}}")
    handle.write(f'{{"header": {json.dumps(stored["header"])},\n"seeds": {{\n')
    handle.write(",\n".join(seeds) + "}}\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [*range(16), 123])
