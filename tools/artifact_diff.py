"""Run the same decaylab configs on two source trees and list every artifact that differs.

Usage: python3 tools/artifact_diff.py OLD NEW [--seeds 1 7] [--keep DIR]

OLD and NEW are each a checkout (holding src/decaylab) or a src directory
(holding decaylab).  Each tree runs, with its own PYTHONPATH and one BLAS
thread, every config below from this repository:

- perfbench/workloads/imex2d.cfg and explicit2d.cfg, with `simulate`;
- perfbench/workloads/sweep_io.cfg, with `sweep --jobs 2 --seed S` per seed;
- the example config of README.md's "Config files" section;
- the explicit2d and imex2d configs with the `sinusoidal` coefficient
  (alpha = 0.5, lambda_upper = 1.5) and a shorter t_end;
- EVERY_KEY, a short 2D run that sets every config key, most numbers written
  as integers, with `simulate` and with `sweep --jobs 1`;
- the explicit2d config with its numbers written as JSON strings and a
  shorter t_end;
- the imex2d config at p = 3.5, q = 1.2 on a 24 x 24 grid up to t = 0.05,
  with gamma = 1 (which damps 139 sweeps in 193 steps) and with gamma = 0
  (which damps 36 and halves dt twice): the damping and halving paths that
  imex2d itself never takes;
- the imex2d config at p = 2, q = 1.5, gamma = 1 on a 48 x 48 grid up to
  t = 0.5: the linear-diffusion IMEX path (395 steps), which no benchmark
  workload runs;
- ONE_D, 64 nodes in 1D with an eigenfunction datum at p = 2, q = 1.9,
  gamma = 50, dim_n = 2 up to t = 0.5, whose bounded datum overflows
  (exit 4): explicitly at t = 6.73e-4, and with IMEX at dt_init = 1e-3 at
  t = 9.1e-4;
- ONE_D as an IMEX run that completes: p = 1.7, q = 1.5, gamma = 0.5, a
  bump, up to t = 0.2 (191 rows).  No other run is 1D.

Every file the two trees write is compared byte for byte, and so is each
command's exit code.  In sweep_summary.json the output root is replaced by a
placeholder first, so its paths never count.  For each series.csv that
differs, every column the two files share and do not agree on is listed
with its own largest relative deviation |a - b| / max(|a|, |b|) and the row
where it occurs, worst first, so a shared column left out agrees on every
row both files have; columns only one file has are named.  For each snapshot
CSV that differs, the value column's largest relative deviation is listed
with the node where it first occurs and the count of values that differ.
For each metadata.json that differs, every key of its `run` block that
differs is listed, old -> new (steps_accepted, steps_rejected,
extinction_time, blow_up_time and final_time among them), and so is every
other top-level block that differs.
Only the standard library is used.  Exit status: 0 when everything is identical, 1
when anything differs, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
CLI = "import sys; from decaylab.cli import main; sys.exit(main())"
SINUSOIDAL = {"coefficient": '"sinusoidal"', "alpha": "0.5", "lambda_upper": "1.5"}
DAMPED_IMEX = {"p": "3.5", "q": "1.2", "grid_n": "[24, 24]", "t_end": "0.05"}
LINEAR_IMEX = {"p": "2", "q": "1.5", "gamma": "1", "grid_n": "[48, 48]", "t_end": "0.5"}
STRING_NUMBERS = {"p": '"1.9"', "q": '"1.5"', "gamma": '"0.1"', "alpha": '"1"', "lambda_upper": '"1.0"',
                  "sobolev_const": '"2"', "initial_amplitude": '"0.8"', "initial_cap": '"1e6"',
                  "t_end": '"0.001"', "dt_init": '"1e-4"', "sample_ratio": '"1.05"', "stop_linf_atol": '"0"'}
ONE_D = """\
p = 2
q = 1.9
dim_n = 2
gamma = 50
grid_n = 64
initial_kind = "eigenfunction"
t_end = 0.5
"""
ONE_D_IMEX = {"p": "1.7", "q": "1.5", "gamma": "0.5", "initial_kind": '"bump"', "t_end": "0.2", "stepper": '"imex"'}
EVERY_KEY = """\
p = 2
q = 1
dim_n = 2
gamma = 1
alpha = 0.5
lambda_upper = 2
sobolev_const = 1
grid_n = [24, 20]
domain_lengths = [1, 1.5]
coefficient = "sinusoidal"
initial_kind = "power_spike"
initial_amplitude = 1
initial_center = [0.5, 0.75]
initial_decay_exponent = 1
initial_cap = 50
initial_nu = 1
initial_nu_prime = 4
initial_radius = 0.3
initial_path = "unused.csv"
t_end = 0.01
dt_init = 0.001
stepper = "explicit"
eps_reg = 1e-6
snapshot_times = [0, 0.005]
k_levels = [0.5, 2]
r_list = [2, 3]
sigma = 2
seed = 3
sample_start = 0.0001
sample_ratio = 1.1
stop_linf_atol = 0
out_dir = "unused"
verify_linf_contraction = true
verify_gk_contraction = true
fit_targets = [{"name": "linf_power", "label": "linf", "kind": "power", "window": [0.001, 0.01], "max_slope": 0}]
envelope_targets = [{"name": "l2_env", "label": "l2", "m": 1, "slack": 2}]
sweep_p = [2, 2.5]
sweep_q = [1]
sweep_gamma = [1]
"""


def readme_config() -> str:
    """The fenced example under README.md's "### Config files" heading."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"### Config files.*?```\n(.*?)```", text, re.S)
    if match is None:
        raise SystemExit("README.md has no example config under '### Config files'")
    return match.group(1)


def with_keys(text: str, keys: dict) -> str:
    """A config with the given keys set, replacing their lines where present."""
    lines = [line for line in text.splitlines() if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def runs(seeds) -> list:
    """(name, config text, CLI arguments after the config) for every run."""
    imex, explicit = (WORKLOADS / "imex2d.cfg").read_text(), (WORKLOADS / "explicit2d.cfg").read_text()
    sweep = (WORKLOADS / "sweep_io.cfg").read_text()
    return [
        ("imex2d", imex, ["simulate"]),
        ("explicit2d", explicit, ["simulate"]),
        *((f"sweep_io_seed{s}", sweep, ["sweep", "--jobs", "2", "--seed", str(s)]) for s in seeds),
        ("readme", readme_config(), ["simulate"]),
        ("sinusoidal_explicit", with_keys(explicit, {**SINUSOIDAL, "t_end": "0.02"}), ["simulate"]),
        ("sinusoidal_imex", with_keys(imex, {**SINUSOIDAL, "t_end": "0.2"}), ["simulate"]),
        ("every_key", EVERY_KEY, ["simulate"]),
        ("every_key_sweep", EVERY_KEY, ["sweep", "--jobs", "1"]),
        ("string_numbers", with_keys(explicit, STRING_NUMBERS), ["simulate"]),
        ("damped_imex_source", with_keys(imex, {**DAMPED_IMEX, "gamma": "1"}), ["simulate"]),
        ("damped_imex_halving", with_keys(imex, {**DAMPED_IMEX, "gamma": "0"}), ["simulate"]),
        ("linear_imex", with_keys(imex, LINEAR_IMEX), ["simulate"]),
        ("oned_explicit_overflow", ONE_D, ["simulate"]),
        ("oned_imex_overflow", with_keys(ONE_D, {"stepper": '"imex"', "dt_init": "1e-3"}), ["simulate"]),
        ("oned_imex", with_keys(ONE_D, ONE_D_IMEX), ["simulate"]),
    ]


def source_dir(arg: str) -> Path:
    path = Path(arg).resolve()
    for candidate in (path / "src", path):
        if (candidate / "decaylab" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"{arg}: neither it nor its src/ holds the decaylab package")


def run_tree(src: Path, out: Path, plan) -> dict:
    """Run every config with src on PYTHONPATH; {run name: exit code}."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("DECAYLAB_OUT", None)
    codes = {}
    for name, text, args in plan:
        cfg = out / f"{name}.cfg"
        cfg.write_text(text)
        command = [sys.executable, "-c", CLI, args[0], "--config", str(cfg), "--out", str(out / name),
                   *args[1:]]
        codes[name] = subprocess.run(command, cwd=out, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL).returncode
        summary = out / name / "sweep_summary.json"
        if summary.is_file():
            summary.write_text(summary.read_text().replace(str(out), "<out>"))
    return codes


def read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def relative_deviation(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two written numbers; inf unless both are finite."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def series_deviation(old: Path, new: Path) -> str:
    """Every column that differs between two series.csv files, each with its own largest
    relative deviation and where it occurs, worst first."""
    (head_a, *rows_a), (head_b, *rows_b) = read_csv(old), read_csv(new)
    shared = [(head_a.index(c), head_b.index(c), c) for c in head_a if c in head_b]
    worst = {}  # column: (largest deviation, its first row)
    for row, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        for i, j, column in shared:
            if ra[i] == rb[j]:
                continue
            dev = relative_deviation(ra[i], rb[j])
            if column not in worst or dev > worst[column][0]:
                worst[column] = (dev, f"row {row}, {head_a[0]} = {ra[0]}")
    ranked = sorted(worst.items(), key=lambda item: -item[1][0])
    listed = "; ".join(f"{column} {dev:.3e} at {where}" for column, (dev, where) in ranked)
    unshared = sorted(set(head_a) ^ set(head_b))
    return (f"{len(rows_a)} rows -> {len(rows_b)}; {len(worst)} of {len(shared)} shared columns differ"
            + (f" ({listed})" if listed else "")
            + (f"; in one file only: {', '.join(unshared)}" if unshared else ""))


def snapshot_deviation(old: Path, new: Path) -> str:
    """The largest relative deviation of two snapshots' value columns and the first node
    where it occurs, or that their nodes differ."""
    (head_a, *rows_a), (head_b, *rows_b) = read_csv(old), read_csv(new)
    if head_a != head_b or [r[:-1] for r in rows_a] != [r[:-1] for r in rows_b]:
        return f"the nodes differ ({len(rows_a)} rows -> {len(rows_b)})"
    dim = (len(head_a) - 1) // 2  # the axis indices, the coordinates, then the value
    worst, node, differing = -1.0, None, 0
    for ra, rb in zip(rows_a, rows_b):
        if ra[-1] != rb[-1]:
            differing += 1
            dev = relative_deviation(ra[-1], rb[-1])
            if dev > worst:
                worst, node = dev, ra[:dim]
    where = f"({', '.join(head_a[:dim])}) = ({', '.join(node)})"
    return f"{differing} of {len(rows_a)} values differ; value {worst:.3e} at node {where}"


def metadata_deviation(old: Path, new: Path) -> str:
    """The keys of two metadata.json files' run blocks that differ, old -> new, and the
    other top-level blocks that differ."""
    meta_a, meta_b = json.loads(old.read_text()), json.loads(new.read_text())
    run_a, run_b = meta_a.get("run", {}), meta_b.get("run", {})

    def shown(block: dict, key: str) -> str:
        return json.dumps(block[key]) if key in block else "absent"

    keys = [k for k in dict.fromkeys([*run_a, *run_b]) if shown(run_a, k) != shown(run_b, k)]
    listed = [f"run.{k} {shown(run_a, k)} -> {shown(run_b, k)}" for k in keys]
    blocks = [k for k in dict.fromkeys([*meta_a, *meta_b]) if k != "run" and shown(meta_a, k) != shown(meta_b, k)]
    if blocks:
        listed.append(f"also differing: {', '.join(blocks)}")
    return "; ".join(listed) or "the same values, written differently"


def files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="sweep_io seeds (default: 1)")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    args = parser.parse_args(argv)
    trees = {"old": source_dir(args.old), "new": source_dir(args.new)}
    plan = runs(args.seeds)
    base = Path(tempfile.mkdtemp(prefix="artifact-diff-")) if args.keep is None else args.keep.resolve()
    try:
        codes, outs = {}, {}
        for side, src in trees.items():
            outs[side] = base / side
            outs[side].mkdir(parents=True, exist_ok=True)
            codes[side] = run_tree(src, outs[side], plan)
        differ = [f"exit code of {name}: {codes['old'][name]} -> {codes['new'][name]}"
                  for name, _, _ in plan if codes["old"][name] != codes["new"][name]]
        old_files, new_files = files(outs["old"]), files(outs["new"])
        for rel in sorted(old_files | new_files):
            if rel not in new_files or rel not in old_files:
                differ.append(f"only in {'old' if rel in old_files else 'new'}: {rel}")
            elif (outs["old"] / rel).read_bytes() != (outs["new"] / rel).read_bytes():
                differ.append(f"differs: {rel}")
                if rel.name == "series.csv":
                    differ[-1] += f": {series_deviation(outs['old'] / rel, outs['new'] / rel)}"
                elif rel.name.startswith("snapshot_") and rel.suffix == ".csv":
                    differ[-1] += f": {snapshot_deviation(outs['old'] / rel, outs['new'] / rel)}"
                elif rel.name == "metadata.json":
                    differ[-1] += f": {metadata_deviation(outs['old'] / rel, outs['new'] / rel)}"
        for line in differ:
            print(line)
        print(f"{len(old_files | new_files)} files compared, {len(differ)} differences")
        return 1 if differ else 0
    finally:
        if args.keep is None:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
