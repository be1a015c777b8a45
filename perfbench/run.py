"""decaylab benchmark: the `decaylab` CLI timed end to end, plus a traced run
for per-layer numbers.

    python3 perfbench/run.py --workload imex2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Load model: closed loop, one client.  One workload runs at a time; each
operation (`simulate`, or `sweep --jobs 2`) is a fresh process started from
the repository root's `src/`, with OpenBLAS/OMP pinned to one thread per
process.

--trace 0 runs the set-up probe SETUP_REPEATS times, then operations until
--seconds would be exceeded (at least one), and reports the end-to-end
metrics: medians of wall and set-up time, and the peak resident set.
--trace 1 runs the workload once untraced and once under perfbench/traced.py,
and reports the per-layer metrics of the traced run, the kernel micro-timings
and the tracing overhead.  --workload all does both for every workload.

Every operation's outputs are checked.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
a check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ENV = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PIN)
CLI = "import sys; from decaylab.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every child is killed past this, so a run ends within 180 s
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    cells: int  # operations per CLI call
    data: str  # how the bench seed reaches the inputs

    @property
    def config(self) -> Path:
        return BENCH / "workloads" / f"{self.name}.cfg"

    @property
    def jobs(self) -> int:
        return SWEEP_JOBS if self.command == "sweep" else 1

    def argv(self, seed: int) -> list:
        if self.command == "simulate":
            return ["simulate", "--config", str(self.config), "--out", "out", "--json"]
        return ["sweep", "--config", str(self.config), "--out", "out",
                "--jobs", str(SWEEP_JOBS), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("imex2d", "simulate", 1, "deterministic bump datum; the seed is unused"),
        Workload("explicit2d", "simulate", 1, "deterministic bump datum; the seed is unused"),
        Workload("sweep_io", "sweep", 12, "random_positive data from sweep --seed <bench seed>"),
    )
}
IMEX2D_STEPS = 299
EXTINCTION_LATEST = 1.0


# ---------------------------------------------------------------------------
# processes


def spawn(cmd, cwd: Path, deadline: float, log=None):
    """Run cmd to completion; return (exit code, wall s, peak RSS MiB).

    The child leads its own process group, so a child past the deadline is
    killed together with any pool workers it started.  wait4 gives the
    child's own rusage, which includes the workers it waited for.
    """

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(log or os.devnull, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - t0, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Op:
    """One CLI call in its own temporary directory, with its checked outputs."""

    tmp: Path
    code: int
    wall: float
    rss_mib: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    series: dict = field(default_factory=dict)  # cell -> series.csv path

    @property
    def out(self) -> Path:
        return self.tmp / "out"

    def hashes(self) -> dict:
        return {cell: sha256(path) for cell, path in self.series.items() if path.is_file()}


def run_op(w: Workload, seed: int, deadline: float, traced: bool = False) -> Op:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    if traced:
        (tmp / "trace").mkdir()
        cmd = [sys.executable, str(BENCH / "traced.py"), str(tmp / "trace"), *w.argv(seed)]
    else:
        cmd = [sys.executable, "-c", CLI, *w.argv(seed)]
    code, wall, rss = spawn(cmd, tmp, deadline, log=tmp / "cli.log")
    op = Op(tmp, code, wall, rss, attempted=w.cells, failed=0)
    check(w, op)
    return op


# ---------------------------------------------------------------------------
# output checks


def read_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def check_cell(w: Workload, cell_dir: Path) -> list:
    problems = []
    try:
        if not read_json(cell_dir / "verification.json")["passed"]:
            problems.append("verification.json did not pass")
        run = read_json(cell_dir / "metadata.json")["run"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc}"]
    if run["blow_up_time"] is not None:
        problems.append(f"blow-up at t={run['blow_up_time']}")
    if w.name == "imex2d":
        ext = run["extinction_time"]
        if ext is None or not ext < EXTINCTION_LATEST:
            problems.append(f"extinction_time {ext} is not below {EXTINCTION_LATEST}")
        if run["steps_accepted"] != IMEX2D_STEPS:
            problems.append(f"{run['steps_accepted']} accepted steps, expected {IMEX2D_STEPS}")
    return problems


def check(w: Workload, op: Op) -> None:
    """Fill op.problems, op.failed and op.series from the written artifacts."""
    if w.command == "simulate":
        cells = {"out": op.out}
        if op.code != 0:
            op.problems.append(f"exit code {op.code}")
    else:
        try:
            summary = read_json(op.out / "sweep_summary.json")
        except (OSError, ValueError) as exc:
            summary = []
            op.problems.append(f"no sweep summary (exit code {op.code}): {exc}")
        cells = {}
        for entry in summary:
            cell = op.tmp / entry["out_dir"]
            cells[cell.name] = cell
            if entry.get("exit_code") != 0 or not entry.get("verification_passed"):
                op.problems.append(f"{cell.name}: sweep summary reports {entry}")
        if len(cells) != w.cells:
            op.problems.append(f"{len(cells)} sweep cells, expected {w.cells}")
    failed = set()
    for name, cell in cells.items():
        problems = check_cell(w, cell)
        op.problems += [f"{name}: {p}" for p in problems]
        if problems or op.code != 0:
            failed.add(name)
        op.series[name] = cell / "series.csv"
    op.failed = min(w.cells, max(len(failed), w.cells - len(cells)))


# ---------------------------------------------------------------------------
# series references from the commit the benchmark was defined at


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_series(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def reference_for(w: Workload, seed: int):
    """{cell: (sha256, header, reference rows)}, or None without a reference.

    imex2d and explicit2d keep the whole series.csv; sweep_io keeps, per
    stored seed, each cell's hash and final row.
    """
    if w.command == "simulate":
        path = REFERENCE / f"{w.name}.csv"
        return {"out": (sha256(path), *read_series(path))}
    stored = read_json(REFERENCE / "sweep_io.json")
    cells = stored["seeds"].get(str(seed))
    if cells is None:
        return None
    return {cell: (ref["sha256"], stored["header"], [ref["final"]]) for cell, ref in cells.items()}


def series_deviation(w: Workload, seed: int, op: Op):
    """(max relative deviation from the reference, report lines); -1 without one."""
    ref = reference_for(w, seed)
    if ref is None:
        return -1.0, [f"series: no stored reference for seed {seed}; deviation not measured"]
    worst, lines = 0.0, []
    hashes = op.hashes()
    for cell, (digest, header, ref_rows) in sorted(ref.items()):
        if hashes.get(cell) == digest:
            continue
        if cell not in hashes:
            lines.append(f"series: {cell} missing")
            worst = max(worst, 1.0)
            continue
        got_header, got_rows = read_series(op.series[cell])
        if len(ref_rows) == 1:  # final row only
            got_rows = got_rows[-1:]
        common = [(got_header.index(lab), i) for i, lab in enumerate(header) if lab in got_header]
        dev = max(
            (rel_dev(g[j], r[i]) for g, r in zip(got_rows, ref_rows) for j, i in common),
            default=1.0,
        )
        worst = max(worst, dev)
        lines.append(
            f"series: {cell} differs from the reference: max rel dev {dev:.3e}, "
            f"over {len(got_rows)} rows against {len(ref_rows)} in the reference"
        )
    if not lines:
        lines.append(f"series: byte-identical to the reference ({len(ref)} files)")
    return worst, lines


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def layer_metrics(w: Workload, op: Op, untraced_wall: float) -> dict:
    totals, calls = defaultdict(float), Counter()
    run_self = norm_s = import_s = 0.0
    for path in sorted((op.tmp / "trace").glob("spans-*.json")):
        record = read_json(path)
        import_s += record.get("import_s", 0.0)
        spans = record["spans"]
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (name, _, _, parent) in enumerate(spans):
            totals[name] += dur[i]
            calls[name] += 1
            if parent is not None:
                child[parent] += dur[i]
        for i, (name, _, _, parent) in enumerate(spans):
            if name == "evolve.run":
                run_self += dur[i] - child[i]
            elif name.startswith("metrics.") and parent is not None and spans[parent][0] == "evolve.run":
                norm_s += dur[i]
    steps = rejected = samples = 0
    for cell in op.series.values():
        run = read_json(cell.parent / "metadata.json")["run"]
        steps += run["steps_accepted"]
        rejected += run["steps_rejected"]
        samples += run["n_samples"]
    imex_calls, solves = calls["evolve.step_imex"], calls["evolve.spsolve"]
    run_s, cells = totals["evolve.run"], calls["cli.simulate_to_dir"]
    return {
        "evolve.run_s": run_s,
        "evolve.run_self_s": run_self,
        "evolve.us_per_step": 1e6 * run_s / steps,
        "evolve.steps": steps,
        "evolve.steps_per_sample": steps / samples,
        "evolve.step_imex_calls": imex_calls,
        "evolve.step_imex_ms": 1e3 * totals["evolve.step_imex"] / imex_calls if imex_calls else 0.0,
        "evolve.steps_rejected": rejected,
        "evolve.solves": solves,
        "evolve.sweeps_per_step": solves / imex_calls if imex_calls else 0.0,
        "evolve.solve_s": totals["evolve.spsolve"],
        "evolve.solve_share": totals["evolve.spsolve"] / run_s,
        "metrics.samples": samples,
        "metrics.norm_s": norm_s,
        "metrics.series_write_s": totals["metrics.series_write"],
        "metrics.series_read_s": totals["metrics.series_read"],
        "metrics.verify_s": totals["metrics.verify"],
        "cli.import_s": import_s,
        "cli.artifacts_s": totals["cli.simulate_to_dir"] - run_s,
        "cli.snapshot_write_s": totals["cli.write_field_csv"],
        "cli.snapshots": calls["cli.write_field_csv"],
        "cli.bytes_written": sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file()),
        "cli.cells": cells,
        "cli.cell_s": totals["cli.simulate_to_dir"] / cells,
        "cli.pool_efficiency": totals["cli.simulate_to_dir"] / (w.jobs * totals["cli.command"]),
        "trace_overhead": op.wall / untraced_wall,
    }


def time_calls(fn, warmup=20, batches=15, per_batch=10) -> list:
    """Per-call microseconds of each timed batch, after warm-up calls."""
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        out.append(1e6 * (time.perf_counter() - t0) / per_batch)
    return out


def kernel_timings(op: Op):
    """Per-call timings of the field kernels, stable dt and one explicit step,
    on the initial and middle recorded states of the first cell's run."""
    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_PIN)  # read when numpy loads
    import numpy as np
    from decaylab import evolve
    from decaylab import field as fields
    from decaylab.cli import build_scenario, load_config

    states = {}
    for path in (op.tmp / "trace").glob("states-*.npz"):
        with np.load(path) as data:
            states[str(data["out_dir"])] = {"initial": data["initial"], "mid": data["mid"]}
    out_dir = min(states)
    scen = build_scenario(load_config(op.tmp / out_dir / "config.txt"))
    params, coeff, eps, p = scen.params, scen.coefficient, scen.eps_resolved, scen.params.p
    per_call, lines = defaultdict(list), []
    for state, values in states[out_dir].items():
        fld = fields.ScalarField(scen.grid, values)
        dt = evolve.stable_dt(fld, params, coeff, eps)
        dt = dt if math.isfinite(dt) else scen.dt_init
        kernels = {
            "field.p_flux_divergence_us": lambda: fields.p_flux_divergence(fld, coeff, p, eps),
            "field.gradient_magnitude_us": lambda: fields.gradient_magnitude(fld),
            "field.face_diffusivities_us": lambda: fields.face_diffusivities(fld, p, eps),
            "evolve.stable_dt_us": lambda: evolve.stable_dt(fld, params, coeff, eps),
            "evolve.step_explicit_us": lambda: evolve.step_explicit(fld, dt, params, coeff, eps),
        }
        for name, fn in kernels.items():
            batch = time_calls(fn)
            per_call[name] += batch
            lines.append(f"kernel {name} on the {state} state of {out_dir}: "
                         f"{statistics.median(batch):.1f} us per call, {len(batch) * 10} timed calls")
    return {name: statistics.median(v) for name, v in per_call.items()}, lines


# ---------------------------------------------------------------------------
# one run


@dataclass
class Result:
    metrics: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def add(self, op: Op) -> None:
        self.attempted += op.attempted
        self.failed += op.failed
        self.problems += op.problems


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> Result:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    res = Result({})
    if trace:
        plain = run_op(w, seed, deadline)
        traced = run_op(w, seed, deadline, traced=True)
        try:
            for op in (plain, traced):
                res.add(op)
            if plain.hashes() != traced.hashes() or not plain.series:
                res.problems.append("traced series.csv differs from the untraced one")
            if not res.problems:
                res.metrics = layer_metrics(w, traced, plain.wall)
                dev, lines = series_deviation(w, seed, traced)
                res.metrics["metrics.series_max_rel_dev"] = dev
                kernels, klines = kernel_timings(traced)
                res.metrics.update(kernels)
                res.lines += lines + klines
                res.lines.append(f"traced wall {traced.wall:.3f} s, untraced {plain.wall:.3f} s")
                WORK.joinpath(f"trace-{w.name}.json").write_text(json.dumps(
                    [read_json(p) for p in sorted((traced.tmp / "trace").glob("spans-*.json"))]))
        finally:
            shutil.rmtree(plain.tmp, ignore_errors=True)
            shutil.rmtree(traced.tmp, ignore_errors=True)
        return res

    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = spawn([sys.executable, str(BENCH / "setup_probe.py"), str(w.config), str(seed)],
                              ROOT, deadline)
        setup.append(wall)
        if code != 0:
            res.problems.append(f"set-up probe exit code {code}")
    loop_start = time.perf_counter()
    walls, rss = [], []
    while True:
        op = run_op(w, seed, deadline)
        try:
            res.add(op)
            walls.append(op.wall)
            rss.append(op.rss_mib)
            if len(walls) == 1:
                res.lines += series_deviation(w, seed, op)[1]
        finally:
            shutil.rmtree(op.tmp, ignore_errors=True)
        elapsed = time.perf_counter() - loop_start
        if res.problems or elapsed + statistics.median(walls) > seconds:
            break
    res.metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(rss),
    }
    res.lines.append(f"wall_s samples (s): {', '.join(f'{x:.3f}' for x in walls)}")
    res.lines.append(f"setup_s samples (s): {', '.join(f'{x:.3f}' for x in setup)}")
    return res


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads_per_process": THREAD_PIN,
        "sweep_jobs": SWEEP_JOBS,
        "data": {w.name: w.data for w in WORKLOADS.values()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decaylab" / "cli.py").is_file():
        print(f"error: no decaylab sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # timed runs first: the kernel timings load numpy into this process,
        # and a child's peak RSS starts from its parent's at fork
        plan = [(w, t) for t in (False, True) for w in WORKLOADS.values()]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    declared = read_json(ROOT / "BENCHMARK.json")  # metric names and units, in report order
    total = Result({})
    for w, trace in plan:
        res = measure(w, args.seed, args.seconds, trace)
        units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
        prefix = f"{w.name}." if args.workload == "all" else ""
        print(f"== {w.name} seed={args.seed} trace={int(trace)}")
        for line in res.lines + [f"FAIL {p}" for p in res.problems]:
            print(f"  {line}")
        for name, unit in units.items():
            if name in res.metrics:
                print(f"  {name} = {res.metrics[name]:.6g} {unit}")
                total.metrics[prefix + name] = {"value": res.metrics[name], "unit": unit}
        print(f"  fail_ratio = {res.failed}/{res.attempted}")
        total.attempted += res.attempted
        total.failed += res.failed
        total.problems += res.problems
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    correct = not total.problems and total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": total.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
