"""Command line interface.

Subcommands
    classify   regime of (p, q, N) plus the exponent table
    predict    closed-form contraction/decay forecast for given data size
    simulate   run a scenario from a config file, write CSV/JSON outputs
    verify     re-run the verification checks from a written series CSV
    sweep      grid of (p, q, gamma) simulate runs with a summary table

Config files are flat "key = value" lines; values are JSON literals, '#'
starts a comment, unknown keys are rejected, and the verification targets are
validated before any stepping.  The output directory comes from --out, else
the config's out_dir, else $DECAYLAB_OUT, else ./decaylab_out.

Exit codes: 0 pass, 2 usage or domain error (bad flags, bad config, regime
out of range, schema mismatch), 3 verification failure, 4 blow-up or stepping
failure, 5 IO error.  All file writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from itertools import product
from pathlib import Path

import numpy as np

from .evolve import (
    CoefficientField,
    InitialSpec,
    NonConvergenceError,
    Scenario,
    run,
)
from .field import Grid, _snapshot_file, write_field_csv
from .fileio import _typed, atomic_write_text
from .metrics import NormSeries
from .regime import (
    ProblemParams,
    Regime,
    classify,
    decay_prediction,
    delta_threshold,
)
from .verify import VerificationSpec, run_verification  # a global here: perfbench/traced.py wraps it

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_BLOWUP = 4
EXIT_IO = 5

# how main and each sweep cell report an exception: (types, exit code, stderr prefix)
_FAILURES = (
    ((ValueError, KeyError, TypeError), EXIT_USAGE, "error"),
    ((NonConvergenceError,), EXIT_BLOWUP, "stepping failure"),
    ((OSError,), EXIT_IO, "io error"),
)
_HANDLED = tuple(t for types, _, _ in _FAILURES for t in types)


def _failure(exc: Exception) -> tuple:
    """(exit code, stderr prefix) of an exception in _HANDLED."""
    return next((code, prefix) for types, code, prefix in _FAILURES if isinstance(exc, types))


def _config_fields(cls, prefix: str = "", skip=()) -> dict:
    """{config key: field} for the fields of cls that a config sets, in field order."""
    return {prefix + f.name: f for f in fields(cls) if f.name not in skip}


def _defaults(keyed: dict) -> dict:
    """The fields' defaults as config values: None for a field with none, a tuple as a list."""
    defaults = {key: None if f.default is MISSING else f.default for key, f in keyed.items()}
    return {key: list(d) if isinstance(d, tuple) else d for key, d in defaults.items()}


def _values(cfg: dict, keyed: dict) -> dict:
    """The config's values of the keyed fields, by field name, each read as its field's annotation.

    null passes through only to an Optional field; a value of the wrong type is an error naming the key.
    """
    return {f.name: _typed(cfg[key], f.type, f"config key {key!r}") for key, f in keyed.items()}


_PARAM_KEYS = _config_fields(ProblemParams, skip=("measure",))  # measure is the grid's volume
_INITIAL_KEYS = _config_fields(InitialSpec, "initial_")
_SCENARIO_KEYS = _config_fields(Scenario, skip=("params", "grid", "initial", "coefficient"))

# every config key with its default; None means "unset"
CONFIG_DEFAULTS = {
    **_defaults(_PARAM_KEYS),
    "grid_n": None,
    "domain_lengths": 1.0,
    "coefficient": "identity",
    **_defaults(_INITIAL_KEYS),
    **_defaults(_SCENARIO_KEYS),
    "out_dir": None,
    "verify_linf_contraction": False,
    "verify_gk_contraction": False,
    "fit_targets": [],
    "envelope_targets": [],
    "sweep_p": None,
    "sweep_q": None,
    "sweep_gamma": None,
}

REQUIRED_FOR_RUN = ("p", "q", "dim_n", "grid_n", "t_end")


def parse_config_text(text: str) -> dict:
    """Flat key = JSON-value lines; unknown or duplicate keys are rejected."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            cfg[key] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config line {lineno}: bad JSON value for {key!r}: {exc}")
    return cfg


def serialize_config(cfg: dict) -> str:
    lines = []
    for key in CONFIG_DEFAULTS:
        if key in cfg:
            lines.append(f"{key} = {json.dumps(cfg[key])}")
    return "\n".join(lines) + "\n"


def load_config(path) -> dict:
    """The file's keys over CONFIG_DEFAULTS, each list-valued key checked by _config_list."""
    with open(path) as handle:
        cfg = {**CONFIG_DEFAULTS, **parse_config_text(handle.read())}
    lists = (*_NUMBER_LISTS, "fit_targets", "envelope_targets")
    return {**cfg, **{key: _config_list(cfg, key) for key in lists}}


# the list keys whose entries are numbers: the tuple fields, then the sweep axes
_NUMBER_LISTS = (
    *(key for key, f in {**_INITIAL_KEYS, **_SCENARIO_KEYS}.items() if "tuple" in f.type),
    "sweep_p", "sweep_q", "sweep_gamma",
)


def _config_list(cfg: dict, key: str):
    """A list key's list as written, or its default when null; a number list's entries must be numbers."""
    value = cfg[key]
    if value is None:
        return CONFIG_DEFAULTS[key]
    if not isinstance(value, list):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    if key in _NUMBER_LISTS:
        for entry in value:
            _typed(entry, "float", f"config key {key!r}")
    return value


def build_scenario(cfg: dict, seed_override=None) -> Scenario:
    """The scenario of a config: one Grid, and each dataclass given its keys by field name."""
    for key in REQUIRED_FOR_RUN:
        if cfg.get(key) is None:
            raise ValueError(f"config is missing required key {key!r}")
    n = cfg["grid_n"]
    shape = tuple(_typed(x, "int", "config key 'grid_n'") for x in (n if isinstance(n, list) else [n]))
    lengths = cfg["domain_lengths"]
    if not isinstance(lengths, list):
        lengths = [lengths] * len(shape)
    grid = Grid(shape, tuple(_typed(l, "float", "config key 'domain_lengths'") for l in lengths))
    params = ProblemParams(**_values(cfg, _PARAM_KEYS), measure=float(np.prod(grid.lengths)))
    initial = InitialSpec(**_values(cfg, _INITIAL_KEYS))
    cfg = cfg if seed_override is None else {**cfg, "seed": seed_override}

    kind = cfg["coefficient"]
    if kind == "identity":
        coefficient = CoefficientField()
    elif kind == "sinusoidal":
        alpha, lam, lengths = params.alpha, params.lambda_upper, grid.lengths

        def fn(t, *coords):
            phase = sum(c / l for c, l in zip(coords, lengths))
            value = alpha + (lam - alpha) * (0.5 + 0.5 * np.sin(2.0 * math.pi * phase + t))
            # alpha + (lam - alpha) * 1 can round one ulp past lam
            return np.clip(value, alpha, lam)

        coefficient = CoefficientField(kind="scalar", fn=fn)
    else:
        raise ValueError(f"unknown coefficient {kind!r} (have: identity, sinusoidal)")
    return Scenario(
        params=params,
        grid=grid,
        initial=initial,
        coefficient=coefficient,
        **_values(cfg, _SCENARIO_KEYS),
    )


def _scrub(obj):
    """Replace non-finite floats with None so the JSON stays portable."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_scrub(obj), indent=2, sort_keys=True) + "\n"


def _print_payload(payload: dict, as_json: bool) -> None:
    """Print payload as JSON or as one `key = value` line per entry."""
    if as_json:
        print(_dump_json(payload), end="")
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")


# ---------------------------------------------------------------------------
# simulate / sweep cores


def _resolve_out_dir(flag_value, cfg) -> Path:
    out_dir = _typed(cfg["out_dir"], "Optional[str]", "config key 'out_dir'")
    return Path(flag_value or out_dir or os.environ.get("DECAYLAB_OUT") or "decaylab_out")


def simulate_to_dir(cfg: dict, out_dir: Path, seed_override=None) -> tuple:
    """Run one scenario, write all artifacts, return (exit_code, summary)."""
    scenario = build_scenario(cfg, seed_override)
    checks = VerificationSpec.from_config(cfg)
    checks.require_columns(scenario.columns)
    report_regime = classify(scenario.params)
    result = run(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)

    series_path = out_dir / "series.csv"
    result.series.write_csv(series_path)
    for ts, snap in result.snapshots:
        write_field_csv(snap, out_dir / _snapshot_file(ts))

    effective_cfg = {**cfg, "seed": scenario.seed}
    atomic_write_text(out_dir / "config.txt", serialize_config(effective_cfg))

    metadata = {
        "config": effective_cfg,
        "regime": report_regime.to_dict(),
        "run": {
            **result.metadata,
            "steps_accepted": result.steps_accepted,
            "steps_rejected": result.steps_rejected,
            "extinction_time": result.extinction_time,
            "blow_up_time": result.blow_up_time,
            "n_samples": result.series.n,
        },
    }
    atomic_write_text(out_dir / "metadata.json", _dump_json(metadata))

    # verification runs on the re-read CSV so `verify` reproduces it bit for bit
    series_rt = NormSeries.from_csv(series_path)
    report, plots = run_verification(checks, series_rt, result.metadata["sigma_eff"])
    atomic_write_text(out_dir / "verification.json", _dump_json(report))
    for name, plot in plots:
        # not write_csv: perfbench/traced.py times those calls as series writes
        atomic_write_text(out_dir / f"plot_{name}.csv", plot.to_csv_text())

    if result.blow_up_time is not None:
        code = EXIT_BLOWUP
    elif not report["passed"]:
        code = EXIT_VERIFICATION
    else:
        code = EXIT_OK
    summary = {
        "p": scenario.params.p,
        "q": scenario.params.q,
        "gamma": scenario.params.gamma,
        "regime": report_regime.regime.value,
        "extinction_time": result.extinction_time,
        "blow_up_time": result.blow_up_time,
        "final_linf": float(series_rt.column("linf")[-1]),
        "verification_passed": report["passed"],
        "n_checks": report["n_checks"],
        "exit_code": code,
        "out_dir": str(out_dir),
    }
    return code, summary


def _sweep_worker(task):
    cfg, out_dir = task
    try:
        return simulate_to_dir(cfg, Path(out_dir))[1]
    except _HANDLED as exc:
        return {"out_dir": out_dir, "exit_code": _failure(exc)[0], "error": str(exc)}


# ---------------------------------------------------------------------------
# subcommands


def _flag_params(args) -> ProblemParams:
    """The ProblemParams of the flags; a field whose flag was left out keeps its default."""
    given = vars(args)
    return ProblemParams(**{f.name: given[f.name] for f in fields(ProblemParams) if f.name in given})


def cmd_classify(args) -> int:
    params = _flag_params(args)
    report = classify(params, data_nu=args.nu, critical_omega=args.omega)
    payload = report.to_dict()
    _print_payload(payload, args.json)
    return EXIT_USAGE if report.regime is Regime.OUT_OF_RANGE else EXIT_OK


def cmd_predict(args) -> int:
    params = _flag_params(args)
    if args.sigma is not None:
        sigma = args.sigma
    elif params.gamma == 0.0:
        raise ValueError("gamma 0 prediction needs an explicit --sigma")
    else:
        report = classify(params)
        sigma = report.data_sigma
        if sigma is None:
            raise ValueError(
                f"regime {report.regime.value} has no default data exponent; pass --sigma"
            )
    threshold = delta_threshold(params)
    smallness = args.delta if args.delta is not None else (
        args.sup_norm if args.sup_norm is not None else threshold
    )
    pred = decay_prediction(params, sigma, smallness, args.y0)
    payload = pred.to_dict()
    payload["delta_threshold"] = threshold
    payload["smallness_used"] = smallness
    payload["norm_rate"] = pred.norm_rate
    payload["norm_m"] = pred.norm_m
    _print_payload(payload, args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out_dir(args.out, cfg)
    code, summary = simulate_to_dir(cfg, out_dir, seed_override=args.seed)
    _print_payload(summary, args.json)
    return code


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    checks = VerificationSpec.from_config(cfg)
    series = NormSeries.from_csv(args.series)
    report, _ = run_verification(checks, series, scenario.sigma_resolved)
    text = _dump_json(report)
    if args.json:
        print(text, end="")
    else:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            extra = " (vacuous)" if check.get("vacuous") else ""
            print(f"{status}{extra} {check['name']}")
        print(f"overall: {'PASS' if report['passed'] else 'FAIL'} ({report['n_checks']} checks)")
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    out_root = _resolve_out_dir(args.out, cfg)
    axes = [cfg[f"sweep_{key}"] or [cfg[key]] for key in ("p", "q", "gamma")]
    tasks, cells = [], {}
    for p, q, gamma in product(*axes):
        numbers = [_typed(v, "float", f"config key {k!r}") for k, v in (("p", p), ("q", q), ("gamma", gamma))]
        name = "p{:g}_q{:g}_gamma{:g}".format(*numbers)
        cell = f"(p={p!r}, q={q!r}, gamma={gamma!r})"
        if name in cells:
            raise ValueError(f"sweep cells {cells[name]} and {cell} share the directory {name!r}")
        cells[name] = cell
        sub = dict(cfg)
        sub.update({"p": p, "q": q, "gamma": gamma, "sweep_p": None, "sweep_q": None, "sweep_gamma": None})
        if args.seed is not None:
            sub["seed"] = args.seed
        tasks.append((sub, str(out_root / name)))
    # the pool forks all of its workers at once, so it gets no more than there are cells
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_sweep_worker, tasks))
    else:
        summaries = [_sweep_worker(task) for task in tasks]
    out_root.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_root / "sweep_summary.json", _dump_json(summaries))
    code = EXIT_OK
    for summary in summaries:
        line = f"{summary.get('out_dir')}: exit={summary.get('exit_code')}"
        if summary.get("error"):
            line += f" error={summary['error']}"
        print(line)
        if summary.get("exit_code", EXIT_OK) != EXIT_OK and code == EXIT_OK:
            code = summary["exit_code"]
    return code


def _add_param_flags(parser, *optional) -> None:
    """--p, --q and --N, then a flag per optional ProblemParams field, left unset unless given."""
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)
    parser.add_argument("--N", dest="dim_n", metavar="N", type=int, required=True)
    for name in optional:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="Numerical laboratory for decay, contraction and extinction "
        "in gradient-growth degenerate diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="regime of (p, q, N)")
    _add_param_flags(pc, "gamma")
    pc.add_argument("--nu", type=float, default=None, help="declared data exponent")
    pc.add_argument("--omega", type=float, default=0.1, help="critical-line sigma bump")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_classify)

    pp = sub.add_parser("predict", help="closed-form decay forecast")
    _add_param_flags(pp, "gamma", "alpha", "lambda_upper", "sobolev_const", "measure")
    pp.add_argument("--sigma", type=float, default=None)
    group = pp.add_mutually_exclusive_group()
    group.add_argument("--delta", type=float, default=None, help="level smallness bound")
    group.add_argument("--sup-norm", dest="sup_norm", type=float, default=None)
    pp.add_argument("--y0", type=float, required=True, help="sigma norm of the datum")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_predict)

    ps = sub.add_parser("simulate", help="run a scenario from a config file")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="re-run checks from a series CSV")
    pv.add_argument("--config", required=True)
    pv.add_argument("--series", required=True)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("sweep", help="grid of (p, q, gamma) runs")
    pw.add_argument("--config", required=True)
    pw.add_argument("--out", default=None)
    pw.add_argument("--seed", type=int, default=None)
    pw.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per cell")
    pw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _HANDLED as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
