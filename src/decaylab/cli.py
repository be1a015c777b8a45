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
from concurrent.futures import ProcessPoolExecutor
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
from .field import Grid, write_field_csv
from .fileio import atomic_write_text
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

# every config key with its default; None means "unset"
CONFIG_DEFAULTS = {
    "p": None,
    "q": None,
    "dim_n": None,
    "gamma": 0.0,
    "alpha": 1.0,
    "lambda_upper": 1.0,
    "sobolev_const": 1.0,
    "grid_n": None,
    "domain_lengths": 1.0,
    "coefficient": "identity",
    "initial_kind": "bump",
    "initial_amplitude": 1.0,
    "initial_center": None,
    "initial_decay_exponent": None,
    "initial_cap": 1e6,
    "initial_nu": None,
    "initial_nu_prime": None,
    "initial_radius": None,
    "initial_path": None,
    "t_end": None,
    "dt_init": 1e-4,
    "stepper": "explicit",
    "eps_reg": None,
    "snapshot_times": [],
    "k_levels": [],
    "r_list": [],
    "sigma": None,
    "seed": 0,
    "sample_start": None,
    "sample_ratio": 1.05,
    "stop_linf_atol": 0.0,
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
    with open(path) as handle:
        text = handle.read()
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(parse_config_text(text))
    return cfg


def build_params(cfg: dict) -> ProblemParams:
    measure = float(np.prod(build_grid(cfg).lengths))
    return ProblemParams(
        p=float(cfg["p"]),
        q=float(cfg["q"]),
        dim_n=int(cfg["dim_n"]),
        gamma=float(cfg["gamma"]),
        alpha=float(cfg["alpha"]),
        lambda_upper=float(cfg["lambda_upper"]),
        sobolev_const=float(cfg["sobolev_const"]),
        measure=measure,
    )


def build_grid(cfg: dict) -> Grid:
    n = cfg["grid_n"]
    shape = tuple(int(x) for x in n) if isinstance(n, list) else (int(n),)
    lengths = cfg["domain_lengths"]
    if isinstance(lengths, (int, float)):
        lengths = [float(lengths)] * len(shape)
    return Grid(shape, tuple(float(l) for l in lengths))


def build_coefficient(cfg: dict) -> CoefficientField:
    kind = cfg["coefficient"]
    if kind == "identity":
        return CoefficientField()
    if kind == "sinusoidal":
        alpha = float(cfg["alpha"])
        lam = float(cfg["lambda_upper"])
        lengths = build_grid(cfg).lengths

        def fn(t, *coords):
            phase = sum(c / l for c, l in zip(coords, lengths))
            value = alpha + (lam - alpha) * (0.5 + 0.5 * np.sin(2.0 * math.pi * phase + t))
            # alpha + (lam - alpha) * 1 can round one ulp past lam
            return np.clip(value, alpha, lam)

        return CoefficientField(kind="scalar", fn=fn)
    raise ValueError(f"unknown coefficient {kind!r} (have: identity, sinusoidal)")


def build_scenario(cfg: dict, seed_override=None) -> Scenario:
    for key in REQUIRED_FOR_RUN:
        if cfg.get(key) is None:
            raise ValueError(f"config is missing required key {key!r}")
    params = build_params(cfg)
    grid = build_grid(cfg)
    initial = InitialSpec(
        kind=cfg["initial_kind"],
        amplitude=float(cfg["initial_amplitude"]),
        center=tuple(cfg["initial_center"]) if cfg["initial_center"] is not None else None,
        decay_exponent=cfg["initial_decay_exponent"],
        cap=float(cfg["initial_cap"]),
        nu=cfg["initial_nu"],
        nu_prime=cfg["initial_nu_prime"],
        radius=cfg["initial_radius"],
        path=cfg["initial_path"],
    )
    seed = int(seed_override) if seed_override is not None else int(cfg["seed"])
    return Scenario(
        params=params,
        grid=grid,
        initial=initial,
        t_end=float(cfg["t_end"]),
        dt_init=float(cfg["dt_init"]),
        stepper=cfg["stepper"],
        coefficient=build_coefficient(cfg),
        eps_reg=cfg["eps_reg"],
        snapshot_times=tuple(cfg["snapshot_times"]),
        k_levels=tuple(cfg["k_levels"]),
        r_list=tuple(cfg["r_list"]),
        sigma=cfg["sigma"],
        seed=seed,
        sample_start=cfg["sample_start"],
        sample_ratio=float(cfg["sample_ratio"]),
        stop_linf_atol=float(cfg["stop_linf_atol"]),
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
    return Path(flag_value or cfg.get("out_dir") or os.environ.get("DECAYLAB_OUT") or "decaylab_out")


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
        write_field_csv(snap, out_dir / f"snapshot_t{ts:g}.csv")

    effective_cfg = {**cfg, "seed": scenario.seed}
    atomic_write_text(out_dir / "config.txt", serialize_config(effective_cfg))

    metadata = {
        "config": effective_cfg,
        "regime": report_regime.to_dict(),
        "run": {
            "sigma_eff": result.metadata["sigma_eff"],
            "eps_reg": result.metadata["eps_reg"],
            "dim_mismatch": result.metadata["dim_mismatch"],
            "stopped_early": result.metadata["stopped_early"],
            "final_time": result.metadata["final_time"],
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
    except (ValueError, KeyError, TypeError) as exc:
        return {"out_dir": out_dir, "exit_code": EXIT_USAGE, "error": str(exc)}
    except NonConvergenceError as exc:
        return {"out_dir": out_dir, "exit_code": EXIT_BLOWUP, "error": str(exc)}
    except OSError as exc:
        return {"out_dir": out_dir, "exit_code": EXIT_IO, "error": str(exc)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    params = ProblemParams(
        p=args.p, q=args.q, dim_n=args.N, gamma=args.gamma if args.gamma is not None else 0.0
    )
    report = classify(params, data_nu=args.nu, critical_omega=args.omega)
    payload = report.to_dict()
    _print_payload(payload, args.json)
    return EXIT_USAGE if report.regime is Regime.OUT_OF_RANGE else EXIT_OK


def cmd_predict(args) -> int:
    params = ProblemParams(
        p=args.p,
        q=args.q,
        dim_n=args.N,
        gamma=args.gamma,
        alpha=args.alpha,
        lambda_upper=args.lambda_upper,
        sobolev_const=args.sobolev_const,
        measure=args.measure,
    )
    if args.sigma is not None:
        sigma = args.sigma
    elif params.gamma == 0.0:
        raise ValueError("gamma 0 prediction needs an explicit --sigma")
    else:
        report = classify(params)
        if report.regime not in (
            Regime.SUPERLINEAR_SIGMA,
            Regime.SUPERLINEAR_L1,
            Regime.CRITICAL_L1,
        ):
            raise ValueError(
                f"regime {report.regime.value} has no default data exponent; pass --sigma"
            )
        sigma = report.sigma
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
    cfg = load_config(args.config)
    out_root = _resolve_out_dir(args.out, cfg)
    ps = cfg["sweep_p"] if cfg["sweep_p"] else [cfg["p"]]
    qs = cfg["sweep_q"] if cfg["sweep_q"] else [cfg["q"]]
    gammas = cfg["sweep_gamma"] if cfg["sweep_gamma"] else [cfg["gamma"]]
    tasks = []
    for p, q, gamma in product(ps, qs, gammas):
        sub = dict(cfg)
        sub.update({"p": p, "q": q, "gamma": gamma, "sweep_p": None, "sweep_q": None, "sweep_gamma": None})
        if args.seed is not None:
            sub["seed"] = args.seed
        tasks.append((sub, str(out_root / f"p{p:g}_q{q:g}_gamma{gamma:g}")))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="Numerical laboratory for decay, contraction and extinction "
        "in gradient-growth degenerate diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="regime of (p, q, N)")
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--q", type=float, required=True)
    pc.add_argument("--N", type=int, required=True)
    pc.add_argument("--gamma", type=float, default=None)
    pc.add_argument("--nu", type=float, default=None, help="declared data exponent")
    pc.add_argument("--omega", type=float, default=0.1, help="critical-line sigma bump")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_classify)

    pp = sub.add_parser("predict", help="closed-form decay forecast")
    pp.add_argument("--p", type=float, required=True)
    pp.add_argument("--q", type=float, required=True)
    pp.add_argument("--N", type=int, required=True)
    pp.add_argument("--gamma", type=float, default=0.0)
    pp.add_argument("--alpha", type=float, default=1.0)
    pp.add_argument("--lambda-upper", dest="lambda_upper", type=float, default=1.0)
    pp.add_argument("--sobolev-const", dest="sobolev_const", type=float, default=1.0)
    pp.add_argument("--measure", type=float, default=1.0)
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
    pw.add_argument("--jobs", type=int, default=1)
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
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"stepping failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
