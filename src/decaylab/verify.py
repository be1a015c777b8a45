"""Verification engine: the configured checks, run against a recorded norm series.

A `VerificationSpec` names the checks: sup-norm contraction, contraction of
the sigma-powers of the truncations G_k, decay fits and Gronwall envelopes.
It is built before any stepping and its targets validate themselves, so a
malformed target never costs a run.  `run_verification` turns a series into
the report the CLI writes as `verification.json`, plus the overlay tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import (
    DegenerateWindowError,
    InsufficientDataError,
    NormSeries,
    calibrate_decay_rate,
    check_envelope,
    fit_exponential_decay,
    fit_power_decay,
    gronwall_envelope,
)

FIT_KINDS = ("power", "exponential")


def _window(owner: str, window) -> tuple:
    try:
        lo, hi = (float(x) for x in window)
    except (TypeError, ValueError):
        raise ValueError(f"{owner}: window must be [start, end], got {window!r}") from None
    if not lo < hi:
        raise ValueError(f"{owner}: window start {lo} is not below its end {hi}")
    return (lo, hi)


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


@dataclass(frozen=True)
class FitTarget:
    """Decay fit of one column in a window: the slope of log v against log t
    ("power") or the rate of log v against t ("exponential"), checked against
    `expected` within `rtol` relative and against [min_slope, max_slope]."""

    name: str
    label: str
    kind: str
    window: tuple
    expected: Optional[float] = None
    rtol: float = 0.05
    min_slope: Optional[float] = None
    max_slope: Optional[float] = None
    floor: float = 0.0

    def __post_init__(self):
        owner = f"fit target {self.name!r}"
        if self.kind not in FIT_KINDS:
            raise ValueError(f"{owner}: unknown kind {self.kind!r} (have: {', '.join(FIT_KINDS)})")
        object.__setattr__(self, "window", _window(owner, self.window))
        for key in ("expected", "min_slope", "max_slope"):
            object.__setattr__(self, key, _optional_float(getattr(self, key)))
        object.__setattr__(self, "rtol", float(self.rtol))
        object.__setattr__(self, "floor", float(self.floor))


@dataclass(frozen=True)
class EnvelopeTarget:
    """Column <= slack * envelope + atol in the window, the envelope solving
    y' = -rate y^m from y0 (default: the first sample; rate: calibrated)."""

    name: str
    label: str
    m: float
    slack: float = 1.5
    rate: Optional[float] = None
    y0: Optional[float] = None
    window: Optional[tuple] = None
    atol: float = 0.0

    def __post_init__(self):
        owner = f"envelope target {self.name!r}"
        for key in ("m", "slack", "atol"):
            object.__setattr__(self, key, float(getattr(self, key)))
        if not self.m > 0.0:
            raise ValueError(f"{owner}: exponent m must be > 0, got {self.m}")
        if not self.slack > 0.0:
            raise ValueError(f"{owner}: slack must be > 0, got {self.slack}")
        object.__setattr__(self, "rate", _optional_float(self.rate))
        object.__setattr__(self, "y0", _optional_float(self.y0))
        if self.window is not None:
            object.__setattr__(self, "window", _window(owner, self.window))


def _targets(cls, what: str, raws) -> tuple:
    """cls(**raw) for each raw target; unknown or missing keys are a ValueError naming it."""
    targets = []
    for index, raw in enumerate(raws):
        try:
            targets.append(cls(**raw))
        except TypeError as exc:
            name = raw.get("name", f"#{index}") if isinstance(raw, dict) else f"#{index}"
            raise ValueError(f"{what} target {name!r}: {exc}") from None
    return tuple(targets)


@dataclass(frozen=True)
class VerificationSpec:
    """Every check one run is verified against."""

    linf_contraction: bool = False
    gk_contraction: bool = False
    fits: tuple = ()
    envelopes: tuple = ()

    @classmethod
    def from_config(cls, cfg: dict) -> "VerificationSpec":
        """The checks named by the verify_* and *_targets config keys."""
        return cls(
            linf_contraction=bool(cfg["verify_linf_contraction"]),
            gk_contraction=bool(cfg["verify_gk_contraction"]),
            fits=_targets(FitTarget, "fit", cfg["fit_targets"]),
            envelopes=_targets(EnvelopeTarget, "envelope", cfg["envelope_targets"]),
        )

    def require_columns(self, labels) -> None:
        """ValueError naming the first target whose label is not among labels."""
        for what, targets in (("fit", self.fits), ("envelope", self.envelopes)):
            for target in targets:
                if target.label not in labels:
                    raise ValueError(
                        f"{what} target {target.name!r}: no series column {target.label!r}; "
                        f"the run records: {', '.join(labels)}"
                    )


def _new_check(target, kind: str, values: np.ndarray) -> dict:
    """The fields every target check has; an all-zero column makes it vacuous."""
    check = {"name": target.name, "kind": kind, "label": target.label, "passed": True, "vacuous": False}
    if not np.any(values > 0.0):
        check.update(vacuous=True, reason="series column identically zero")
    return check


def _fit_check(series: NormSeries, target: FitTarget) -> tuple:
    values = series.column(target.label)
    check = _new_check(target, f"fit_{target.kind}", values)
    if check["vacuous"]:
        return check, None
    fit_decay = fit_power_decay if target.kind == "power" else fit_exponential_decay
    try:
        fit = fit_decay(series, target.label, target.window, floor=target.floor)
    except (InsufficientDataError, DegenerateWindowError) as exc:
        check["passed"] = False
        check["reason"] = str(exc)
        return check, None
    measured = fit.slope if target.kind == "power" else fit.rate
    check["fit"] = fit.to_dict()
    check["measured"] = measured
    if target.expected is not None:
        check["expected"] = target.expected
        check["rtol"] = target.rtol
        if not abs(measured - target.expected) <= target.rtol * abs(target.expected):
            check["passed"] = False
    if target.min_slope is not None and not fit.slope >= target.min_slope:
        check["passed"] = False
    if target.max_slope is not None and not fit.slope <= target.max_slope:
        check["passed"] = False
    lo, hi = target.window
    mask = (series.times >= lo) & (series.times <= hi) & (series.times > 0.0)
    t_sel = series.times[mask]
    if fit.kind == "power":
        fitted = np.exp(fit.intercept) * t_sel**fit.slope
    else:
        fitted = np.exp(fit.intercept + fit.slope * t_sel)
    return check, NormSeries(t_sel, {"value": values[mask], "fitted": fitted})


def _envelope_check(series: NormSeries, target: EnvelopeTarget) -> tuple:
    values = series.column(target.label)
    check = _new_check(target, "envelope", values)
    if check["vacuous"]:
        return check, None
    y0 = target.y0 if target.y0 is not None else float(values[0])
    rate = target.rate
    if rate is None:
        try:
            rate = calibrate_decay_rate(series, target.label, target.m)
        except InsufficientDataError as exc:
            check["passed"] = False
            check["reason"] = str(exc)
            return check, None
        check["calibrated"] = True
    check.update(rate=rate, m=target.m, slack=target.slack, y0=y0)
    if rate <= 0.0:
        check["passed"] = False
        check["reason"] = "nonpositive decay rate"
        return check, None
    bound = lambda ts: gronwall_envelope(y0, rate, target.m, ts)
    report = check_envelope(
        series, target.label, bound, slack=target.slack, window=target.window, atol=target.atol
    )
    violations = [list(v) for v in report.violations[:20]]
    check.update(passed=report.passed, n_checked=report.n_checked, violations=violations)
    t = series.times
    envelope = np.asarray(bound(t), dtype=float) * target.slack
    return check, NormSeries(t, {"value": values, "envelope": envelope})


def run_verification(spec: VerificationSpec, series: NormSeries, sigma_eff: float) -> tuple:
    """(report, plots) of every check in spec, plots being (target name,
    overlay NormSeries) pairs; deterministic given spec, series and sigma_eff."""
    checks = []
    plots = []
    linf = series.column("linf")
    if spec.linf_contraction:
        tol = 1e-8 * float(linf[0])
        diffs = np.diff(linf)
        bad = np.where(diffs > tol)[0]
        checks.append({
            "name": "linf_contraction", "kind": "contraction", "label": "linf",
            "passed": bad.size == 0, "vacuous": float(linf[0]) == 0.0,
            "per_step_tol": tol, "n_violations": int(bad.size),
            "worst_rise": float(diffs.max(initial=-np.inf)) if diffs.size else 0.0,
        })
    if spec.gk_contraction:
        for lab in [lab for lab in series.labels if lab.startswith("gk") and lab.endswith("_lsigma")]:
            vals = series.column(lab) ** sigma_eff
            ceiling = vals[0] * (1.0 + 1e-6)
            bad = np.where(vals > ceiling)[0]
            checks.append({
                "name": f"{lab}_contraction", "kind": "contraction", "label": lab,
                "passed": bad.size == 0,
                "vacuous": float(vals[0]) == 0.0 and not np.any(vals > 0.0),
                "rel_tol": 1e-6, "n_violations": int(bad.size),
            })
    targets = [(_fit_check, t) for t in spec.fits] + [(_envelope_check, t) for t in spec.envelopes]
    for check_fn, target in targets:
        check, plot = check_fn(series, target)
        checks.append(check)
        if plot is not None:
            plots.append((target.name, plot))
    report = {
        "passed": all(c["passed"] for c in checks),
        "vacuous": bool(checks) and all(c.get("vacuous", False) for c in checks),
        "n_checks": len(checks),
        "sigma_eff": sigma_eff,
        "checks": checks,
    }
    return report, plots
