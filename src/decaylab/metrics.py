"""Norms, level truncations, decay envelopes, fits and envelope checks.

These are the pieces `decaylab.verify` assembles into pass/fail evidence
against the closed-form predictions.  They are deliberately independent of
the evolution code so that checks can be re-run from CSV files alone.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable

import numpy as np

from .field import _power
from .fileio import atomic_write_text


class InsufficientDataError(ValueError):
    """Too few samples in the requested window."""


class DegenerateWindowError(ValueError):
    """Window contains values at the extinction floor; a log fit is meaningless."""


# ---------------------------------------------------------------------------
# level truncations


def level_split(z, k: float):
    """Split z into (excess, capped) parts at level k >= 0.

    excess is truncate_excess(z, k), z pushed toward 0 by k (zero inside
    [-k, k]); capped is the remainder.  The capped part is computed as
    z - excess rather than by clipping: that choice makes excess + capped == z
    EXACT in floating point for every input (Sterbenz: either |z| <= 2k so
    z - sign(z)k is exact, or the recomputed difference z - excess is), at the
    price of the capped part deviating from clip(z, -k, k) by at most one ulp
    for huge |z|.
    """
    excess = truncate_excess(z, k)
    return excess, np.asarray(z, dtype=float) - excess


def truncate_excess(z, k: float):
    """Part of z exceeding level k, signed: 0 inside [-k, k].

    Formed as z - clip(z, -k, k).  Outside the band that is z - sign(z) k,
    which rounds exactly as sign(z) (|z| - k) (rounding is symmetric in
    sign); inside it is z - z, which is 0.0 also for z = -0.0.
    """
    if not (k >= 0.0 and math.isfinite(k)):
        raise ValueError(f"truncation level must be finite and >= 0, got {k}")
    z = np.asarray(z, dtype=float)
    excess = np.clip(z, -k, k, out=np.empty_like(z))
    return np.subtract(z, excess, out=excess)


def _power_sum(ex: np.ndarray, sigma: float) -> float:
    """The sum of _power(ex, sigma), taken in a new array, so ex is left as it is."""
    return float(np.add.reduce(_power(ex, sigma), axis=None))


# ---------------------------------------------------------------------------
# norms


def lr_norm(values, r: float, weight: float) -> float:
    """Discrete Lebesgue norm of order r in [1, inf] of nodal values with node weight.

    The powers |values| ** r are _power's: products for r = 3 and 4, pow
    only for an r outside POW_FREE.
    """
    values = np.asarray(values, dtype=float)
    if math.isinf(r):
        return float(np.maximum.reduce(np.abs(values), axis=None, initial=0.0))
    if r < 1.0:
        raise ValueError(f"norm order must be >= 1, got {r}")
    mag = np.abs(values)
    return float(np.add.reduce(_power(mag, r, out=mag), axis=None) * float(weight)) ** (1.0 / r)


# ---------------------------------------------------------------------------
# recorded norm series


@dataclass
class NormSeries:
    """Sampled time series of named norms; column order is meaningful."""

    times: np.ndarray
    columns: dict

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be a 1D array")
        if t.size >= 2 and not np.all(np.diff(t) > 0.0):
            raise ValueError("timestamps must be strictly increasing")
        cols = {}
        for label, vals in self.columns.items():
            arr = np.asarray(vals, dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"column {label!r} has {arr.size} entries, need {t.size}")
            cols[str(label)] = arr
        self.times = t
        self.columns = cols

    @property
    def labels(self) -> list:
        return list(self.columns.keys())

    @property
    def n(self) -> int:
        return int(self.times.size)

    def column(self, label: str) -> np.ndarray:
        if label not in self.columns:
            raise KeyError(f"no series column {label!r}; available: {self.labels}")
        return self.columns[label]

    def to_csv_text(self) -> str:
        """csv.writer's bytes: the header through it, the rows (shortest
        round-trip floats, which hold no delimiter or quote) joined directly."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["t"] + self.labels)
        columns = [self.times.tolist()] + [self.columns[lab].tolist() for lab in self.labels]
        buf.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))
        return buf.getvalue()

    def write_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())

    @classmethod
    def from_csv(cls, path) -> "NormSeries":
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        if not rows or not rows[0] or rows[0][0] != "t":
            raise ValueError("series CSV must start with a 't' header column")
        labels = rows[0][1:]
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("series CSV needs unique, nonempty norm columns")
        body, width = rows[1:], len(labels) + 1
        for row in body:
            if len(row) != width:
                raise ValueError(f"series CSV row width {len(row)} != {width}")
        # float() of each cell, then one contiguous array per column
        times, *cols = np.array(body, dtype=float).reshape(len(body), width).T.copy()
        return cls(times, dict(zip(labels, cols)))


# ---------------------------------------------------------------------------
# closed-form decay envelopes


def gronwall_envelope(y0: float, rate: float, m: float, t):
    """Exact solution of y' = -rate * y^m, y(0) = y0 >= 0, evaluated at t >= 0.

    m > 1: algebraic decay; m = 1: exponential; m < 1: hits zero at the
    finite time y0^(1-m) / (rate (1-m)) and stays there.
    """
    if y0 < 0.0:
        raise ValueError("y0 must be >= 0")
    if rate <= 0.0:
        raise ValueError("rate must be > 0")
    if m <= 0.0:
        raise ValueError("exponent m must be > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    scalar = np.isscalar(t) or t_arr.ndim == 0
    if m == 1.0:
        out = y0 * np.exp(-rate * t_arr)
    elif m > 1.0:
        if y0 == 0.0:
            out = np.zeros_like(t_arr)
        else:
            out = (y0 ** (1.0 - m) + rate * (m - 1.0) * t_arr) ** (-1.0 / (m - 1.0))
    else:
        base = np.maximum(y0 ** (1.0 - m) - rate * (1.0 - m) * t_arr, 0.0)
        out = base ** (1.0 / (1.0 - m))
    return float(out) if scalar else out


def envelope_extinction_time(y0: float, rate: float, m: float) -> float:
    """Time at which the m < 1 envelope reaches zero."""
    if not m < 1.0:
        raise ValueError(f"finite extinction needs m < 1, got m={m}")
    if rate <= 0.0:
        raise ValueError("rate must be > 0")
    if y0 < 0.0:
        raise ValueError("y0 must be >= 0")
    return y0 ** (1.0 - m) / (rate * (1.0 - m))


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class FitResult:
    label: str
    kind: str  # "power": log v vs log t; "exponential": log v vs t
    slope: float
    intercept: float
    residual_rms: float
    n_points: int
    window: tuple

    @property
    def rate(self) -> float:
        """Decay rate for exponential fits (-slope)."""
        return -self.slope

    def to_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def _window_select(series: NormSeries, label: str, window, positive_t: bool):
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"bad window {window}")
    t = series.times
    v = series.column(label)
    mask = (t >= lo) & (t <= hi)
    if positive_t:
        mask &= t > 0.0
    return t[mask], v[mask], (lo, hi)


def _ls_fit(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def _fit(series: NormSeries, label: str, window, floor: float, kind: str) -> FitResult:
    """Least squares slope of log(value) against log(t) ("power") or t inside the window."""
    power = kind == "power"
    t, v, win = _window_select(series, label, window, positive_t=power)
    if np.any(v <= floor):
        raise DegenerateWindowError(
            f"column {label!r} touches the floor {floor} inside window {win}"
        )
    if t.size < 8:
        raise InsufficientDataError(f"need >= 8 samples in window {win}, got {t.size}")
    slope, intercept, rms = _ls_fit(np.log(t) if power else t, np.log(v))
    return FitResult(label, kind, slope, intercept, rms, int(t.size), win)


def fit_power_decay(
    series: NormSeries, label: str, window, floor: float = 0.0
) -> FitResult:
    """Least squares slope of log(value) against log(t) inside the window."""
    return _fit(series, label, window, floor, "power")


def fit_exponential_decay(
    series: NormSeries, label: str, window, floor: float = 0.0
) -> FitResult:
    """Least squares slope of log(value) against t inside the window."""
    return _fit(series, label, window, floor, "exponential")


# ---------------------------------------------------------------------------
# envelope domination checks and rate calibration


@dataclass
class EnvelopeReport:
    passed: bool
    n_checked: int
    vacuous: bool
    violations: list = dc_field(default_factory=list)


def check_envelope(
    series: NormSeries,
    label: str,
    bound: Callable,
    slack: float = 1.0,
    window=None,
    atol: float = 0.0,
) -> EnvelopeReport:
    """Verify measured <= slack * bound(t) (+ atol) at every sample t in the window (start < end)."""
    if slack <= 0.0:
        raise ValueError("slack must be > 0")
    if window is None:
        t, v = series.times, series.column(label)
    else:
        t, v, _ = _window_select(series, label, window, positive_t=False)
    b = np.asarray(bound(t), dtype=float)
    if b.shape != t.shape:
        raise ValueError("bound values must match the selected samples")
    bad = v > slack * b + atol
    violations = [(float(ti), float(vi), float(bi)) for ti, vi, bi in zip(t[bad], v[bad], b[bad])]
    return EnvelopeReport(
        passed=not violations,
        n_checked=int(t.size),
        vacuous=t.size == 0,
        violations=violations,
    )


def calibrate_decay_rate(series: NormSeries, label: str, m: float) -> float:
    """Weakest per-interval Gronwall rate consistent with the measured series.

    In the linearizing variable z = v^(1-m) (z = log v for m = 1) each
    consecutive sample pair yields the exact rate that reproduces the drop
    over that interval; the minimum over pairs gives an envelope that
    dominates the whole series by telescoping.  Pairs starting at zero are
    skipped; for m >= 1 pairs ending at zero are too (z is not finite there).
    """
    if m <= 0.0:
        raise ValueError("exponent m must be > 0")
    t = series.times
    v = series.column(label)
    rates = []
    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        if dt <= 0.0 or v[i] <= 0.0:
            continue
        if m >= 1.0 and v[i + 1] <= 0.0:
            continue
        if m == 1.0:
            rates.append((math.log(v[i]) - math.log(v[i + 1])) / dt)
        else:
            z0, z1 = v[i] ** (1.0 - m), v[i + 1] ** (1.0 - m)
            rates.append((z1 - z0) / ((m - 1.0) * dt))
    if not rates:
        raise InsufficientDataError("no usable sample pairs for rate calibration")
    return float(min(rates))


def truncation_level_for(values, sigma: float, target: float, weight: float) -> float:
    """Smallest level k whose excess-part sigma-power, with node weight, is at or below target."""
    if target <= 0.0:
        raise ValueError("target must be > 0")
    if sigma < 1.0:
        raise ValueError("sigma must be >= 1")
    values, w = np.asarray(values, dtype=float), float(weight)

    def power(k):
        return _power_sum(np.abs(truncate_excess(values, k)), sigma) * w

    if power(0.0) <= target:
        return 0.0
    lo, hi = 0.0, float(np.max(np.abs(values)))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if power(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
