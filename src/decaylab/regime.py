"""Structural exponents, regime classification and closed-form decay predictions.

The model problem is

    u_t - div( A(t,x) |grad u|^(p-2) grad u ) = gamma |grad u|^q

on a bounded box with homogeneous Dirichlet data, p > 1, 0 < q < p, gamma >= 0.
This module is pure exponent arithmetic: it decides in which growth regime the
gradient source falls, computes the summability threshold the initial datum
must satisfy, and assembles the decay / extinction rates that the simulation
side is verified against.  No grids are involved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, asdict
from typing import Optional

from .fileio import _number_fields

# comparisons against regime boundaries snap within this tolerance
BOUNDARY_TOL = 1e-12


class NonPositiveRateError(ValueError):
    """Requested smallness level leaves no positive contraction rate."""


class Regime(enum.Enum):
    SUBLINEAR = "sublinear"
    SUPERLINEAR_SIGMA = "superlinear_sigma"
    SUPERLINEAR_L1 = "superlinear_l1"
    CRITICAL_L1 = "critical_l1"
    NONEXISTENCE_RISK = "nonexistence_risk"
    OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class ProblemParams:
    """Structural data of the model problem.

    p: diffusion exponent (> 1; degenerate for p > 2, singular for p < 2)
    q: source growth exponent (> 0; q >= p is constructible so classify()
       can answer out_of_range, but every quantitative routine needs q < p)
    dim_n: space dimension entering the exponent formulas (integer >= 2)
    gamma: source strength (>= 0, 0 disables the source)
    alpha, lambda_upper: ellipticity bounds; run() checks the coefficient against them
    sobolev_const: embedding constant entering the contraction rate
    measure: volume of the domain
    """

    p: float
    q: float
    dim_n: int
    gamma: float = 0.0
    alpha: float = 1.0
    lambda_upper: float = 1.0
    sobolev_const: float = 1.0
    measure: float = 1.0

    def __post_init__(self):
        _number_fields(self)
        # every test is written so that NaN fails it
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        if not 0.0 < self.q < math.inf:
            raise ValueError(f"q must be finite and > 0, got {self.q}")
        if not self.dim_n >= 2:
            raise ValueError(f"dim_n must be an integer >= 2, got {self.dim_n}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.alpha <= self.lambda_upper < math.inf:
            raise ValueError(
                f"need 0 < alpha <= lambda_upper, both finite; got {self.alpha}, {self.lambda_upper}"
            )
        if not 0.0 < self.sobolev_const < math.inf:
            raise ValueError(f"sobolev_const must be finite and > 0, got {self.sobolev_const}")
        if not 0.0 < self.measure < math.inf:
            raise ValueError(f"measure must be finite and > 0, got {self.measure}")


@dataclass(frozen=True)
class Thresholds:
    """The q-axis landmarks for a given (p, N).

    q_lower: upper edge of the sublinear range, max{p/2, (p(N+1)-N)/(N+2)}
    q_l1: q at which the summability threshold equals 1 (L^1 data), p - N/(N+1)
    q_l2: q at which it equals 2 (finite-energy data), p - N/(N+2)
    p_l1_lower: least p for which the L^1 range is nonempty, 2N/(N+1)
    """

    q_lower: float
    q_l1: float
    q_l2: float
    p_l1_lower: float


def regime_thresholds(p: float, dim_n: int) -> Thresholds:
    n = float(dim_n)
    return Thresholds(
        q_lower=max(p / 2.0, (p * (n + 1.0) - n) / (n + 2.0)),
        q_l1=p - n / (n + 1.0),
        q_l2=p - n / (n + 2.0),
        p_l1_lower=2.0 * n / (n + 1.0),
    )


def sigma_exponent(p: float, q: float, dim_n: int) -> float:
    """Summability threshold N(q - (p-1))/(p - q) of the initial datum.

    Data in L^sigma (sigma >= 1) are exactly critical for the source strength;
    the value is negative or zero when q <= p - 1 (source weaker than the
    diffusion scaling) and grows to +inf as q -> p.
    """
    if not q < p:
        raise ValueError(f"sigma exponent needs q < p, got q={q}, p={p}")
    return dim_n * (q - (p - 1.0)) / (p - q)


def nu_exponent(p: float, q: float, dim_n: int) -> float:
    """Data exponent actually used: max(1, sigma)."""
    return max(1.0, sigma_exponent(p, q, dim_n))


def beta_exponent(sigma: float, p: float) -> float:
    """Level-energy exponent (sigma + p - 2)/p of the truncation estimates."""
    if sigma < 1.0:
        raise ValueError(f"beta_exponent needs sigma >= 1, got {sigma}")
    return (sigma + p - 2.0) / p


@dataclass(frozen=True)
class RegimeReport:
    """Classification output, flat and JSON-friendly.

    sigma is the effective data exponent for the detected regime (the raw
    formula value is kept in sigma_formula; it can be <= 0 when the source
    is weak).  On the critical line sigma is bumped to 1 + critical_omega.
    """

    regime: Regime
    sigma: float
    sigma_formula: float
    nu: float
    beta: float
    finite_energy: bool
    q_lower: float
    q_l1: float
    q_l2: float
    p_lower: float

    @property
    def data_sigma(self) -> Optional[float]:
        """sigma for the regimes whose data have an exponent of their own, else None."""
        if self.regime in (Regime.SUPERLINEAR_SIGMA, Regime.SUPERLINEAR_L1, Regime.CRITICAL_L1):
            return self.sigma
        return None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["regime"] = self.regime.value
        return d


def _finite_energy(p: float, q: float, dim_n: int, sigma_formula: float, q_l2: float) -> bool:
    n = float(dim_n)
    branch_a = q >= q_l2 - BOUNDARY_TOL and 2.0 * n / (n + 2.0) < p < n
    branch_b = (
        q > p / 2.0
        and sigma_formula > 0.0
        and p > 2.0 * n / (n + sigma_formula)
        and p <= 2.0 * n / (n + 2.0)
    )
    return bool(branch_a or branch_b)


def classify(
    params: ProblemParams,
    data_nu: Optional[float] = None,
    critical_omega: float = 0.1,
) -> RegimeReport:
    """Total regime classification of (p, q, N) with optional declared data space.

    data_nu: exponent of the space the initial datum is declared to live in.
        When the source is superlinear and data_nu is below the summability
        threshold, the outcome is NONEXISTENCE_RISK (solutions are not
        expected for such data).  None means "compatible data assumed".
    critical_omega: on the critical L^1 line the effective sigma is 1 + omega.
    """
    p, q, n = params.p, params.q, float(params.dim_n)
    thr = regime_thresholds(p, params.dim_n)

    def report(regime, sigma_eff, sigma_formula):
        nu = max(1.0, sigma_formula) if math.isfinite(sigma_formula) else float("nan")
        return RegimeReport(
            regime=regime,
            sigma=sigma_eff,
            sigma_formula=sigma_formula,
            nu=nu,
            beta=(sigma_eff + p - 2.0) / p if math.isfinite(sigma_eff) else float("nan"),
            finite_energy=_finite_energy(p, q, params.dim_n, sigma_formula, thr.q_l2)
            if math.isfinite(sigma_formula)
            else False,
            q_lower=thr.q_lower,
            q_l1=thr.q_l1,
            q_l2=thr.q_l2,
            p_lower=2.0 * n / (n + nu),  # nan when nu is
        )

    nan = float("nan")
    if p <= 1.0 or p >= n or q <= 0.0 or q >= p:
        return report(Regime.OUT_OF_RANGE, nan, nan)

    sig = sigma_exponent(p, q, params.dim_n)

    # critical L^1 line: q exactly at the sigma = 1 landmark (within BOUNDARY_TOL)
    if abs(q - thr.q_l1) <= BOUNDARY_TOL and p > thr.p_l1_lower:
        return report(Regime.CRITICAL_L1, 1.0 + critical_omega, sig)

    if q <= thr.q_lower + BOUNDARY_TOL:
        return report(Regime.SUBLINEAR, max(1.0, sig), sig)

    # superlinear from here on
    if data_nu is not None and data_nu < sig - BOUNDARY_TOL:
        return report(Regime.NONEXISTENCE_RISK, sig, sig)

    if q > thr.q_l1:
        return report(Regime.SUPERLINEAR_SIGMA, sig, sig)
    return report(Regime.SUPERLINEAR_L1, 1.0, sig)


def delta_threshold(params: ProblemParams) -> float:
    """Smallness level for the sigma-power of the truncated datum.

    Any level at or below this keeps at least half the ellipticity bound in
    the contraction bracket.  Infinite when gamma = 0 (no source).
    """
    if not params.q < params.p:
        raise ValueError("delta_threshold needs q < p")
    if params.gamma == 0.0:
        return float("inf")
    base = params.alpha / (2.0 * params.gamma * params.sobolev_const)
    return base ** (params.dim_n / (params.p - params.q))


def lambda_rate(params: ProblemParams, sigma: float, smallness: float) -> float:
    """Contraction rate of the sigma-power ODE for truncated solutions.

    smallness: either the level-smallness bound on the sigma-power of the
        truncated datum, or the sup norm of the solution when the whole
        solution is being contracted.  Both enter through the same bracket
        alpha - gamma * c_S * smallness^((p-q)/N).

    Raises NonPositiveRateError when the bracket is not positive.
    """
    p, n = params.p, float(params.dim_n)
    if not 1.0 <= sigma < math.inf:
        raise ValueError(f"lambda_rate needs a finite sigma >= 1, got {sigma}")
    if not smallness >= 0.0:
        raise ValueError(f"smallness must be >= 0, got {smallness}")
    if params.gamma > 0.0 and not params.q < p:
        raise ValueError("lambda_rate needs q < p when gamma > 0")
    beta = beta_exponent(sigma, p)
    if params.gamma == 0.0:
        bracket = params.alpha
    else:
        bracket = params.alpha - params.gamma * params.sobolev_const * smallness ** (
            (p - params.q) / n
        )
    if bracket <= 0.0:
        raise NonPositiveRateError(
            f"no positive contraction rate: bracket {bracket} <= 0 "
            f"(smallness {smallness} too large for gamma {params.gamma})"
        )
    measure_exp = -(n * (p - 2.0) + p * sigma) / (n * sigma)
    return (
        params.sobolev_const
        * sigma
        / beta**p
        * bracket
        * params.measure**measure_exp
    )


def _scaling_denominator(p: float, sigma: float, n: float) -> float:
    """N(p-2) + p*sigma, the denominator of the truncation-bound exponents; ValueError unless > 0."""
    d = n * (p - 2.0) + p * sigma
    if d <= 0.0:
        raise ValueError(f"need N(p-2) + p*sigma > 0, got {d}")
    return d


def sup_decay_exponents(p: float, sigma: float, dim_n: int) -> tuple:
    """(data_exponent, time_exponent) of the sup bound on truncations:

        sup |G_k(u(t))| <= C * g0^data_exponent / t^time_exponent

    with g0 the sigma norm of the truncated datum.
    """
    n = float(dim_n)
    d = _scaling_denominator(p, sigma, n)
    return (p * sigma / d, n / d)


def universal_sup_exponent(p: float) -> float:
    """Time exponent 1/(p-2) of the datum-free sup bound (degenerate case only)."""
    if not p > 2.0:
        raise ValueError(f"universal sup bound needs p > 2, got {p}")
    return 1.0 / (p - 2.0)


def regularizing_exponents(p: float, sigma: float, r: float, dim_n: int) -> tuple:
    """(data_exponent, time_exponent) of the smoothing bound on truncations:

        ||G_k(u(t))||_r^r <= C * g0^data_exponent / t^time_exponent

    with g0 the sigma norm of the truncated datum and r > sigma.
    """
    n = float(dim_n)
    if not r > sigma:
        raise ValueError(f"regularizing bound needs r > sigma, got r={r}, sigma={sigma}")
    d = _scaling_denominator(p, sigma, n)
    return (sigma * (n * (p - 2.0) + p * r) / d, n * (r - sigma) / d)


@dataclass(frozen=True)
class DecayPrediction:
    """Closed-form decay forecast for the sigma norm of (truncated) solutions.

    The sigma-power y(t) = X(t)^sigma obeys y' + lambda_rate * y^gronwall_m <= 0,
    equivalently the norm X obeys X' + (lambda_rate/sigma) * X^(p-1) <= 0.
    y0 is the sigma NORM at the time origin (not its sigma-th power).

    Exactly one of universal_exponent / extinction_time is set unless p = 2,
    where the decay is exponential and exponential_degenerate flags it.
    h0/h1 are the data/time exponents of the sup bound on truncations.
    """

    p: float
    sigma: float
    y0: float
    lambda_rate: float
    gronwall_m: float
    h0: float
    h1: float
    universal_exponent: Optional[float]
    extinction_time: Optional[float]
    exponential_degenerate: bool

    @property
    def norm_rate(self) -> float:
        """Rate of the sigma-norm ODE (lambda_rate / sigma)."""
        return self.lambda_rate / self.sigma

    @property
    def norm_m(self) -> float:
        """Exponent of the sigma-norm ODE (p - 1)."""
        return self.p - 1.0

    def to_dict(self) -> dict:
        return asdict(self)


def decay_prediction(
    params: ProblemParams, sigma: float, smallness: float, y0: float
) -> DecayPrediction:
    """Assemble the full decay forecast for data of sigma norm y0."""
    if not 0.0 <= y0 < math.inf:
        raise ValueError(f"y0 must be finite and >= 0, got {y0}")
    p = params.p
    lam = lambda_rate(params, sigma, smallness)
    beta = beta_exponent(sigma, p)
    h0, h1 = sup_decay_exponents(p, sigma, params.dim_n)
    universal = universal_sup_exponent(p) if p > 2.0 else None
    extinction = None
    if p < 2.0:
        extinction = sigma * y0 ** (2.0 - p) / ((2.0 - p) * lam)
    return DecayPrediction(
        p=p,
        sigma=sigma,
        y0=y0,
        lambda_rate=lam,
        gronwall_m=beta * p / sigma,
        h0=h0,
        h1=h1,
        universal_exponent=universal,
        extinction_time=extinction,
        exponential_degenerate=(p == 2.0),
    )
