import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decaylab.regime import (
    NonPositiveRateError,
    ProblemParams,
    Regime,
    beta_exponent,
    classify,
    decay_prediction,
    delta_threshold,
    lambda_rate,
    nu_exponent,
    regime_thresholds,
    regularizing_exponents,
    sigma_exponent,
    sup_decay_exponents,
    universal_sup_exponent,
)
from decaylab.metrics import envelope_extinction_time, gronwall_envelope


def test_sigma_frozen_values():
    assert sigma_exponent(2.0, 1.5, 3) == pytest.approx(3.0, rel=1e-14)
    assert sigma_exponent(1.1, 1.05, 3) == pytest.approx(57.0, rel=1e-11)
    # q = p - 1 is the zero crossing, below it sigma is negative
    assert sigma_exponent(2.5, 1.5, 4) == pytest.approx(0.0, abs=1e-14)
    assert sigma_exponent(2.5, 1.2, 4) < 0.0
    with pytest.raises(ValueError):
        sigma_exponent(2.0, 2.0, 3)


def test_sigma_monotone_in_q():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, 4.0))
        qs = np.sort(rng.uniform(0.01, p - 1e-3, size=6))
        vals = [sigma_exponent(p, q, n) for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_nu_is_clamped_sigma():
    assert nu_exponent(2.0, 1.5, 3) == 3.0
    assert nu_exponent(2.0, 1.2, 3) == 1.0  # formula value 0.75


def test_beta_frozen_values():
    assert beta_exponent(2.0, 3.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_exponent(3.0, 1.8) == pytest.approx(2.8 / 1.8, rel=1e-14)
    with pytest.raises(ValueError):
        beta_exponent(0.5, 2.0)


def test_thresholds_frozen_values():
    thr = regime_thresholds(2.0, 3)
    assert thr.q_lower == pytest.approx(1.0, rel=1e-14)
    assert thr.q_l1 == pytest.approx(1.25, rel=1e-14)
    assert thr.q_l2 == pytest.approx(1.4, rel=1e-14)
    assert thr.p_l1_lower == pytest.approx(1.5, rel=1e-14)
    thr = regime_thresholds(3.0, 4)
    assert thr.q_lower == pytest.approx(11.0 / 6.0, rel=1e-14)
    assert thr.q_l1 == pytest.approx(2.2, rel=1e-14)
    assert thr.q_l2 == pytest.approx(3.0 - 2.0 / 3.0, rel=1e-14)


def test_threshold_ordering_and_landmarks():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, n - 1e-3))
        thr = regime_thresholds(p, n)
        # the landmark values invert the sigma formula exactly
        assert sigma_exponent(p, thr.q_l1, n) == pytest.approx(1.0, abs=1e-9)
        assert sigma_exponent(p, thr.q_l2, n) == pytest.approx(2.0, abs=1e-9)
        assert thr.q_l1 < thr.q_l2 < p
        # the L^1 window (q_lower, q_l1) is nonempty iff p > 2N/(N+1)
        if p > thr.p_l1_lower + 1e-9:
            assert thr.q_lower < thr.q_l1
        elif p < thr.p_l1_lower - 1e-9:
            assert thr.q_lower >= thr.q_l1


def test_sigma_ge_one_iff_q_above_l1_landmark():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(0.01, p - 1e-3))
        thr = regime_thresholds(p, n)
        sig = sigma_exponent(p, q, n)
        assert (sig >= 1.0) == (q >= thr.q_l1)


def test_coercivity_equivalence_sigma_form():
    # q > p/2  <=>  p > 2N/(N + sigma_formula), identically on the whole range
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(0.01, p - 1e-3))
        sig = sigma_exponent(p, q, n)
        assert n + sig > 0.0  # denominator never degenerates
        lhs = q > p / 2.0
        rhs = p > 2.0 * n / (n + sig)
        if abs(q - p / 2.0) > 1e-9:  # stay off the boundary
            assert lhs == rhs, (p, q, n, sig)


def test_coercivity_equivalence_nu_form_restricted():
    # with nu = max(1, sigma) the equivalence only survives where sigma >= 1
    rng = np.random.default_rng(19)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(0.01, p - 1e-3))
        sig = sigma_exponent(p, q, n)
        if sig < 1.0 or abs(q - p / 2.0) <= 1e-9:
            continue
        nu = max(1.0, sig)
        assert (q > p / 2.0) == (p > 2.0 * n / (n + nu))
    # and a concrete witness that the clamped form fails in general
    p, q, n = 1.9, 0.9, 3
    nu = max(1.0, sigma_exponent(p, q, n))
    assert not q > p / 2.0
    assert p > 2.0 * n / (n + nu)


def test_finite_energy_flag_against_sigma_two():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n = int(rng.integers(3, 7))
        p = float(rng.uniform(1.01, n - 1e-3))
        q = float(rng.uniform(0.01, p - 1e-3))
        rep = classify(ProblemParams(p=p, q=q, dim_n=n, gamma=1.0))
        if rep.regime is Regime.OUT_OF_RANGE:
            continue
        sig = rep.sigma_formula
        if rep.finite_energy:
            assert sig >= 2.0 - 1e-9, (p, q, n, sig)
        if sig >= 2.0 + 1e-9 and p > 2.0 * n / (n + 2.0) + 1e-9:
            assert rep.finite_energy, (p, q, n, sig)


def test_classify_frozen_examples():
    rep = classify(ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=1.0))
    assert rep.regime is Regime.SUPERLINEAR_SIGMA
    assert rep.sigma == pytest.approx(3.0, rel=1e-12)
    assert rep.beta == pytest.approx(1.5, rel=1e-12)
    assert rep.finite_energy

    rep = classify(ProblemParams(p=2.0, q=1.2, dim_n=3, gamma=1.0))
    assert rep.regime is Regime.SUPERLINEAR_L1
    assert rep.sigma == 1.0
    assert rep.sigma_formula == pytest.approx(0.75, rel=1e-12)
    assert not rep.finite_energy

    rep = classify(ProblemParams(p=2.0, q=0.8, dim_n=3, gamma=1.0))
    assert rep.regime is Regime.SUBLINEAR

    rep = classify(ProblemParams(p=2.0, q=1.25, dim_n=3, gamma=1.0))
    assert rep.regime is Regime.CRITICAL_L1
    assert rep.sigma == pytest.approx(1.1, rel=1e-12)
    rep = classify(ProblemParams(p=2.0, q=1.25, dim_n=3, gamma=1.0), critical_omega=0.25)
    assert rep.sigma == pytest.approx(1.25, rel=1e-12)

    rep = classify(ProblemParams(p=1.1, q=1.05, dim_n=3, gamma=1.0), data_nu=1.0)
    assert rep.regime is Regime.NONEXISTENCE_RISK
    assert rep.sigma == pytest.approx(57.0, rel=1e-11)
    rep = classify(ProblemParams(p=1.1, q=1.05, dim_n=3, gamma=1.0), data_nu=60.0)
    assert rep.regime is Regime.SUPERLINEAR_SIGMA

    assert classify(ProblemParams(p=3.0, q=2.0, dim_n=3)).regime is Regime.OUT_OF_RANGE
    assert classify(ProblemParams(p=2.0, q=2.0, dim_n=3)).regime is Regime.OUT_OF_RANGE
    assert classify(ProblemParams(p=2.0, q=2.5, dim_n=3)).regime is Regime.OUT_OF_RANGE


def test_classify_total_and_json_friendly():
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(0.01, p + 1.0))
        nu = float(rng.uniform(0.5, 5.0)) if rng.random() < 0.5 else None
        rep = classify(ProblemParams(p=p, q=q, dim_n=n, gamma=1.0), data_nu=nu)
        seen.add(rep.regime)
        d = rep.to_dict()
        assert d["regime"] == rep.regime.value
        if rep.regime is not Regime.OUT_OF_RANGE:
            assert rep.sigma >= 1.0 or rep.regime is Regime.NONEXISTENCE_RISK
    assert Regime.OUT_OF_RANGE in seen and Regime.SUBLINEAR in seen


def test_classify_snaps_critical_line():
    thr = regime_thresholds(2.0, 3)
    rep = classify(ProblemParams(p=2.0, q=thr.q_l1 + 5e-13, dim_n=3, gamma=1.0))
    assert rep.regime is Regime.CRITICAL_L1


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(p=1.0, q=0.5, dim_n=3)
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, q=0.0, dim_n=3)
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, q=1.0, dim_n=1)
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, q=1.0, dim_n=3, gamma=-0.1)
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, q=1.0, dim_n=3, alpha=2.0, lambda_upper=1.0)


@pytest.mark.parametrize("name", ["p", "q", "gamma", "alpha", "lambda_upper", "sobolev_const", "measure"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_numbers(name, value):
    # NaN passes every `x < bound` test, so a NaN gamma used to run as gamma = 0
    with pytest.raises(ValueError, match=f"{name} must be finite|lambda_upper, both finite"):
        ProblemParams(**{"p": 2.0, "q": 1.0, "dim_n": 3, name: value})


@pytest.mark.parametrize("dim_n", [math.nan, math.inf, 2.5])
def test_params_reject_a_dimension_that_is_not_an_integer(dim_n):
    with pytest.raises(ValueError, match="dim_n"):
        ProblemParams(p=2.0, q=1.0, dim_n=dim_n)


def test_data_sigma_is_sigma_only_where_the_regime_has_one():
    cases = [
        (ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=1.0), Regime.SUPERLINEAR_SIGMA, 3.0),
        (ProblemParams(p=2.0, q=1.1, dim_n=3, gamma=1.0), Regime.SUPERLINEAR_L1, 1.0),
        (ProblemParams(p=2.0, q=1.25, dim_n=3, gamma=1.0), Regime.CRITICAL_L1, 1.1),
        (ProblemParams(p=2.0, q=0.8, dim_n=3, gamma=1.0), Regime.SUBLINEAR, None),
        (ProblemParams(p=2.0, q=2.5, dim_n=3, gamma=1.0), Regime.OUT_OF_RANGE, None),
    ]
    for params, regime, sigma in cases:
        report = classify(params)
        assert report.regime is regime
        assert report.data_sigma == (None if sigma is None else pytest.approx(sigma))
        assert "data_sigma" not in report.to_dict()
    risk = classify(ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=1.0), data_nu=1.0)
    assert risk.regime is Regime.NONEXISTENCE_RISK and risk.data_sigma is None


def test_delta_threshold_frozen():
    params = ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=1.0)
    assert delta_threshold(params) == pytest.approx(1.0 / 64.0, rel=1e-14)
    assert math.isinf(delta_threshold(ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=0.0)))
    params = ProblemParams(
        p=2.0, q=1.5, dim_n=3, gamma=0.5, alpha=2.0, lambda_upper=2.0, sobolev_const=2.0
    )
    assert delta_threshold(params) == pytest.approx(1.0, rel=1e-14)


def test_lambda_rate_frozen():
    params = ProblemParams(p=2.0, q=1.0, dim_n=2, gamma=1.0)
    assert lambda_rate(params, 2.0, 0.25) == pytest.approx(1.0, rel=1e-14)
    # measure exponent -(N(p-2) + p*sigma)/(N*sigma) = -1 here
    params = ProblemParams(p=2.0, q=1.0, dim_n=2, gamma=1.0, measure=2.0)
    assert lambda_rate(params, 2.0, 0.25) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(NonPositiveRateError):
        lambda_rate(ProblemParams(p=2.0, q=1.0, dim_n=2, gamma=1.0), 2.0, 100.0)
    with pytest.raises(ValueError):
        lambda_rate(ProblemParams(p=2.0, q=1.0, dim_n=2, gamma=1.0), 0.5, 0.1)


def test_delta_threshold_keeps_half_the_bracket():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.2, 4.0))
        q = float(rng.uniform(0.1, p - 0.05))
        gamma = float(rng.uniform(0.01, 5.0))
        alpha = float(rng.uniform(0.1, 2.0))
        cs = float(rng.uniform(0.1, 3.0))
        params = ProblemParams(
            p=p, q=q, dim_n=n, gamma=gamma, alpha=alpha, lambda_upper=alpha + 1.0,
            sobolev_const=cs,
        )
        d0 = delta_threshold(params)
        bracket = alpha - gamma * cs * d0 ** ((p - q) / n)
        assert bracket == pytest.approx(alpha / 2.0, rel=1e-9)
        # any smaller level keeps a positive rate
        assert lambda_rate(params, max(1.0, 2.0), d0 * 0.5) > 0.0


def test_sup_decay_exponents_frozen():
    h0, h1 = sup_decay_exponents(3.0, 2.0, 3)
    assert h0 == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert h1 == pytest.approx(1.0 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        sup_decay_exponents(1.5, 0.5, 3)


def test_universal_sup_exponent():
    assert universal_sup_exponent(3.0) == pytest.approx(1.0, rel=1e-14)
    assert universal_sup_exponent(4.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        universal_sup_exponent(2.0)


def test_regularizing_frozen():
    de, te = regularizing_exponents(2.0, 3.0, 4.0, 3)
    assert de == pytest.approx(4.0, rel=1e-14)
    assert te == pytest.approx(0.5, rel=1e-14)
    de, te = regularizing_exponents(2.0, 2.0, 4.0, 3)
    assert (de, te) == pytest.approx((4.0, 1.5))
    with pytest.raises(ValueError):
        regularizing_exponents(2.0, 4.0, 3.0, 3)  # r <= sigma


def test_decay_prediction_extinction_frozen():
    # calibrate alpha so the contraction rate is exactly 1, then T = 15
    p, sigma = 1.8, 3.0
    beta = beta_exponent(sigma, p)
    alpha = beta**p / sigma
    params = ProblemParams(p=p, q=1.0, dim_n=3, gamma=0.0, alpha=alpha, lambda_upper=1.0)
    pred = decay_prediction(params, sigma, smallness=0.0, y0=1.0)
    assert pred.lambda_rate == pytest.approx(1.0, rel=1e-12)
    assert pred.extinction_time == pytest.approx(15.0, rel=1e-12)
    assert pred.gronwall_m == pytest.approx(2.8 / 3.0, rel=1e-12)
    assert pred.universal_exponent is None
    assert not pred.exponential_degenerate
    assert pred.norm_m == pytest.approx(0.8, rel=1e-14)


def test_decay_prediction_degenerate_and_heat():
    params = ProblemParams(p=3.0, q=2.0, dim_n=3, gamma=0.0)
    pred = decay_prediction(params, 2.0, smallness=0.0, y0=1.0)
    assert (pred.h0, pred.h1) == pytest.approx((2.0 / 3.0, 1.0 / 3.0))
    assert pred.universal_exponent == pytest.approx(1.0)
    assert pred.extinction_time is None
    assert pred.gronwall_m == pytest.approx(1.5, rel=1e-14)

    params = ProblemParams(p=2.0, q=1.5, dim_n=3, gamma=0.0)
    pred = decay_prediction(params, 2.0, smallness=0.0, y0=1.0)
    assert pred.exponential_degenerate
    assert pred.universal_exponent is None and pred.extinction_time is None
    assert pred.gronwall_m == pytest.approx(1.0, rel=1e-14)


def test_prediction_envelope_variable_change():
    # the sigma-power envelope and the norm envelope describe the same curve
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = float(rng.uniform(1.2, 3.5))
        sigma_lo = max(1.0, 3.0 * (2.0 - p) / p + 0.05)
        sigma = float(rng.uniform(sigma_lo, sigma_lo + 3.0))
        y0 = float(rng.uniform(0.1, 5.0))
        params = ProblemParams(p=p, q=p / 2.0, dim_n=3, gamma=0.0)
        pred = decay_prediction(params, sigma, smallness=0.0, y0=y0)
        ts = rng.uniform(0.0, 2.0, size=8)
        y_env = gronwall_envelope(y0**sigma, pred.lambda_rate, pred.gronwall_m, ts)
        x_env = gronwall_envelope(y0, pred.norm_rate, pred.norm_m, ts)
        assert np.allclose(y_env, np.asarray(x_env) ** sigma, rtol=1e-9, atol=1e-12)
        if p < 2.0:
            t_y = envelope_extinction_time(y0**sigma, pred.lambda_rate, pred.gronwall_m)
            t_x = envelope_extinction_time(y0, pred.norm_rate, pred.norm_m)
            assert t_y == pytest.approx(t_x, rel=1e-9)
            assert pred.extinction_time == pytest.approx(t_x, rel=1e-9)


# The scaling group behind the exponent calculus, derived here and not read
# from regime.py.  For gamma = 0, v(t, x) = mu u(mu^(p-2) lam^p t, lam x) maps
# solutions to solutions; with the source gamma |grad u|^q it also needs
# mu^(q-p+1) = lam^(p-q).  Writing mu = e^m and lam = e^l, a quantity of v is
# e^(a m + b l) times the same quantity of u, and (a, b) is its exponent pair.


def _time_pair(p):
    return (2.0 - p, -p)  # t_v = mu^(2-p) lam^(-p) t_u


def _norm_pair(r, n):
    return (1.0, -n / r)  # ||v||_r; the sup norm is r = inf


def _scales_alike(lhs, data, data_exp, time, time_exp) -> bool:
    """Whether lhs scales as data^data_exp t^(-time_exp), to 1e-12: the bound
    lhs <= C data^data_exp t^(-time_exp) is then invariant under the group."""
    rhs = [data_exp * d - time_exp * t for d, t in zip(data, time)]
    return all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(lhs, rhs))


@settings(max_examples=300)
@given(
    p=st.floats(1.2, 6.0),
    theta=st.floats(0.05, 0.95),
    n=st.integers(2, 5),
    sigma=st.floats(1.0, 20.0),
    excess=st.floats(0.1, 20.0),
)
def test_exponents_make_the_bounds_scale_invariant(p, theta, n, sigma, excess):
    # sigma_exponent: the one order whose norm the source subgroup leaves
    # invariant; q = p - 1 + theta keeps that subgroup's mu exponent finite
    q = p - 1.0 + theta
    mu_per_lam = (p - q) / (q - p + 1.0)
    a, b = _norm_pair(sigma_exponent(p, q, n), n)
    assert math.isclose(a * mu_per_lam + b, 0.0, abs_tol=1e-12)

    assume(n * (p - 2.0) + p * sigma > 0.5)  # both truncation bounds need N(p-2) + p sigma > 0
    g0, time = _norm_pair(sigma, n), _time_pair(p)
    # sup |G_k(u(t))| <= C g0^A t^-B: A + (p-2)B = 1 and pB = NA/sigma
    data_exp, time_exp = sup_decay_exponents(p, sigma, n)
    assert _scales_alike(_norm_pair(math.inf, n), g0, data_exp, time, time_exp)
    # ||G_k(u(t))||_r^r <= C g0^A t^-B, r > sigma
    r = sigma + excess
    data_exp, time_exp = regularizing_exponents(p, sigma, r, n)
    assert _scales_alike((r, -n), g0, data_exp, time, time_exp)

    # the datum-free sup bound C t^-B on a fixed domain: lam = 1, so only mu counts
    if p > 2.05:
        assert _scales_alike(_norm_pair(math.inf, n)[:1], (0.0,), 0.0, time[:1], universal_sup_exponent(p))

    # lambda_rate is a rate of the sigma-power Y, so it scales as 1 / (t Y^((p-2)/sigma)),
    # with Y = ||u||_sigma^sigma; the domain's measure scales as lam^-N
    y = (sigma, -n)
    rate = [-t - (p - 2.0) / sigma * c for t, c in zip(time, y)]
    assert math.isclose(rate[0], 0.0, abs_tol=1e-12)  # no rate depends on the data's size
    params = [ProblemParams(p=p, q=p / 2.0, dim_n=n, measure=m) for m in (1.0, 2.0)]
    measure_exp = math.log2(lambda_rate(params[1], sigma, 0.0) / lambda_rate(params[0], sigma, 0.0))
    assert math.isclose(measure_exp * -n, rate[1], rel_tol=1e-12, abs_tol=1e-12)
