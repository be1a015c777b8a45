import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from decaylab.field import _power
from decaylab.metrics import (
    DegenerateWindowError,
    InsufficientDataError,
    NormSeries,
    _power_sum,
    calibrate_decay_rate,
    check_envelope,
    envelope_extinction_time,
    fit_exponential_decay,
    fit_power_decay,
    gronwall_envelope,
    level_split,
    lr_norm,
    truncate_excess,
    truncation_level_for,
)


def test_level_split_hand_values():
    ex, cap = level_split(np.array([5.0, -5.0, 1.5, -1.5, 2.0, 0.0]), 2.0)
    assert np.array_equal(ex, [3.0, -3.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(cap, [2.0, -2.0, 1.5, -1.5, 2.0, 0.0])
    assert np.array_equal(truncate_excess([5.0], 2.0), [3.0])
    with pytest.raises(ValueError):
        level_split([1.0], -1.0)
    with pytest.raises(ValueError):
        level_split([1.0], math.inf)


def test_level_split_exact_identity_everywhere():
    # the split must reassemble exactly in floating point, for any magnitudes
    rng = np.random.default_rng(3)
    mant = rng.normal(size=200_000)
    expo = 10.0 ** rng.integers(-300, 300, size=200_000).astype(float)
    z = mant * expo
    # adversarial extras: the naive clip construction fails on the first one
    z = np.concatenate([z, [1e16 + 2.0, -1e16 - 2.0, 0.0, -0.0, 3.0, -3.0, 5e-324]])
    for k in [0.0, 3.0, 1e-20, 1e150]:
        ex, cap = level_split(z, k)
        assert np.array_equal(ex + cap, z), f"identity broken at k={k}"
        inside = np.abs(z) <= k
        assert np.all(ex[inside] == 0.0)
        # capped part stays near the level up to one ulp of z (the price of
        # exactness); inside the band it is z itself
        cap_bound = k + np.abs(z) * 2.0**-52 + np.where(inside, np.abs(z), 0.0)
        assert np.all(np.abs(cap) <= cap_bound)


def test_level_split_ordering():
    rng = np.random.default_rng(4)
    z = rng.normal(size=1000) * 10.0
    for k in [0.1, 1.0, 5.0]:
        ex, cap = level_split(z, k)
        assert np.all(np.abs(ex) <= np.abs(z) + 1e-15)
        assert np.all(np.sign(ex[ex != 0.0]) == np.sign(z[ex != 0.0]))
        # excess is monotone nonincreasing in k
        ex2, _ = level_split(z, k * 2.0)
        assert np.all(np.abs(ex2) <= np.abs(ex) + 1e-15)


def ref_excess(z, k):
    """truncate_excess as first written: 0 inside [-k, k], z - sign(z) k outside."""
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) <= k, 0.0, z - np.sign(z) * k)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, -1.0])
SIGMAS = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 3.0000000000000013, 14.0 / 3.0]), st.floats(1.0, 8.0))


@st.composite
def excess_arrays(draw):
    """|excess|-like arrays >= 0 with no zero, some zeros, or only zeros."""
    n = draw(st.integers(1, 64))
    ex = np.array(draw(st.lists(st.floats(0.0, 1e300) | EXTREMES.map(abs), min_size=n, max_size=n)))
    share = draw(st.sampled_from(["none", "some", "all"]))
    if share == "none":
        ex[ex == 0.0] = 0.5
    elif share == "some":
        ex[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    else:
        ex[:] = 0.0
    return ex


def stated_powers(x, e):
    """x ** e by _power's stated formula: sqrt(x) * x for e = 1.5, the products for e = 3 and 4,
    x ** e otherwise."""
    if e == 1.5:
        return np.sqrt(x) * x
    if e == 3.0:
        return (x * x) * x
    if e == 4.0:
        return (x * x) * (x * x)
    return x**e


@settings(max_examples=400)
@given(excess_arrays(), SIGMAS)
def test_power_sum_is_the_sum_of_powers_bitwise(ex, sigma):
    # the terms, not only their sum: a one-ulp change in a term usually
    # vanishes in the sum
    with np.errstate(over="ignore", under="ignore"):
        terms = stated_powers(ex, sigma)
        got_terms = _power(ex, sigma)
        got = _power_sum(ex, sigma)
    assert np.array_equal(_bits(got_terms), _bits(terms))
    assert _bits(got) == _bits(np.sum(terms))


# the edges of the double range: signed zeros, subnormals, the smallest
# normal, the largest finite values and the infinities
SPECIALS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
])


@settings(max_examples=400)
@given(
    st.lists(st.floats(-1e300, 1e300) | EXTREMES | SPECIALS, min_size=1, max_size=120),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0), EXTREMES.map(abs), SPECIALS.map(abs).filter(math.isfinite)),
    st.booleans(),
)
def test_truncate_excess_is_the_where_formula_bitwise(z, k, level_on_a_node):
    z = np.array(z)
    finite = z[np.isfinite(z)]
    if level_on_a_node and finite.size:
        k = abs(float(finite[len(finite) // 2]))  # |z| == k at one node: the band's edge
    with np.errstate(all="raise"):
        ex = truncate_excess(z, k)
        assert np.array_equal(_bits(ex), _bits(ref_excess(z, k)))
        grid = z[: 2 * (len(z) // 2)].reshape(2, -1)
        assert np.array_equal(_bits(truncate_excess(grid, k)), _bits(ref_excess(grid, k)))
    with np.errstate(invalid="ignore"):  # the capped part of an infinite z is inf - inf
        assert np.array_equal(_bits(ex), _bits(level_split(z, k)[0]))


def test_lr_norm_frozen_values():
    assert lr_norm(np.array([3.0, 4.0]), 2.0, weight=0.5) == pytest.approx(
        math.sqrt(12.5), rel=1e-14
    )
    ones = np.ones(4)
    assert lr_norm(ones, 1.0, 1.0 / 4) == pytest.approx(1.0, rel=1e-14)  # weight 1/n
    assert lr_norm(ones, math.inf, 1.0 / 4) == pytest.approx(1.0)
    assert lr_norm(np.array([-2.0, 1.0]), math.inf, weight=1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        lr_norm(np.array([1.0]), 0.5, weight=1.0)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 3.5, 4.0])
def test_lr_norm_sums_the_helpers_powers_bitwise(r):
    # one-entry arrays keep an ulp of the power visible through the root
    rng = np.random.default_rng(5)
    arrays = list(rng.standard_normal((2000, 1)) * 10.0 ** rng.integers(-60, 60, (2000, 1)))
    arrays += list(rng.standard_normal((20, 64)))
    for values in arrays:
        want = float(np.sum(stated_powers(np.abs(values), r)) * 0.25) ** (1.0 / r)
        assert _bits(lr_norm(values, r, 0.25)) == _bits(want), values


def test_norm_series_basics():
    s = NormSeries([0.0, 0.5, 1.0], {"linf": [1.0, 0.8, 0.6], "l1": [0.5, 0.4, 0.3]})
    assert s.labels == ["linf", "l1"]
    assert s.n == 3
    assert np.array_equal(s.column("l1"), [0.5, 0.4, 0.3])
    with pytest.raises(KeyError, match="linf"):
        s.column("nope")
    with pytest.raises(ValueError):
        NormSeries(np.array([0.0, 0.0]), {"linf": np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        NormSeries(np.array([0.0, 1.0]), {"linf": np.array([1.0])})


def test_norm_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    times = np.cumsum(rng.uniform(1e-6, 0.3, size=20))
    cols = {
        "linf": rng.uniform(size=20) * 10.0 ** rng.integers(-12, 12),
        "l1": rng.uniform(size=20),
        "gk0.25_lsigma": rng.uniform(size=20),
    }
    s = NormSeries(times, cols)
    text = s.to_csv_text()
    assert text.splitlines()[0] == "t,linf,l1,gk0.25_lsigma"
    path = tmp_path / "series.csv"
    s.write_csv(path)
    back = NormSeries.from_csv(path)
    assert np.array_equal(back.times, s.times)
    for lab in s.labels:
        assert np.array_equal(back.column(lab), s.column(lab))
    # byte-identical re-serialization (repr round trip)
    assert back.to_csv_text() == text


def test_norm_series_csv_round_trip_is_bitwise_at_the_edges(tmp_path):
    edges = [5e-324, -0.0, 1.7976931348623157e308, 0.0, 2.2250738585072014e-308, -1e-310]
    s = NormSeries(np.arange(len(edges)) * 0.5, {"linf": edges, "l1": edges[::-1]})
    path = tmp_path / "series.csv"
    s.write_csv(path)
    assert "5e-324,-1e-310" in path.read_text() and "-0.0" in path.read_text()
    back = NormSeries.from_csv(path)
    assert back.labels == ["linf", "l1"]
    for got, want in [(back.times, s.times)] + [(back.column(lab), s.column(lab)) for lab in s.labels]:
        assert np.array_equal(_bits(got), _bits(want))
        assert got.flags.c_contiguous
    assert back.to_csv_text() == s.to_csv_text()


def test_norm_series_csv_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,linf\n0.0,1.0\n")
    with pytest.raises(ValueError, match="'t' header"):
        NormSeries.from_csv(p)
    p.write_text("t,linf,linf\n0.0,1.0,1.0\n")
    with pytest.raises(ValueError, match="unique"):
        NormSeries.from_csv(p)
    p.write_text("t,linf\n0.0,1.0\n0.5\n")
    with pytest.raises(ValueError, match="row"):
        NormSeries.from_csv(p)
    p.write_text("t,linf\n0.0,1.0\n0.5,1.0,2.0\n")
    with pytest.raises(ValueError, match="row width 3 != 2"):
        NormSeries.from_csv(p)
    p.write_text("t,linf\n0.0,1.0\n0.5,abc\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
        NormSeries.from_csv(p)
    p.write_text("t,linf\n0.0,1.0\n0.5,\n")
    with pytest.raises(ValueError, match="could not convert string to float: ''"):
        NormSeries.from_csv(p)


def test_gronwall_envelope_frozen_values():
    # m = 1/2, y0 = 1, rate = 1: y(t) = (1 - t/2)^2 until extinction at t = 2
    assert gronwall_envelope(1.0, 1.0, 0.5, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert gronwall_envelope(1.0, 1.0, 0.5, 2.0) == 0.0
    assert gronwall_envelope(1.0, 1.0, 0.5, 3.0) == 0.0
    assert envelope_extinction_time(1.0, 1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    # m = 1: exponential
    assert gronwall_envelope(2.0, 3.0, 1.0, 0.5) == pytest.approx(2.0 * math.exp(-1.5))
    # m = 2: algebraic
    assert gronwall_envelope(1.0, 1.0, 2.0, 3.0) == pytest.approx(0.25, rel=1e-14)
    # m = 3 with y0 = 2, rate = 1/2: y = (1/4 + t)^(-1/2)
    assert gronwall_envelope(2.0, 0.5, 3.0, 1.0) == pytest.approx(1.25**-0.5, rel=1e-13)
    assert gronwall_envelope(0.0, 1.0, 2.0, 1.0) == 0.0
    arr = gronwall_envelope(1.0, 1.0, 0.5, np.array([0.0, 2.0, 4.0]))
    assert np.array_equal(arr, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        gronwall_envelope(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gronwall_envelope(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        envelope_extinction_time(1.0, 1.0, 1.5)


def test_gronwall_envelope_against_ode_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        y0 = float(rng.uniform(0.2, 5.0))
        rate = float(rng.uniform(0.1, 3.0))
        m = float(rng.choice([0.4, 0.75, 1.0, 1.3, 2.2, rng.uniform(0.3, 2.5)]))
        if m < 1.0:
            t_hi = 0.9 * envelope_extinction_time(y0, rate, m)
        else:
            t_hi = 2.0
        ts = np.linspace(0.0, t_hi, 9)
        sol = solve_ivp(
            lambda t, y: -rate * np.abs(y) ** m,
            (0.0, t_hi),
            [y0],
            t_eval=ts,
            rtol=1e-11,
            atol=1e-13,
            method="RK45",
        )
        assert sol.success
        env = gronwall_envelope(y0, rate, m, ts)
        assert np.allclose(env, sol.y[0], rtol=1e-8, atol=1e-10), (y0, rate, m)


def test_fit_power_decay_exact():
    ts = np.geomspace(0.01, 1.0, 30)
    series = NormSeries(ts, {"linf": 3.0 * ts**-0.7})
    fit = fit_power_decay(series, "linf", (0.01, 1.0))
    assert fit.slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    assert fit.n_points == 30
    assert fit.kind == "power"


def test_fit_exponential_decay_exact():
    ts = np.linspace(0.0, 2.0, 25)
    series = NormSeries(ts, {"l1": 2.0 * np.exp(-4.0 * ts)})
    fit = fit_exponential_decay(series, "l1", (0.0, 2.0))
    assert fit.slope == pytest.approx(-4.0, abs=1e-11)
    assert fit.rate == pytest.approx(4.0, abs=1e-11)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-11)
    d = fit.to_dict()
    assert d["kind"] == "exponential" and d["n_points"] == 25


def test_fit_error_conditions():
    ts = np.linspace(0.1, 1.0, 20)
    series = NormSeries(ts, {"linf": np.linspace(1.0, 0.0, 20)})
    with pytest.raises(DegenerateWindowError):
        fit_power_decay(series, "linf", (0.1, 1.0))  # touches the floor
    short = NormSeries(ts[:5], {"linf": np.exp(-ts[:5])})
    with pytest.raises(InsufficientDataError):
        fit_exponential_decay(short, "linf", (0.0, 1.0))
    with pytest.raises(ValueError):
        fit_power_decay(series, "linf", (1.0, 0.1))


def test_check_envelope():
    ts = np.linspace(0.0, 1.0, 11)
    env = gronwall_envelope(1.0, 2.0, 1.0, ts)
    series = NormSeries(ts, {"linf": env * 0.9})
    bound = lambda t: gronwall_envelope(1.0, 2.0, 1.0, t)
    rep = check_envelope(series, "linf", bound)
    assert rep.passed and rep.n_checked == 11 and not rep.vacuous

    bad = env * 0.9
    bad[5] = env[5] * 1.5
    series_bad = NormSeries(ts, {"linf": bad})
    rep = check_envelope(series_bad, "linf", bound)
    assert not rep.passed
    assert len(rep.violations) == 1
    assert rep.violations[0][0] == pytest.approx(ts[5])
    # slack absorbs the violation
    assert check_envelope(series_bad, "linf", bound, slack=2.0).passed
    # window excludes it
    rep = check_envelope(series_bad, "linf", bound, window=(0.6, 1.0))
    assert rep.passed and rep.n_checked == 5
    # empty window is a vacuous pass
    rep = check_envelope(series_bad, "linf", bound, window=(5.0, 6.0))
    assert rep.passed and rep.vacuous and rep.n_checked == 0
    # bound values must align with the samples
    with pytest.raises(ValueError):
        check_envelope(series_bad, "linf", lambda t: np.ones(3))


def test_check_envelope_rejects_a_reversed_window():
    # it selected no samples and passed as vacuous
    ts = np.linspace(0.0, 1.0, 11)
    series = NormSeries(ts, {"linf": np.exp(-ts)})
    with pytest.raises(ValueError, match="bad window"):
        check_envelope(series, "linf", lambda t: np.ones_like(t), window=(1.0, 0.5))


def test_calibrate_recovers_exact_rate():
    ts = np.linspace(0.0, 1.5, 40)
    for m, rate in [(0.5, 1.3), (1.0, 2.0), (1.8, 0.7)]:
        vals = gronwall_envelope(2.0, rate, m, ts)
        series = NormSeries(ts, {"linf": vals})
        got = calibrate_decay_rate(series, "linf", m)
        assert got == pytest.approx(rate, rel=1e-7), m


def test_calibrated_envelope_dominates_by_telescoping():
    rng = np.random.default_rng(33)
    for m in (0.6, 1.0, 1.7):
        for _ in range(20):
            nt = 25
            ts = np.cumsum(rng.uniform(0.01, 0.2, size=nt))
            ts -= ts[0]
            # arbitrary strictly decreasing positive values
            v = np.cumprod(rng.uniform(0.55, 0.98, size=nt)) * rng.uniform(1.0, 8.0)
            series = NormSeries(ts, {"linf": v})
            rate = calibrate_decay_rate(series, "linf", m)
            assert rate > 0.0
            env = gronwall_envelope(float(v[0]), rate, m, ts)
            assert np.all(v <= env * (1.0 + 1e-9) + 1e-300), m


def test_calibrate_zero_tail_and_errors():
    ts = np.array([0.0, 0.5, 1.0])
    # m < 1 accepts pairs that land exactly on zero
    series = NormSeries(ts, {"linf": np.array([1.0, 0.25, 0.0])})
    rate = calibrate_decay_rate(series, "linf", 0.5)
    assert rate > 0.0
    env = gronwall_envelope(1.0, rate, 0.5, ts)
    assert np.all(series.column("linf") <= env * (1.0 + 1e-12))
    # m >= 1 skips them; all-zero series has no usable pairs
    zero = NormSeries(ts, {"linf": np.zeros(3)})
    with pytest.raises(InsufficientDataError):
        calibrate_decay_rate(zero, "linf", 1.0)
    with pytest.raises(ValueError):
        calibrate_decay_rate(series, "linf", 0.0)


def test_truncation_level_for():
    vals = np.array([4.0, 3.0, 1.0])
    # already small enough: level 0
    assert truncation_level_for(vals, 2.0, 30.0, weight=1.0) == 0.0

    def power(k):
        return float(np.sum(np.abs(truncate_excess(vals, k)) ** 2.0))

    for target in (2.0, 0.5, 1e-4):
        k = truncation_level_for(vals, 2.0, target, weight=1.0)
        assert power(k) <= target
        if k > 0.0:
            assert power(k * (1.0 - 1e-9)) > target * (1.0 - 1e-6)
    with pytest.raises(ValueError):
        truncation_level_for(vals, 2.0, 0.0, weight=1.0)
    with pytest.raises(ValueError):
        truncation_level_for(vals, 0.5, 1.0, weight=1.0)
