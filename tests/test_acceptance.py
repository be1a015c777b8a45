"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion; each test also prints an explicit verdict (visible with -s)
and asserts its own wall-clock budget.  Every tolerance is a pinned
module-level constant; loosening one is an interface change, not a tweak.

All simulations here are deterministic (fixed grids, seeds, and step
policies), so the measured slopes, rates, and extinction times are exact
regression targets up to the stated margins.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from decaylab import (
    Grid,
    InitialSpec,
    ProblemParams,
    Regime,
    Scenario,
    calibrate_decay_rate,
    check_envelope,
    classify,
    delta_threshold,
    envelope_extinction_time,
    face_diffusivities,
    fit_exponential_decay,
    fit_power_decay,
    gradient,
    gronwall_envelope,
    lambda_rate,
    level_split,
    lr_norm,
    make_initial,
    nu_exponent,
    p_flux_divergence,
    regime_thresholds,
    regularizing_exponents,
    run,
    sigma_exponent,
    step_explicit,
    step_imex,
    truncation_level_for,
)
from decaylab.field import ScalarField, CoefficientField

# ---------------------------------------------------------------- budgets
BUDGET_C1 = 1.0
BUDGET_C2 = 5.0
BUDGET_C3 = 30.0
BUDGET_C4 = 300.0
BUDGET_C5 = 300.0
BUDGET_C6 = 300.0
BUDGET_C7 = 300.0
BUDGET_C8 = 10.0

SWEEP_SIZE = 10_000
EXACT_TOL = 1e-10  # identity checks in criterion 1


def _verdict(num, name, wall, budget):
    assert wall < budget, f"criterion {num} exceeded budget: {wall:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({wall:.1f}s)")


# ------------------------------------------------------------ criterion 1
def test_c1_exponent_calculus_sweep():
    """Exponent identities and threshold ordering over a 10^4-point sweep."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    dims = rng.integers(2, 7, size=SWEEP_SIZE)
    unit = rng.random(size=(SWEEP_SIZE, 2))

    for i in range(SWEEP_SIZE):
        n = int(dims[i])
        p = 1.0 + unit[i, 0] * (n - 1.0 - 1e-6)  # p in (1, N)
        th = regime_thresholds(p, n)

        # q at the L^1 landmark gives summability exactly 1; at the
        # finite-energy landmark exactly 2 (both stay inside 0 < q < p).
        if th.q_l1 > 0.0:
            assert abs(sigma_exponent(p, th.q_l1, n) - 1.0) < EXACT_TOL
        if th.q_l2 > 0.0:
            assert abs(sigma_exponent(p, th.q_l2, n) - 2.0) < EXACT_TOL

        # Threshold ordering: q_lower <= q_l1 < q_l2 < p, with the p/2 vs
        # interpolated-lower-edge comparison flipping sign exactly at p = 2.
        interp_edge = (p * (n + 1.0) - n) / (n + 2.0)
        if p >= 2.0:
            assert p / 2.0 <= interp_edge + EXACT_TOL
        else:
            assert p / 2.0 >= interp_edge - EXACT_TOL
        if p > th.p_l1_lower:
            assert th.q_lower < th.q_l1 + EXACT_TOL
        assert th.q_l1 < th.q_l2 < p

        # Superlinearity equivalence.  In terms of the raw summability
        # value s the identity (q > p/2) <=> (p > 2N/(N+s)) is exact for
        # every admissible (p, q, N): N + s > 0 always holds.  The variant
        # using the clamped exponent max(1, s) is only valid where s >= 1,
        # and is checked on that subdomain.
        q = unit[i, 1] * (p - 1e-9)
        if q <= 0.0:
            continue
        s = sigma_exponent(p, q, n)
        assert n + s > EXACT_TOL
        lhs = q > p / 2.0
        if abs(q - p / 2.0) > 1e-12 * p:
            assert lhs == (p > 2.0 * n / (n + s))
            if s >= 1.0:
                nu = nu_exponent(p, q, n)
                assert lhs == (p > 2.0 * n / (n + nu))

    # Pinned witness that the clamped-exponent form genuinely needs the
    # s >= 1 restriction: here q <= p/2 yet p > 2N/(N+1).
    p_w, q_w, n_w = 1.9, 0.9, 3
    assert not q_w > p_w / 2.0
    assert sigma_exponent(p_w, q_w, n_w) < 1.0
    assert p_w > 2.0 * n_w / (n_w + nu_exponent(p_w, q_w, n_w))

    _verdict(1, "exponent-calculus sweep", time.perf_counter() - t0, BUDGET_C1)


# ------------------------------------------------------------ criterion 2
GRONWALL_M = (0.5, 1.0, 1.5, 2.0, 3.0)
GRONWALL_CASES = ((1.37, 2.9), (0.25, 0.04))  # (rate, y0)
GRONWALL_RTOL = 1e-8


def test_c2_gronwall_oracle():
    """Closed-form decay envelopes against an adaptive ODE integrator."""
    t0 = time.perf_counter()
    for m in GRONWALL_M:
        for lam, y0 in GRONWALL_CASES:
            if m < 1.0:
                t_ext = y0 ** (1.0 - m) / (lam * (1.0 - m))
                t_hi = 0.9 * t_ext
            else:
                t_ext = None
                t_hi = 3.0
            ts = np.linspace(0.0, t_hi, 181)
            sol = solve_ivp(
                lambda t, y: [-lam * max(y[0], 0.0) ** m],
                (0.0, t_hi),
                [y0],
                t_eval=ts,
                rtol=1e-11,
                atol=1e-14,
                method="RK45",
            )
            assert sol.success
            env = gronwall_envelope(y0, lam, m, ts)
            ref = sol.y[0]
            rel = np.max(np.abs(env - ref) / np.maximum(np.abs(ref), 1e-30))
            assert rel < GRONWALL_RTOL, f"m={m} lam={lam}: rel={rel:.3g}"

            if t_ext is not None:
                # Formula vs module value, then vs the envelope's actual
                # zero-crossing located by bisection.
                t_mod = envelope_extinction_time(y0, lam, m)
                assert abs(t_mod - t_ext) < GRONWALL_RTOL * t_ext
                lo, hi = 0.0, 2.0 * t_ext
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if gronwall_envelope(y0, lam, m, mid) > 0.0:
                        lo = mid
                    else:
                        hi = mid
                assert abs(hi - t_ext) < GRONWALL_RTOL * t_ext
    _verdict(2, "decay-envelope oracle", time.perf_counter() - t0, BUDGET_C2)


# ------------------------------------------------------------ criterion 3
HEAT_WINDOW = (0.05, 0.3)
HEAT_RATE_RTOL = 2e-2


def test_c3_heat_baseline_rate():
    """p = 2, no source, 1D eigenmode: fitted sup-norm rate equals pi^2."""
    t0 = time.perf_counter()
    params = ProblemParams(p=2.0, q=1.0, dim_n=2, gamma=0.0)
    scen = Scenario(
        params=params,
        grid=Grid((256,), (1.0,)),
        initial=InitialSpec(kind="eigenfunction", amplitude=1.0),
        t_end=0.3,
        stepper="explicit",
        sigma=2.0,
    )
    res = run(scen)
    assert res.blow_up_time is None
    fit = fit_exponential_decay(res.series, "linf", window=HEAT_WINDOW)
    assert fit.n_points >= 8
    rel = abs(fit.rate - math.pi**2) / math.pi**2
    assert rel < HEAT_RATE_RTOL, f"rate {fit.rate} vs pi^2, rel={rel:.3g}"
    _verdict(3, "sharp heat-equation rate", time.perf_counter() - t0, BUDGET_C3)


# ------------------------------------------------------------ criterion 4
EXTINCTION_SLACK = 1.5
EXTINCTION_LATEST = 1.0  # measured 0.367; must stay finite and early


def test_c4_fast_diffusion_extinction():
    """p = 1.8 sourceless 2D run: finite extinction, dominated by envelope."""
    t0 = time.perf_counter()
    params = ProblemParams(p=1.8, q=1.0, dim_n=2, gamma=0.0)
    scen = Scenario(
        params=params,
        grid=Grid((64, 64), (1.0, 1.0)),
        initial=InitialSpec(kind="bump", amplitude=1.0),
        t_end=2.0,
        dt_init=2e-3,
        stepper="imex",
        sigma=2.0,
        r_list=(2.0,),
        stop_linf_atol=1e-10,
    )
    res = run(scen)
    assert res.blow_up_time is None
    assert res.extinction_time is not None, "no extinction detected"
    assert res.extinction_time < EXTINCTION_LATEST

    # Calibrate the contraction rate from the data (equivalently, the
    # effective embedding constant), then require the closed-form envelope
    # with that rate to dominate the whole measured norm history.
    m = params.p - 1.0
    ser = res.series
    rate = calibrate_decay_rate(ser, "l2", m)
    assert rate > 0.0
    y0 = ser.column("l2")[0]
    rep = check_envelope(
        ser, "l2", lambda t: gronwall_envelope(y0, rate, m, t), slack=EXTINCTION_SLACK
    )
    assert rep.passed and not rep.vacuous and rep.n_checked >= 100

    # The calibrated envelope itself must vanish in finite time.
    assert math.isfinite(envelope_extinction_time(y0, rate, m))
    _verdict(4, "fast-diffusion extinction", time.perf_counter() - t0, BUDGET_C4)


# ------------------------------------------------------------ criterion 5
UNIVERSAL_WINDOW = (0.3, 3.0)  # last decade of t_end = 3.0
UNIVERSAL_SLOPE_LO = -1.0 / (3.0 - 2.0) - 0.1
UNIVERSAL_SLOPE_HI = -1.0 / (3.0 - 2.0) + 0.15
UNIVERSAL_COLLAPSE_RTOL = 0.05
UNIVERSAL_PREFACTOR_MAX = 0.2  # measured max of linf * t is 0.0232


def _universal_run(gamma, q, amplitude):
    params = ProblemParams(p=3.0, q=q, dim_n=4, gamma=gamma)
    scen = Scenario(
        params=params,
        grid=Grid((64, 64), (1.0, 1.0)),
        initial=InitialSpec(kind="eigenfunction", amplitude=amplitude),
        t_end=3.0,
        stepper="explicit",
        sigma=6.0,
    )
    return run(scen)


def test_c5_universal_sup_slope():
    """p = 3: late-time sup decay follows t^(-1/(p-2)) regardless of data."""
    t0 = time.perf_counter()
    runs = {
        "coercive": _universal_run(0.0, 1.0, 1.0),
        "big-datum": _universal_run(0.0, 1.0, 4.0),
        "small-source": _universal_run(0.05, 2.6, 1.0),
    }
    for tag, res in runs.items():
        assert res.blow_up_time is None, tag
        fit = fit_power_decay(res.series, "linf", window=UNIVERSAL_WINDOW)
        assert UNIVERSAL_SLOPE_LO <= fit.slope <= UNIVERSAL_SLOPE_HI, (
            f"{tag}: slope {fit.slope:.4f} outside "
            f"[{UNIVERSAL_SLOPE_LO}, {UNIVERSAL_SLOPE_HI}]"
        )
        t = res.series.times
        v = res.series.column("linf")
        mask = (t >= UNIVERSAL_WINDOW[0]) & (t <= UNIVERSAL_WINDOW[1])
        assert np.max(v[mask] * t[mask]) < UNIVERSAL_PREFACTOR_MAX, tag

    # Universality: quadrupling the datum leaves the late-time profile
    # unchanged to within 5%.
    a = runs["coercive"].series.column("linf")[-1]
    b = runs["big-datum"].series.column("linf")[-1]
    assert abs(b / a - 1.0) < UNIVERSAL_COLLAPSE_RTOL, f"collapse ratio {b / a}"
    _verdict(5, "universal sup-norm slope", time.perf_counter() - t0, BUDGET_C5)


# ------------------------------------------------------------ criterion 6
LEVEL_EXCESS_RTOL = 1e-6  # allowed fractional excess over the initial value
SUP_MONOTONE_ATOL = 1e-8  # in units of the initial sup norm
LEVEL_FINAL_MAX = 0.1  # every tracked level must lose >= 90% by t_end


def _contraction_case(params, grid, spec, t_end):
    sig = sigma_exponent(params.p, params.q, params.dim_n)
    report = classify(params)
    assert report.regime is Regime.SUPERLINEAR_SIGMA, report.regime

    u0 = make_initial(spec, grid)
    y0_sig = lr_norm(u0.values, sig, grid.quad_weight) ** sig
    d0 = delta_threshold(params)
    assert y0_sig < d0, "datum is not below the smallness threshold"
    # Smallness already holds with no truncation at all.
    assert truncation_level_for(u0.values, sig, d0, weight=grid.quad_weight) == 0.0

    k1 = truncation_level_for(u0.values, sig, 0.5 * y0_sig, weight=grid.quad_weight)
    k2 = truncation_level_for(u0.values, sig, 0.1 * y0_sig, weight=grid.quad_weight)
    scen = Scenario(
        params=params,
        grid=grid,
        initial=spec,
        t_end=t_end,
        stepper="explicit",
        sigma=sig,
        k_levels=(0.0, k1, k2),
    )
    res = run(scen)
    assert res.blow_up_time is None

    for lab in res.series.labels:
        if not lab.endswith("_lsigma"):
            continue
        v = res.series.column(lab)
        assert v[0] > 0.0
        assert np.max(v) <= v[0] * (1.0 + LEVEL_EXCESS_RTOL), lab
        assert v[-1] <= LEVEL_FINAL_MAX * v[0], lab

    linf = res.series.column("linf")
    assert np.max(np.diff(linf)) <= SUP_MONOTONE_ATOL * linf[0]
    return res, sig, y0_sig


def test_c6_levelset_contraction():
    """Truncated-norm contraction with an active gradient source.

    Leg A keeps the pinned degenerate exponents (p = 2.2, q = 1.8, small
    gamma); the analytic dimension is 3, the smallest for which those
    exponents are admissible (the classifier maps p >= N out of range),
    while the computational domain stays 2D.  Leg B is the fully
    dimension-matched singular counterpart on the same grid.
    """
    t0 = time.perf_counter()
    grid = Grid((64, 64), (1.0, 1.0))
    spec = InitialSpec(kind="bump", amplitude=1.0)

    _contraction_case(
        ProblemParams(p=2.2, q=1.8, dim_n=3, gamma=0.1), grid, spec, t_end=0.5
    )

    params_b = ProblemParams(p=1.9, q=1.5, dim_n=2, gamma=0.1)
    res_b, sig_b, y0_sig_b = _contraction_case(params_b, grid, spec, t_end=0.5)
    # The measured worst-case contraction rate must beat the predicted one
    # at the measured smallness level (unit embedding constant).
    rate_cal = calibrate_decay_rate(res_b.series, "gk0_lsigma", params_b.p - 1.0)
    rate_pred = lambda_rate(params_b, sig_b, y0_sig_b) / sig_b
    assert rate_cal >= rate_pred, f"calibrated {rate_cal} < predicted {rate_pred}"
    _verdict(6, "level-set norm contraction", time.perf_counter() - t0, BUDGET_C6)


# ------------------------------------------------------------ criterion 7
REG_WINDOW = (2e-4, 5e-3)
REG_SLOPE_MARGIN = 0.15
REG_DECAY_MIN = -0.05  # the fitted power must at least decay


def test_c7_regularizing_slope():
    """Spike datum summable only to order sigma: early-time gain of
    integrability at the predicted power-law rate (one-sided)."""
    t0 = time.perf_counter()
    params = ProblemParams(p=2.2, q=1.8, dim_n=3, gamma=0.1)
    sig = sigma_exponent(params.p, params.q, params.dim_n)
    r = sig + 1.0
    grid = Grid((64, 64), (1.0, 1.0))
    spec = InitialSpec(
        kind="power_spike", amplitude=1.0, decay_exponent=0.42, nu=sig, nu_prime=r
    )

    # Datum sanity: the grid realization never hits the safety cap, sits
    # below the smallness threshold in the sigma norm, and refining the
    # grid inflates the r-norm while the sigma norm stays put.
    u0 = make_initial(spec, grid)
    assert float(np.max(u0.values)) < spec.cap
    assert lr_norm(u0.values, sig, grid.quad_weight) ** sig < delta_threshold(params)
    coarse, fine = Grid((32, 32), (1.0, 1.0)), Grid((96, 96), (1.0, 1.0))
    uc, uf = make_initial(spec, coarse), make_initial(spec, fine)
    r_growth = lr_norm(uf.values, r, fine.quad_weight) / lr_norm(
        uc.values, r, coarse.quad_weight
    )
    s_growth = lr_norm(uf.values, sig, fine.quad_weight) / lr_norm(
        uc.values, sig, coarse.quad_weight
    )
    assert r_growth > 1.07 and s_growth < 1.04, (r_growth, s_growth)

    scen = Scenario(
        params=params,
        grid=grid,
        initial=spec,
        t_end=0.05,
        stepper="explicit",
        sigma=sig,
        r_list=(r,),
    )
    res = run(scen)
    assert res.blow_up_time is None
    fit = fit_power_decay(res.series, f"l{r:g}", window=REG_WINDOW)
    assert fit.n_points >= 8
    slope_rp = r * fit.slope  # slope of the r-th power of the norm
    _, theta = regularizing_exponents(params.p, sig, r, params.dim_n)
    assert slope_rp >= -theta - REG_SLOPE_MARGIN, (
        f"r-power slope {slope_rp:.4f} steeper than -{theta:.4f} - {REG_SLOPE_MARGIN}"
    )
    assert slope_rp <= REG_DECAY_MIN
    _verdict(7, "regularizing-effect slope", time.perf_counter() - t0, BUDGET_C7)


# ------------------------------------------------------------ criterion 8
DIV_THEOREM_RTOL = 1e-12


def test_c8_discretization_suite():
    """Conservation, consistency, exact truncation algebra, exact zero
    steady state, and byte-identical reruns."""
    t0 = time.perf_counter()

    # (a) Discrete divergence theorem: the volume sum of the flux
    # divergence telescopes to the boundary flux, to round-off.
    grid = Grid((17, 13), (1.0, 2.0))
    rng = np.random.default_rng(7)
    fld = ScalarField(grid, rng.random(grid.shape))
    coeff = CoefficientField()
    div = p_flux_divergence(fld, coeff, p=2.6, eps_reg=1e-8).values
    total = float(np.sum(div)) * grid.cell_volume
    diffs = face_diffusivities(fld, p=2.6, eps_reg=1e-8)
    grads = gradient(fld)
    hx, hy = grid.spacing
    fx = diffs[0] * grads[0]
    fy = diffs[1] * grads[1]
    boundary = float(
        (np.sum(fx[-1, :]) - np.sum(fx[0, :])) * hy
        + (np.sum(fy[:, -1]) - np.sum(fy[:, 0])) * hx
    )
    scale = float(np.sum(np.abs(div)) * grid.cell_volume) + 1e-30
    assert abs(total - boundary) < DIV_THEOREM_RTOL * scale

    # (b) Second-order consistency of the p = 2 divergence on a smooth
    # profile: halving h divides the error by ~4.
    errs = []
    for n in (32, 64):
        g = Grid((n,), (1.0,))
        x = g.axis_nodes(0)
        f = ScalarField(g, np.sin(math.pi * x))
        d = p_flux_divergence(f, CoefficientField(), p=2.0, eps_reg=1e-8)
        errs.append(
            float(np.max(np.abs(d.values - (-math.pi**2) * np.sin(math.pi * x))))
        )
    assert 3.5 < errs[0] / errs[1] < 4.5

    # (c) Exact truncation algebra on adversarial magnitudes.
    z = rng.standard_normal(20_000) * np.exp(rng.uniform(-300, 300, 20_000))
    for k in (0.0, 1e-20, 3.0, 1e150):
        big, small = level_split(z, k)
        assert np.all(big + small == z)

    # (d) The zero state is an exact fixed point of both steppers.
    gz = Grid((12, 12), (1.0, 1.0))
    zero = ScalarField(gz, np.zeros(gz.shape))
    params = ProblemParams(p=2.3, q=1.5, dim_n=3, gamma=0.7)
    for stepper in (step_explicit, step_imex):
        out = stepper(zero, 1e-3, params, CoefficientField(), eps_reg=1e-8)
        assert np.all(out.values == 0.0)

    # (e) Determinism: identical scenario, identical bytes.
    def one():
        scen = Scenario(
            params=ProblemParams(p=2.1, q=1.4, dim_n=3, gamma=0.3),
            grid=Grid((24,), (1.0,)),
            initial=InitialSpec(kind="random_positive", amplitude=0.5),
            t_end=1e-3,
            stepper="imex",
            sigma=2.0,
            seed=11,
        )
        return run(scen).series.to_csv_text()

    assert one() == one()
    _verdict(8, "discretization suite", time.perf_counter() - t0, BUDGET_C8)
