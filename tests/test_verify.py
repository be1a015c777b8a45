import json

import numpy as np
import pytest

import decaylab
from decaylab.cli import EXIT_OK, load_config, main
from decaylab.metrics import NormSeries
from decaylab.verify import EnvelopeTarget, FitTarget, VerificationSpec, run_verification

CFG = """
p = 2.0
q = 1.0
dim_n = 3
grid_n = 16
initial_kind = "eigenfunction"
t_end = 2e-3
r_list = [2]
k_levels = [0.2]
sigma = 2.0
verify_linf_contraction = true
verify_gk_contraction = true
fit_targets = [{"name": "sup_exp", "label": "linf", "kind": "exponential", "window": [2e-4, 2e-3], "expected": 9.87, "rtol": 0.2}, {"name": "sup_pow", "label": "linf", "kind": "power", "window": [2e-4, 2e-3], "max_slope": 0}]
envelope_targets = [{"name": "l2_env", "label": "l2", "m": 1}]
"""


def test_public_api_resolves():
    namespace = {}
    exec("from decaylab import *", namespace)
    for name in decaylab.__all__:
        assert name in namespace, name
        assert getattr(decaylab, name) is namespace[name]
    for name in ("VerificationSpec", "FitTarget", "EnvelopeTarget", "run_verification"):
        assert name in decaylab.__all__


def test_engine_on_a_written_series_matches_the_cli(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    sigma_eff = json.loads((out / "metadata.json").read_text())["run"]["sigma_eff"]

    spec = VerificationSpec.from_config(load_config(cfg_path))
    report, plots = run_verification(spec, NormSeries.from_csv(out / "series.csv"), sigma_eff)

    assert report == json.loads((out / "verification.json").read_text())
    assert report["passed"] and report["n_checks"] == 5
    assert [name for name, _ in plots] == ["sup_exp", "sup_pow", "l2_env"]
    for name, plot in plots:
        assert plot.to_csv_text() == (out / f"plot_{name}.csv").read_text()


def test_fit_overlay_has_the_fit_samples():
    times = [0.1 * k for k in range(11)]
    series = NormSeries(times, {"linf": [2.0 ** -t for t in times]})
    spec = VerificationSpec(fits=(
        FitTarget(name="exp", label="linf", kind="exponential", window=[0.0, 1.0]),
        FitTarget(name="pow", label="linf", kind="power", window=[0.0, 1.0]),
    ))
    report, plots = run_verification(spec, series, 2.0)
    n_points = {c["name"]: c["fit"]["n_points"] for c in report["checks"]}
    assert n_points == {"exp": 11, "pow": 10}
    for name, plot in plots:
        assert plot.n == n_points[name]
        assert len(plot.to_csv_text().splitlines()) == n_points[name] + 1


def test_targets_coerce_and_default():
    fit = FitTarget(name="f", label="linf", kind="power", window=[0, 1], expected=2, floor=0)
    assert fit.window == (0.0, 1.0)
    assert isinstance(fit.expected, float) and fit.rtol == 0.05 and fit.min_slope is None
    env = EnvelopeTarget(name="e", label="l2", m=1)
    assert (env.m, env.slack, env.rate, env.window, env.atol) == (1.0, 1.5, None, None, 0.0)
    assert VerificationSpec() == VerificationSpec(False, False, (), ())


def _spec(fits=(), envelopes=()):
    cfg = {
        "verify_linf_contraction": False,
        "verify_gk_contraction": False,
        "fit_targets": list(fits),
        "envelope_targets": list(envelopes),
    }
    return VerificationSpec.from_config(cfg)


FIT = {"name": "f", "label": "linf", "kind": "power", "window": [0.1, 1.0]}
ENV = {"name": "e", "label": "l2", "m": 1.0}


@pytest.mark.parametrize(
    "fits, envelopes, match",
    [
        ([{**FIT, "colour": "red"}], [], "fit target 'f'.*colour"),
        ([{k: v for k, v in FIT.items() if k != "window"}], [], "fit target 'f'.*window"),
        ([{k: v for k, v in FIT.items() if k != "name"}], [], "fit target '#0'.*name"),
        ([{**FIT, "kind": "powr"}], [], "fit target 'f'.*'powr'"),
        ([{**FIT, "window": [1.0, 1.0]}], [], "fit target 'f'.*not below"),
        ([{**FIT, "window": [2.0, 1.0]}], [], "fit target 'f'.*not below"),
        ([{**FIT, "window": [0.1]}], [], r"fit target 'f'.*\[start, end\]"),
        ([{**FIT, "rtol": None}], [], "fit target 'f'"),
        ([], [{**ENV, "slack": 0.0}], "envelope target 'e'.*slack"),
        ([], [{**ENV, "slack": -3}], "envelope target 'e'.*slack"),
        ([], [{**ENV, "m": 0.0}], "envelope target 'e'.*exponent m"),
        ([], [{**ENV, "window": [0.5, 0.1]}], "envelope target 'e'.*not below"),
        ([], [ENV, {"name": "g", "label": "l2"}], "envelope target 'g'.*'m'"),
        ([], [{**ENV, "atol": 0.0, "tol": 1.0}], "envelope target 'e'.*tol"),
        ([], ["l2"], "envelope target '#0'"),
        # a value that is no number names its target and its field
        ([{**FIT, "rtol": None}], [], "fit target 'f': rtol must be a number, got None"),
        ([{**FIT, "expected": "abc"}], [], "fit target 'f': expected must be a number, got 'abc'"),
        ([], [{**ENV, "m": "x"}], "envelope target 'e': m must be a number, got 'x'"),
    ],
)
def test_bad_targets_are_rejected_by_name(fits, envelopes, match):
    with pytest.raises(ValueError, match=match):
        _spec(fits, envelopes)


def test_good_targets_build_a_spec():
    spec = _spec([FIT], [ENV, {**ENV, "name": "e2", "window": [0.0, 0.5], "rate": 2}])
    assert [t.name for t in spec.fits] == ["f"]
    assert [t.name for t in spec.envelopes] == ["e", "e2"]
    assert spec.envelopes[1].window == (0.0, 0.5) and spec.envelopes[1].rate == 2.0


# every verdict branch of run_verification, on synthetic series: each row's
# check must fail when that branch's condition holds and pass beside it
TIMES = np.linspace(0.1, 1.0, 10)
RECIPROCAL = {"linf": 1.0 / TIMES}  # power slope -1, exponential rate 1.11
STEP = np.repeat([0.0, 1.0], 5)  # a rise halfway through


def _fit_spec(window=(0.1, 1.0), **kw):
    return VerificationSpec(fits=(FitTarget(name="f", label="linf", kind="power", window=window, **kw),))


def _env_spec(**kw):
    return VerificationSpec(envelopes=(EnvelopeTarget(name="e", label="linf", m=1.0, **kw),))


@pytest.mark.parametrize(
    "columns, spec, passed, reason",
    [
        (RECIPROCAL, _fit_spec(expected=-1.0), True, None),
        (RECIPROCAL, _fit_spec(expected=-1.1, rtol=0.05), False, None),
        (RECIPROCAL, _fit_spec(min_slope=-1.1), True, None),
        (RECIPROCAL, _fit_spec(min_slope=-0.9), False, None),
        (RECIPROCAL, _fit_spec(max_slope=-0.9), True, None),
        (RECIPROCAL, _fit_spec(max_slope=-1.1), False, None),
        (RECIPROCAL, _fit_spec(window=(0.1, 0.75)), False, "need >= 8 samples"),
        (RECIPROCAL, _fit_spec(floor=2.0), False, "touches the floor"),
        (RECIPROCAL, _env_spec(), True, None),
        ({"linf": np.array([1.0] + [0.0] * 9)}, _env_spec(), False, "no usable sample pairs"),
        (RECIPROCAL, _env_spec(rate=0.0), False, "nonpositive decay rate"),
        ({"linf": TIMES}, _env_spec(), False, "nonpositive decay rate"),
        (RECIPROCAL, VerificationSpec(linf_contraction=True), True, None),
        ({"linf": 1.0 + 1e-6 * STEP}, VerificationSpec(linf_contraction=True), False, None),
        ({"gk0_lsigma": 1.0 + 1e-7 * STEP}, VerificationSpec(gk_contraction=True), True, None),
        ({"gk0_lsigma": 1.0 + 1e-4 * STEP}, VerificationSpec(gk_contraction=True), False, None),
    ],
    ids=[
        "expected_met", "expected_missed", "min_slope_met", "min_slope_missed", "max_slope_met",
        "max_slope_missed", "fit_too_few_samples", "fit_touches_floor", "envelope_calibrated",
        "envelope_calibration_fails", "envelope_zero_rate", "envelope_negative_rate", "linf_falls",
        "linf_rises_1e-6", "gk_rises_1e-7", "gk_rises_1e-4",
    ],
)
def test_each_verdict_branch_can_fail(columns, spec, passed, reason):
    series = NormSeries(TIMES, {"linf": 1.0 / TIMES, **columns})
    report, _ = run_verification(spec, series, 2.0)
    [check] = report["checks"]
    assert check["passed"] is passed and report["passed"] is passed
    assert not check["vacuous"]
    if reason is not None:
        assert reason in check["reason"]
