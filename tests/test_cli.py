import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from decaylab.cli import (
    CONFIG_DEFAULTS,
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    load_config,
    main,
    parse_config_text,
    serialize_config,
)
from decaylab.evolve import InitialSpec, Scenario
from decaylab.field import Grid, ScalarField, write_field_csv
from decaylab.regime import ProblemParams
from decaylab.verify import EnvelopeTarget, FitTarget

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CFG = """
p = 2.0
q = 1.0
dim_n = 3
gamma = 0.0
grid_n = 16
domain_lengths = 1.0
initial_kind = "eigenfunction"
initial_amplitude = 1.0
t_end = 2e-3
stepper = "explicit"
r_list = [2]
verify_linf_contraction = true
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# each config key that is a dataclass field, with the field's annotation
FIELD_TYPES = {
    **{f.name: f.type for f in dataclasses.fields(ProblemParams)},
    **{f"initial_{f.name}": f.type for f in dataclasses.fields(InitialSpec)},
    **{f.name: f.type for f in dataclasses.fields(Scenario)},
}
FLOAT_KEYS = [key for key in CONFIG_DEFAULTS if FIELD_TYPES.get(key) in ("float", "Optional[float]")]
INT_KEYS = [key for key in CONFIG_DEFAULTS if FIELD_TYPES.get(key) == "int"]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_round_trip():
    cfg = parse_config_text(BASE_CFG)
    assert cfg["p"] == 2.0
    assert cfg["grid_n"] == 16
    assert cfg["verify_linf_contraction"] is True
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_parse_config_fail_closed():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("p = 2.0\nmystery_knob = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("p = 2.0\np = 3.0\n")
    with pytest.raises(ValueError, match="bad JSON"):
        parse_config_text("p = two\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just some words\n")
    # comments and blank lines are fine
    assert parse_config_text("# comment\n\np = 2.0  # trailing\n") == {"p": 2.0}


def test_config_defaults_cover_every_key():
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(parse_config_text(BASE_CFG))
    assert cfg["dt_init"] == 1e-4
    assert cfg["sweep_p"] is None


def test_readme_documents_every_key_and_every_list_key(tmp_path):
    text = README.read_text()
    section = text[text.index("### Config files"):text.index("### Output artifacts")]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for row in rows for key in re.findall(r"`(\w+)`", row)} == set(CONFIG_DEFAULTS)
    # the keys load_config rejects when they hold a string where a list belongs
    lists = set()
    for key in CONFIG_DEFAULTS:
        try:
            load_config(write_cfg(tmp_path, f'{key} = "12"\n'))
        except ValueError as exc:
            assert str(exc) == f"config key {key!r} must be a list, got '12'"
            lists.add(key)
    sentence = re.search(r"A list key\s+\((.*?)\)", section, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == lists


# ---------------------------------------------------------------------------
# classify / predict

def test_classify_ok(capsys):
    assert main(["classify", "--p", "2.0", "--q", "1.5", "--N", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "superlinear_sigma" in out
    assert main(["classify", "--p", "2.0", "--q", "1.5", "--N", "3", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(3.0)


def test_classify_out_of_range_exit(capsys):
    assert main(["classify", "--p", "3.0", "--q", "2.0", "--N", "3"]) == EXIT_USAGE
    assert "out_of_range" in capsys.readouterr().out


def test_classify_bad_flags():
    assert main(["classify", "--p", "2.0"]) == EXIT_USAGE  # missing required
    assert main(["classify", "--p", "0.5", "--q", "0.2", "--N", "3"]) == EXIT_USAGE


def test_predict_paths(capsys):
    code = main(
        ["predict", "--p", "2.0", "--q", "1.5", "--N", "3", "--gamma", "1.0",
         "--y0", "1.0", "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(3.0)  # derived from the regime
    assert payload["delta_threshold"] == pytest.approx(1.0 / 64.0)
    assert payload["smallness_used"] == pytest.approx(1.0 / 64.0)  # defaulted
    assert payload["lambda_rate"] > 0.0

    # gamma = 0 needs an explicit sigma
    assert main(["predict", "--p", "2.0", "--q", "1.0", "--N", "3", "--y0", "1.0"]) == EXIT_USAGE
    # sublinear regime has no derived sigma
    assert (
        main(["predict", "--p", "2.0", "--q", "0.8", "--N", "3", "--gamma", "1.0",
              "--y0", "1.0"])
        == EXIT_USAGE
    )
    # smallness beyond the threshold kills the rate
    assert (
        main(["predict", "--p", "2.0", "--q", "1.5", "--N", "3", "--gamma", "1.0",
              "--y0", "1.0", "--delta", "1e6"])
        == EXIT_USAGE
    )


PARAM_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ProblemParams) if f.default is not dataclasses.MISSING
}


def _default_flags(names):
    return [x for name in names for x in (f"--{name.replace('_', '-')}", repr(PARAM_DEFAULTS[name]))]


@pytest.mark.parametrize("argv, left_out", [
    (["classify", "--p", "2.0", "--q", "1.5", "--N", "3"], ["gamma"]),
    (["classify", "--p", "2.0", "--q", "1.5", "--N", "3", "--json"], ["gamma"]),
    (["predict", "--p", "2.0", "--q", "1.5", "--N", "3", "--sigma", "2.0", "--y0", "1.0"],
     ["gamma", "alpha", "lambda_upper", "sobolev_const", "measure"]),
    (["predict", "--p", "2.0", "--q", "1.5", "--N", "3", "--gamma", "1.0", "--y0", "1.0", "--json"],
     ["alpha", "lambda_upper", "sobolev_const", "measure"]),
])
def test_left_out_flags_take_the_problem_params_defaults(capsys, argv, left_out):
    code = main(argv)
    printed = capsys.readouterr().out
    assert main(argv + _default_flags(left_out)) == code
    assert capsys.readouterr().out == printed


def test_no_subcommand_is_usage():
    assert main([]) == EXIT_USAGE
    assert main(["simulate", "--bogus"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# simulate / verify


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--json"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["verification_passed"] is True
    assert summary["regime"] == "sublinear"
    for name in ("series.csv", "metadata.json", "verification.json", "config.txt"):
        assert (out / name).exists(), name
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["run"]["blow_up_time"] is None
    assert meta["run"]["steps_accepted"] > 0
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is True and report["n_checks"] == 1


def test_simulate_deterministic_and_verify_bit_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "verification.json").read_bytes() == (out2 / "verification.json").read_bytes()

    code = main(["verify", "--config", cfg, "--series", str(out1 / "series.csv"), "--json"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.encode() == (out1 / "verification.json").read_bytes()


# every config key, in order, with every default
BASE_CONFIG_TXT = """\
p = 2.0
q = 1.0
dim_n = 3
gamma = 0.0
alpha = 1.0
lambda_upper = 1.0
sobolev_const = 1.0
grid_n = 16
domain_lengths = 1.0
coefficient = "identity"
initial_kind = "eigenfunction"
initial_amplitude = 1.0
initial_center = null
initial_decay_exponent = null
initial_cap = 1000000.0
initial_nu = null
initial_nu_prime = null
initial_radius = null
initial_path = null
t_end = 0.002
dt_init = 0.0001
stepper = "explicit"
eps_reg = null
snapshot_times = []
k_levels = []
r_list = [2]
sigma = null
seed = 0
sample_start = null
sample_ratio = 1.05
stop_linf_atol = 0.0
out_dir = null
verify_linf_contraction = true
verify_gk_contraction = false
fit_targets = []
envelope_targets = []
sweep_p = null
sweep_q = null
sweep_gamma = null
"""


def test_simulate_echoes_every_config_key_in_order(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "config.txt").read_text() == BASE_CONFIG_TXT


# BASE_CFG with its numbers written as integers and numeric strings, plus
# float defaults it leaves out, written the same way, and list defaults
# written as null ("'NoneType' object is not iterable")
TWIN_CFG = """
p = 2
q = "1"
dim_n = 3
gamma = 0
alpha = "1.0"
lambda_upper = 1
sobolev_const = "1"
grid_n = 16
domain_lengths = 1
initial_kind = "eigenfunction"
initial_amplitude = "1"
initial_cap = 1000000
t_end = "2e-3"
dt_init = "0.0001"
stepper = "explicit"
r_list = [2]
sample_ratio = "1.05"
stop_linf_atol = 0
verify_linf_contraction = true
snapshot_times = null
k_levels = null
fit_targets = null
envelope_targets = null
"""


def test_integer_and_string_numbers_run_as_their_float_twin(tmp_path, capsys):
    runs = {}
    for name, text in (("float", BASE_CFG), ("twin", TWIN_CFG)):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name), "--json"]) == EXIT_OK
        runs[name] = json.loads(capsys.readouterr().out)
    for artifact in ("series.csv", "verification.json"):
        assert (tmp_path / "float" / artifact).read_bytes() == (tmp_path / "twin" / artifact).read_bytes()
    for key in ("p", "q", "gamma"):
        assert type(runs["twin"][key]) is float and runs["twin"][key] == runs["float"][key]


EIGEN = {"initial_kind": '"eigenfunction"'}
SPIKE = {"initial_kind": '"power_spike"', "initial_decay_exponent": "0.5", "initial_nu": "1.0",
         "initial_nu_prime": "4.0"}
OPTIONAL_FLOAT_KEYS = {
    "eps_reg": {**EIGEN, "eps_reg": "1e-3"},
    "sigma": {**EIGEN, "sigma": "2.0"},
    "sample_start": {**EIGEN, "sample_start": "1e-5"},
    "initial_radius": {"initial_kind": '"bump"', "initial_radius": "0.3"},
    "initial_decay_exponent": SPIKE,
    "initial_nu": SPIKE,
    "initial_nu_prime": SPIKE,
}


@pytest.mark.parametrize("key", sorted(OPTIONAL_FLOAT_KEYS))
def test_numeric_string_in_an_optional_float_key_runs_as_its_float(key, tmp_path, capsys):
    keys = OPTIONAL_FLOAT_KEYS[key]
    base = BASE_CFG.replace('initial_kind = "eigenfunction"\n', "")
    for name, quoted in (("float", False), ("string", True)):
        lines = [f'{k} = "{v}"' if quoted and k == key else f"{k} = {v}" for k, v in keys.items()]
        cfg = write_cfg(tmp_path, base + "\n".join(lines) + "\n", f"{name}.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    capsys.readouterr()
    for artifact in ("series.csv", "verification.json"):
        assert (tmp_path / "float" / artifact).read_bytes() == (tmp_path / "string" / artifact).read_bytes()


def test_verify_catches_tampering(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    series = out / "series.csv"
    lines = series.read_text().splitlines()
    head = lines[0].split(",")
    col = head.index("linf")
    mid = len(lines) // 2
    row = lines[mid].split(",")
    row[col] = repr(float(row[col]) * 10.0)  # push one sample above its past
    lines[mid] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", cfg, "--series", str(series)])
    assert code == EXIT_VERIFICATION
    assert "FAIL" in capsys.readouterr().out


def test_verify_io_and_schema_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    missing = tmp_path / "nope.csv"
    assert main(["verify", "--config", cfg, "--series", str(missing)]) == EXIT_IO
    bad = tmp_path / "bad.csv"
    bad.write_text("x,linf\n0.0,1.0\n")
    assert main(["verify", "--config", cfg, "--series", str(bad)]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_config_key_exits_usage(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "\nwarp_factor = 9\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_overlong_sample_schedule_exits_usage(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "\nsample_ratio = 1.0000001\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "sample schedule" in capsys.readouterr().err


def test_simulate_failing_fit_target_exit(tmp_path, capsys):
    cfg_text = BASE_CFG + (
        'fit_targets = [{"name": "absurd", "label": "linf", "kind": "exponential",'
        ' "window": [0.0, 2e-3], "expected": 999.0, "rtol": 0.01}]\n'
    )
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_VERIFICATION
    capsys.readouterr()
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is False
    assert (out / "plot_absurd.csv").exists()


def test_simulate_blow_up_exit(tmp_path, capsys):
    cfg_text = """
p = 2.0
q = 1.9
dim_n = 3
gamma = 1e7
grid_n = 8
initial_kind = "eigenfunction"
t_end = 5.0
"""
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_BLOWUP
    capsys.readouterr()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["run"]["blow_up_time"] is not None


COLLAPSE_CFG = """
p = 1.5
q = 1.0
dim_n = 3
grid_n = 16
initial_kind = "bump"
initial_radius = 0.3
eps_reg = 0.0
t_end = 1e-3
stepper = "explicit"
"""


def test_simulate_step_size_collapse_exit(tmp_path, capsys):
    # p < 2, eps_reg = 0 and a flat region: the stable dt is 0
    cfg = write_cfg(tmp_path, COLLAPSE_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_BLOWUP
    assert "step size collapsed" in capsys.readouterr().err


def test_sweep_step_size_collapse_is_reported(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COLLAPSE_CFG + "sweep_p = [1.5, 1.6]\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_BLOWUP
    capsys.readouterr()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [s["exit_code"] for s in summary] == [EXIT_BLOWUP, EXIT_BLOWUP]
    assert all("step size collapsed" in s["error"] for s in summary)


def test_imex_non_finite_iterate_is_a_failed_step(tmp_path, capsys):
    # p < 2 and eps_reg = 0 on a symmetric 2-node datum: a solved iterate has
    # a zero-gradient face, so its flux divergence is not finite; that is a
    # failed step, which halves dt, not a usage error
    dt = 0.127685650075655
    cfg = write_cfg(tmp_path, f"""
p = 1.8774625664026732
q = 1.0
dim_n = 3
grid_n = 2
initial_kind = "eigenfunction"
initial_amplitude = 0.010370409686981137
eps_reg = 0.0
stepper = "imex"
dt_init = {dt!r}
sample_start = {dt!r}
sample_ratio = 2.0
t_end = {3.0 * dt!r}
""")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_BLOWUP)


HALVINGS_CFG = """
p = 1.5
q = 1.0
dim_n = 3
grid_n = [8, 8]
initial_kind = "bump"
initial_radius = 0.2
eps_reg = 0.0
dt_init = 1e-3
t_end = 0.01
stepper = "imex"
"""


def test_simulate_imex_halvings_run_out_exit(tmp_path, capsys):
    # the datum has a flat face of infinite mobility, which no dt mends: the
    # first IMEX attempt fails the step, which is not a usage error
    cfg = write_cfg(tmp_path, HALVINGS_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_BLOWUP
    assert capsys.readouterr().err.startswith("stepping failure: implicit solve produced non-finite values")


def test_simulate_negative_eps_reg_exits_usage(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "eps_reg = -1e-3\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "eps_reg" in capsys.readouterr().err
    assert not (out / "metadata.json").exists()


SINUSOIDAL_CFG = """
p = 2.4
q = 1.0
dim_n = 2
grid_n = [10, 12]
domain_lengths = [1.0, 1.5]
coefficient = "sinusoidal"
alpha = 0.5
lambda_upper = 2.0
initial_kind = "bump"
t_end = 5e-3
k_levels = [0.2]
verify_linf_contraction = true
verify_gk_contraction = true
"""


def test_simulate_sinusoidal_coefficient(tmp_path, capsys):
    for stepper in ("explicit", "imex"):
        cfg = write_cfg(tmp_path, SINUSOIDAL_CFG + f'stepper = "{stepper}"\n')
        out = tmp_path / stepper
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["run"]["blow_up_time"] is None
        assert json.loads((out / "verification.json").read_text())["passed"] is True


def test_simulate_coefficient_outside_the_bounds_exits_usage(tmp_path, capsys):
    # the identity coefficient is 1, below alpha = 1.5
    cfg = write_cfg(tmp_path, BASE_CFG + "alpha = 1.5\nlambda_upper = 2.0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "ellipticity bounds" in capsys.readouterr().err
    assert not (out / "series.csv").exists()


@pytest.mark.parametrize("line, text", [
    (17, "1,0.058823529411764705,1.0"),  # node 16 missing, node 1 twice
    (5, "4,0.23529411764705882"),  # short row
    (2, "17,1.0,1.0"),  # past the last node
    (2, "1,0.11764705882352941,1.0"),  # node 1 of the same grid on [0, 2]
])
def test_simulate_malformed_snapshot_exits_before_stepping(tmp_path, capsys, line, text):
    grid = Grid((16,), (1.0,))
    snap = tmp_path / "snap.csv"
    write_field_csv(ScalarField(grid, np.ones(16)), snap)
    lines = snap.read_text().splitlines()
    lines[line - 1] = text
    snap.write_text("\n".join(lines) + "\n")
    cfg_text = BASE_CFG.replace('initial_kind = "eigenfunction"', 'initial_kind = "file"')
    cfg = write_cfg(tmp_path, cfg_text + f'initial_path = "{snap}"\n')
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"snapshot line {line}" in capsys.readouterr().err
    assert not (out / "series.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("sigma", "NaN"),  # every gk0_lsigma was nan and the contraction check passed
    ("gamma", "NaN"),  # ran as gamma = 0
    ("snapshot_times", "[NaN]"),  # wrote no snapshot
    ("k_levels", "[NaN]"),
    ("dt_init", "Infinity"),
])
def test_simulate_non_finite_input_exits_before_stepping(tmp_path, capsys, key, value):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, label", [
    ("r_list", "[2, 2.0000001]", "l2"),  # one l2 column, holding the L^2.0000001 norm
    ("k_levels", "[0.1, 0.1000001]", "gk0.1"),
    ("r_list", "[1.0000001]", "l1"),  # overwrote the L^1 column
])
def test_simulate_values_sharing_a_column_label_exit_usage(tmp_path, capsys, key, value, label):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{key} values" in err and f"share the column label {label!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("initial_center", "[NaN]"),  # a zero datum, reported as extinct at t = 0
    ("initial_radius", "NaN"),  # the same
    ("initial_radius", "Infinity"),  # the constant datum 1
    ("initial_cap", "Infinity"),
    ("initial_decay_exponent", "NaN"),
    ("initial_nu", "NaN"),
    ("initial_nu_prime", "Infinity"),
])
def test_simulate_non_finite_initial_field_exits_before_stepping(tmp_path, capsys, key, value):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith("initial_kind =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + ['initial_kind = "bump"', f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"{key.removeprefix('initial_')} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("grid_n", "Infinity"),  # int() raised OverflowError: a traceback and exit 1
    ("grid_n", "NaN"),
    ("grid_n", "2.5"),  # ran on 2 nodes
    ("grid_n", "[16, Infinity]"),
    ("dim_n", "Infinity"),
    ("dim_n", "NaN"),
    ("dim_n", "3.5"),  # ran as N = 3
    ("seed", "Infinity"),
    *((key, '"abc"') for key in INT_KEYS),
])
def test_simulate_integer_key_must_be_a_finite_integer(tmp_path, capsys, key, value):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"config key {key!r} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_is_an_integer_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("grid_n = 16", "grid_n = 16.0").replace("dim_n = 3", "dim_n = 3.0"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) > 2


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "k_levels", '"12"'),  # ran the levels 1 and 2
    ("simulate", "r_list", '"34"'),  # ran the orders 3 and 4
    ("simulate", "snapshot_times", '"0"'),  # wrote a snapshot at t = 0
    ("simulate", "initial_center", '"55"'),  # became ('5', '5')
    ("sweep", "sweep_p", '"12"'),  # a cell failed on format code 'g', naming no key
    ("simulate", "fit_targets", '"ab"'),  # "argument after ** must be a mapping, not str"
    ("simulate", "envelope_targets", '"ab"'),
])
def test_string_in_a_list_key_exits_usage(tmp_path, capsys, command, key, value):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"config key {key!r} must be a list, got {json.loads(value)!r}" in capsys.readouterr().err
    assert not out.exists()


NON_NUMBER_ROWS = [
    ("p", '"abc"', "abc"),  # printed only "could not convert string to float: 'abc'"
    ("t_end", '"abc"', "abc"),
    ("domain_lengths", '"abc"', "abc"),
    ("domain_lengths", '[1.0, "abc"]', "abc"),
    ("initial_amplitude", '"abc"', "abc"),
    ("sigma", "[3]", [3]),  # "float() argument must be a string or a real number"
    ("k_levels", '[0.1, "abc"]', "abc"),
    ("initial_center", '["a", 0.5]', "a"),  # a numpy ufunc message
    ("sweep_p", '["a"]', "a"),  # sweep: "Unknown format code 'g'"
    # null in a float (not Optional[float]) key printed only "float() argument must be ... not 'NoneType'"
    ("dt_init", "null", None),
    ("sample_ratio", "null", None),
    ("alpha", "null", None),
    ("initial_amplitude", "null", None),
    ("stop_linf_atol", "null", None),
    ("initial_cap", "null", None),
]


@pytest.mark.parametrize("key, value, bad", NON_NUMBER_ROWS + [
    (key, '"abc"', "abc") for key in FLOAT_KEYS if (key, '"abc"', "abc") not in NON_NUMBER_ROWS
])
def test_non_numeric_float_key_exits_usage_naming_the_key(tmp_path, capsys, key, value, bad):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"config key {key!r} must be a number, got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    # bool("false") turned the check on
    ({"verify_linf_contraction": '"false"'},
     "config key 'verify_linf_contraction' must be true or false, got 'false'"),
    # opened file descriptor 0, so the run read stdin as its snapshot
    ({"initial_kind": '"file"', "initial_path": "0"}, "config key 'initial_path' must be a string, got 0"),
    # "expected str, bytes or os.PathLike object, not int", naming no key
    ({"out_dir": "5"}, "config key 'out_dir' must be a string, got 5"),
], ids=["verify_linf_contraction", "initial_path", "out_dir"])
def test_mistyped_key_exits_usage_naming_the_key(tmp_path, capsys, keys, message):
    lines = [line for line in BASE_CFG.splitlines() if line.split(" =")[0] not in keys]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


# valid arguments of each dataclass whose float fields come from outside
VALID_ARGS = {
    ProblemParams: {"p": 2.0, "q": 1.0, "dim_n": 3},
    InitialSpec: {},
    Scenario: {"params": ProblemParams(p=2.0, q=1.0, dim_n=3), "grid": Grid((4,), (1.0,)),
               "initial": InitialSpec(), "t_end": 1.0},
    FitTarget: {"name": "f", "label": "linf", "kind": "power", "window": [0.0, 1.0]},
    EnvelopeTarget: {"name": "e", "label": "l2", "m": 1.0},
}
OWNERS = {FitTarget: "fit target 'f': ", EnvelopeTarget: "envelope target 'e': "}


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in VALID_ARGS for f in dataclasses.fields(cls) if f.type in ("float", "Optional[float]")
])
def test_non_numeric_float_field_names_the_field(cls, name):
    # ProblemParams(p="abc") said only "could not convert string to float: 'abc'"
    message = f"{OWNERS.get(cls, '')}{name} must be a number, got 'abc'"
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{**VALID_ARGS[cls], name: "abc"})


# library values of the int fields that no field read as an integer
BAD_INTEGERS = [
    (ProblemParams, "dim_n", "3"),  # TypeError: '>=' not supported, naming no field
    (Scenario, "seed", None),  # two random_positive runs started from different data
    (Scenario, "seed", "abc"),  # random.Random would take it as a string seed
    (Scenario, "seed", 1.5),
]


@pytest.mark.parametrize("cls, name, bad", BAD_INTEGERS)
def test_non_integer_int_field_names_the_field(cls, name, bad):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        cls(**{**VALID_ARGS[cls], name: bad})


@pytest.mark.parametrize("value", [3.0, np.int64(3)])  # 3.0 stayed a float, np.int64 a numpy integer
def test_integral_int_field_value_becomes_an_int(value):
    dim_n = ProblemParams(**{**VALID_ARGS[ProblemParams], "dim_n": value}).dim_n
    assert dim_n == 3 and type(dim_n) is int


def test_snapshot_times_sharing_a_file_name_exit_usage(tmp_path, capsys):
    # exited 0 with one snapshot_t0.001.csv, the second field written over the first
    cfg = write_cfg(tmp_path, BASE_CFG + "snapshot_times = [0.001, 0.0010000001]\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "snapshot_times values 0.001 and 0.0010000001 share the file name 'snapshot_t0.001.csv'" in err
    assert not out.exists()


@pytest.mark.parametrize("length", ["10", "1.5"])  # ran on lengths (1.0, 0.0); could not convert '.'
def test_numeric_string_domain_length_runs_as_its_number(tmp_path, capsys, length):
    for name, value in (("number", length), ("string", f'"{length}"')):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("domain_lengths = 1.0", f"domain_lengths = {value}"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    capsys.readouterr()
    for artifact in ("series.csv", "verification.json"):
        assert (tmp_path / "number" / artifact).read_bytes() == (tmp_path / "string" / artifact).read_bytes()


@pytest.mark.parametrize("flag, name", [
    ("--gamma", "gamma"),  # printed nan rates and exited 0
    ("--sigma", "sigma"),
    ("--y0", "y0"),
    ("--delta", "smallness"),
])
def test_predict_non_finite_input_exits_usage(capsys, flag, name):
    args = {"--p": "2.0", "--q": "1.5", "--N": "3", "--gamma": "1.0", "--y0": "1.0", flag: "nan"}
    assert main(["predict", *(x for pair in args.items() for x in pair)]) == EXIT_USAGE
    assert name in capsys.readouterr().err


def test_simulate_zero_datum_vacuous(tmp_path, capsys):
    cfg_text = BASE_CFG.replace('initial_kind = "eigenfunction"', 'initial_kind = "zero"') + (
        'envelope_targets = [{"name": "env", "label": "linf", "m": 1.0}]\n'
    )
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is True
    assert report["vacuous"] is True
    for check in report["checks"]:
        assert check["vacuous"] is True


def test_simulate_out_dir_resolution(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, BASE_CFG + f'out_dir = "{tmp_path}/from_cfg"\n')
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "from_cfg" / "series.csv").exists()

    cfg2 = write_cfg(tmp_path, BASE_CFG, name="run2.cfg")
    monkeypatch.setenv("DECAYLAB_OUT", str(tmp_path / "from_env"))
    assert main(["simulate", "--config", cfg2]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "from_env" / "series.csv").exists()


def test_simulate_seed_override(tmp_path, capsys):
    cfg_text = BASE_CFG.replace(
        'initial_kind = "eigenfunction"', 'initial_kind = "random_positive"'
    )
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == EXIT_OK
    capsys.readouterr()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["seed"] == 7
    assert "seed = 7" in (out / "config.txt").read_text()


def test_simulate_envelope_target_calibrated(tmp_path, capsys):
    cfg_text = BASE_CFG + (
        'envelope_targets = [{"name": "sup_env", "label": "linf", "m": 1.0,'
        ' "slack": 1.05}]\n'
    )
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "verification.json").read_text())
    env_check = [c for c in report["checks"] if c["name"] == "sup_env"][0]
    assert env_check["passed"] and env_check["calibrated"]
    assert env_check["rate"] > 0.0
    plot = (out / "plot_sup_env.csv").read_text().splitlines()
    assert plot[0] == "t,value,envelope"
    assert len(plot) > 5


# ---------------------------------------------------------------------------
# sweep


SWEEP_CFG = """
p = 2.0
q = 1.0
dim_n = 3
grid_n = 12
initial_kind = "eigenfunction"
t_end = 1e-3
sweep_p = [2.0, 2.2]
sweep_gamma = [0.0, 0.2]
verify_linf_contraction = true
"""


def test_sweep_runs_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    dirs = sorted(d.name for d in out.iterdir() if d.is_dir())
    assert dirs == ["p2.2_q1_gamma0", "p2.2_q1_gamma0.2", "p2_q1_gamma0", "p2_q1_gamma0.2"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary) == 4
    assert all(s["exit_code"] == EXIT_OK for s in summary)
    assert printed.count("exit=0") == 4
    # each combo is a full simulate output with its own config echo
    sub = out / "p2.2_q1_gamma0.2"
    assert (sub / "series.csv").exists()
    assert "gamma = 0.2" in (sub / "config.txt").read_text()


def test_sweep_rejects_cells_that_share_a_directory(tmp_path, capsys):
    # p{p:g} keeps six significant digits: both cells would be p2_q1_gamma0
    cfg = write_cfg(tmp_path, BASE_CFG + "sweep_p = [2.0000001, 2.0000002]\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "p2_q1_gamma0" in err and "2.0000001" in err and "2.0000002" in err
    assert not out.exists()


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == EXIT_OK
    capsys.readouterr()
    name = "p2_q1_gamma0.2"
    assert (out1 / name / "series.csv").read_bytes() == (out2 / name / "series.csv").read_bytes()
    s1 = json.loads((out1 / "sweep_summary.json").read_text())
    s2 = json.loads((out2 / "sweep_summary.json").read_text())
    for a, b in zip(s1, s2):
        # identical apart from the embedded output root
        assert a.pop("out_dir").split("/")[-1] == b.pop("out_dir").split("/")[-1]
        assert a == b


class _InlineExecutor:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in this process."""

    def __init__(self, max_workers, made):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool the sweep opens; none is started."""
    import concurrent.futures

    made = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _InlineExecutor(max_workers, made)
    )
    return made


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, pools, jobs):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_USAGE
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists() and pools == []


def test_sweep_starts_no_more_workers_than_cells(tmp_path, capsys, pools):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "64"]) == EXIT_OK
    capsys.readouterr()
    assert pools == [4]
    assert len(json.loads((out / "sweep_summary.json").read_text())) == 4


def test_one_cell_sweep_runs_in_process(tmp_path, capsys, pools):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "4"]) == EXIT_OK
    assert capsys.readouterr().out.count("exit=0") == 1
    assert pools == []


def test_sweep_propagates_failure_code(tmp_path, capsys):
    cfg_text = SWEEP_CFG + (
        'fit_targets = [{"name": "absurd", "label": "linf", "kind": "exponential",'
        ' "window": [0.0, 1e-3], "expected": 999.0, "rtol": 0.01}]\n'
    )
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VERIFICATION
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verification targets are validated before stepping


IMEX_CFG = """
p = 1.8
q = 1.0
dim_n = 2
grid_n = [16, 16]
initial_kind = "bump"
t_end = 0.05
dt_init = 2e-3
stepper = "imex"
"""

POWR_FIT = (
    'fit_targets = [{"name": "typo", "label": "linf", "kind": "powr", "window": [1e-3, 0.05]}]\n'
)


def test_simulate_malformed_target_exits_before_stepping(tmp_path, capsys):
    cfg = write_cfg(tmp_path, IMEX_CFG + POWR_FIT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert not (out / "series.csv").exists()
    assert not (out / "metadata.json").exists()
    err = capsys.readouterr().err
    assert "'typo'" in err and "powr" in err


@pytest.mark.parametrize(
    "target",
    [
        'envelope_targets = [{"name": "env", "label": "l3", "m": 1.0}]\n',
        'fit_targets = [{"name": "fit", "label": "l3", "kind": "power", "window": [1e-4, 2e-3]}]\n',
    ],
    ids=["envelope", "fit"],
)
def test_simulate_unrecorded_target_label_exits_before_stepping(tmp_path, capsys, target):
    # r_list = [2] records l2; no run records l3
    cfg = write_cfg(tmp_path, BASE_CFG + target)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert "'l3'" in err and "l2" in err


@pytest.mark.parametrize(
    "target",
    [
        POWR_FIT,
        'envelope_targets = [{"name": "neg", "label": "linf", "m": 1.0, "slack": -3}]\n',
    ],
    ids=["fit_kind", "envelope_slack"],
)
def test_bad_target_on_a_zero_datum_is_not_vacuous(tmp_path, capsys, target):
    # an all-zero column once let any target pass as vacuous
    zero = BASE_CFG.replace('initial_kind = "eigenfunction"', 'initial_kind = "zero"')
    cfg = write_cfg(tmp_path, zero + target)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    capsys.readouterr()
    assert not (out / "verification.json").exists()


def test_verify_rejects_a_malformed_target_before_reading_the_series(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + POWR_FIT)
    missing = tmp_path / "nope.csv"
    assert main(["verify", "--config", cfg, "--series", str(missing)]) == EXIT_USAGE
    assert "powr" in capsys.readouterr().err
