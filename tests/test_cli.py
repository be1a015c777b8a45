import json

import numpy as np
import pytest

from decaylab.cli import (
    CONFIG_DEFAULTS,
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
    parse_config_text,
    serialize_config,
)

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
