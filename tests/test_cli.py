import json

import numpy as np
import pytest
import yaml

from relaycancel import cli
from relaycancel.cli import (
    ConfigError,
    cmd_design,
    cmd_simulate,
    effective_config,
    load_config,
    main,
    read_controller,
    resolve_config_path,
    write_controller,
)
from relaycancel.lti import StateSpace
from relaycancel.synthesis import Controller, SynthesisError


FAST_CONFIG = {
    "relay": {
        "h": 1.0, "f": 10000.0, "a1": 1.0, "a2": 1000.0,
        "W": {"num": [1.0], "den": [2.0, 1.0]},
        "F": {"num": [1.0], "den": [1.0]},
        "P": {"num": [1.0], "den": [0.001, 1.0]},
    },
    "channel": {"r": 0.2, "L": 1.0, "extra_paths": []},
    "design": {"mode": "nominal", "N": 2, "n_q": 2, "grid_size": 32},
    "sim": {"duration": 12.0, "oversample": 16, "seed": 5,
            "input": {"kind": "random_rect", "period": 4.0,
                      "filter": "through_P"}},
}


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config handling


def test_bundled_configs_resolve_and_validate():
    for name in ("nominal_60db", "nominal_40db", "robust_40db"):
        cfg = load_config(name)
        assert cfg["relay"]["h"] == 1.0
        assert cfg["design"]["mode"] in ("nominal", "robust")


def test_config_round_trip(tmp_path):
    cfg = load_config("nominal_60db")
    path = tmp_path / "echo.yaml"
    path.write_text(yaml.safe_dump(cfg))
    again = load_config(str(path))
    assert again == cfg


def test_unknown_keys_rejected():
    bad = {**FAST_CONFIG, "turbo": True}
    with pytest.raises(ConfigError, match="unknown keys"):
        effective_config(bad)
    bad = json.loads(json.dumps(FAST_CONFIG))
    bad["relay"]["gain"] = 2.0
    with pytest.raises(ConfigError, match="unknown keys in relay"):
        effective_config(bad)


def test_defaults_are_filled():
    cfg = json.loads(json.dumps(FAST_CONFIG))
    del cfg["design"]
    del cfg["sim"]
    eff = effective_config(cfg)
    assert eff["design"]["N"] == 16
    assert eff["sim"]["oversample"] == 64
    assert eff["sim"]["input"]["kind"] == "random_rect"


def test_missing_config_is_error():
    with pytest.raises(ConfigError, match="not found"):
        resolve_config_path("no_such_config_anywhere")


# ---------------------------------------------------------------------------
# controller serialization


def test_controller_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    sys = StateSpace(0.4 * np.eye(3), rng.standard_normal((3, 2)),
                     rng.standard_normal((2, 3)), np.zeros((2, 2)), dt=1.0)
    K = Controller(sys=sys, gamma_achieved=0.5, method="nominal_hinf",
                   meta={"n_q": 4})
    path = tmp_path / "k.controller.yaml"
    write_controller(K, path)
    K2 = read_controller(path)
    assert np.allclose(K2.sys.A, sys.A)
    assert np.allclose(K2.sys.B, sys.B)
    assert K2.gamma_achieved == 0.5
    assert K2.meta["n_q"] == 4


def test_read_controller_bad_file(tmp_path):
    path = tmp_path / "junk.yaml"
    path.write_text("not: [a, controller")
    with pytest.raises(ConfigError):
        read_controller(path)


# ---------------------------------------------------------------------------
# commands and exit codes


def test_design_simulate_flow(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    report_path = tmp_path / "report.json"
    assert cmd_design(cfg_path, str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["verification"]["closed_loop_stable"]
    assert report["config"]["design"]["N"] == 2
    ctrl = report["controller_file"]

    out_prefix = tmp_path / "run"
    assert cmd_simulate(cfg_path, ctrl, str(out_prefix)) == 0
    csv1 = (tmp_path / "run.csv").read_bytes()
    m = json.loads((tmp_path / "run.metrics.json").read_text())
    assert m["metrics"]["diverged"] is False
    # determinism: identical bytes on a re-run
    assert cmd_simulate(cfg_path, ctrl, str(out_prefix)) == 0
    assert (tmp_path / "run.csv").read_bytes() == csv1
    header = csv1.decode().splitlines()[0]
    assert header == "t,v_I,v_Q,u_I,u_Q,err_I,err_Q"


def test_design_open_loop_gain_zero(tmp_path):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    cfg["relay"]["a2"] = 0.0
    cfg_path = write_cfg(tmp_path, cfg)
    report_path = tmp_path / "r.json"
    assert cmd_design(cfg_path, str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["verification"]["closed_loop_stable"]


def test_off_grid_delay_exits_one(tmp_path, capsys):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    cfg["channel"]["L"] = 0.97  # 0.97 * 2 is not an integer
    cfg_path = write_cfg(tmp_path, cfg)
    rc = main(["design", "--config", cfg_path, "--out",
               str(tmp_path / "r.json")])
    assert rc == 1
    assert "not on FSFH grid" in capsys.readouterr().err


def test_bad_config_path_exits_one(tmp_path, capsys):
    rc = main(["design", "--config", str(tmp_path / "missing.yaml"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1


def test_seed_override_changes_trace(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    report_path = tmp_path / "report.json"
    cmd_design(cfg_path, str(report_path))
    ctrl = json.loads(report_path.read_text())["controller_file"]
    cmd_simulate(cfg_path, ctrl, str(tmp_path / "a"))
    cmd_simulate(cfg_path, ctrl, str(tmp_path / "b"), seed=123)
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_verify_command(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    report_path = tmp_path / "report.json"
    cmd_design(cfg_path, str(report_path))
    ctrl = json.loads(report_path.read_text())["controller_file"]
    rc = main(["verify", "--config", cfg_path, "--controller", ctrl,
               "--out", str(tmp_path / "verify.json")])
    assert rc == 0
    vr = json.loads((tmp_path / "verify.json").read_text())
    assert vr["closed_loop_stable"]


@pytest.mark.parametrize("command", ["design", "reproduce-paper",
                                     "lift-check"])
def test_synthesis_error_exits_two(tmp_path, capsys, monkeypatch, command):
    def infeasible(*args, **kwargs):
        raise SynthesisError("no FIR parameter met the bound")

    monkeypatch.setattr(cli, "synthesize_nominal", infeasible)
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    argv = {
        "design": ["design", "--config", cfg_path,
                   "--out", str(tmp_path / "r.json")],
        "reproduce-paper": ["reproduce-paper", "--out", str(tmp_path / "rp")],
        "lift-check": ["lift-check", "--config", cfg_path, "--n-list", "2"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("synthesis infeasible: no FIR parameter met "
                           "the bound")


@pytest.mark.parametrize("exc", [
    RuntimeError("hinf_norm bisection did not converge"),
    np.linalg.LinAlgError("resolvent singular"),
])
def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr("relaycancel.synthesis.hinf_norm", failing)
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    rc = main(["design", "--config", cfg_path,
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.strip() == f"numerical failure: {exc}"


def test_non_finite_discretization_exits_three(tmp_path, capsys, monkeypatch):
    # lti raises LinAlgError, not a plain ValueError that would exit 1
    monkeypatch.setattr("relaycancel.lti.expm",
                        lambda M: np.full_like(M, np.nan))
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    rc = main(["design", "--config", cfg_path,
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: matrix exponential produced non-finite entries")
