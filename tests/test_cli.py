import json
import logging
import threading
import time
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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
    write_trace_csv,
)
from relaycancel.lifting import fsfh_lift
from relaycancel.lti import StateSpace
from relaycancel.relay import build_generalized_plant
from relaycancel.sim import SimulationTrace
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


# a config entry that test_malformed_config_shape_exits_one deletes
MISSING = object()


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


def test_config_loaders_agree():
    # load_config parses with libyaml when PyYAML has it
    for name in ("nominal_60db", "nominal_40db", "robust_40db"):
        text = cli.resolve_config_path(name).read_text()
        assert (yaml.load(text, Loader=cli._SAFE_LOADER)
                == yaml.load(text, Loader=yaml.SafeLoader))


def test_config_round_trip(tmp_path):
    cfg = load_config("nominal_60db")
    path = tmp_path / "echo.yaml"
    path.write_text(yaml.safe_dump(cfg))
    again = load_config(str(path))
    assert again == cfg


def test_shared_nominal_design_is_the_bundled_config(nominal_design):
    # the session's nominal design stands in for cli._design of
    # nominal_60db: the same lifted plant, byte for byte, at its settings
    cfg = load_config("nominal_60db")
    d = cfg["design"]
    lp = fsfh_lift(build_generalized_plant(*cli.config_objects(cfg)), d["N"])
    for name in "ABCD":
        assert (getattr(lp.sys, name).tobytes()
                == getattr(nominal_design["lp"].sys, name).tobytes())
    meta = nominal_design["K"].meta
    assert d["mode"] == "nominal"
    assert all(meta[k] == d[k] for k in ("N", "n_q", "grid_size", "tol"))


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


@pytest.mark.parametrize("key, entry, message", [
    ("W", 5, "relay.W must be a num/den mapping"),
    ("F", [1.0, 2.0], "relay.F must be a num/den mapping"),
    ("P", {"num": [1.0]}, "relay.P needs both num and den"),
    ("W", {"den": [2.0, 1.0]}, "relay.W needs both num and den"),
    ("F", {"num": [2.0, 1.0], "den": [1.0]},
     "Improper transfer function: num is longer than den after trimming"),
    ("W", {"num": [1.0], "den": [0.0, 0.0]},
     "num must be non-empty and den must have a nonzero coefficient"),
])
def test_bad_transfer_function_entry_exits_one(tmp_path, capsys, key, entry,
                                               message):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    cfg["relay"][key] = entry
    rc = main(["design", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    # errors from realizing a well-formed entry name their key
    if not message.startswith("relay."):
        message = f"relay.{key}: {message}"
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("path, value, message", [
    (("relay", "W"), {"num": 5, "den": [1, 1]},
     "relay.W.num must be a non-empty list of numbers, got 5"),
    (("relay", "P"), {"num": [], "den": [1, 1]},
     "relay.P.num must be a non-empty list of numbers, got []"),
    (("channel", "extra_paths"), [0.02],
     "channel.extra_paths[0] must be a mapping, got 0.02"),
    (("channel", "extra_paths"), 5,
     "channel.extra_paths must be a list of r/L mappings, got 5"),
    (("relay",), 5, "relay must be a mapping, got 5"),
    (("design",), 5, "design must be a mapping, got 5"),
    (("sim", "input"), 5, "sim.input must be a mapping, got 5"),
    (("relay", "h"), [1.0], "relay.h must be a number, got [1.0]"),
    # int() and float() alone would read these as 16, 64, 1 and 1.0
    (("design", "N"), 16.7, "design.N must be an integer, got 16.7"),
    (("sim", "oversample"), 64.9,
     "sim.oversample must be an integer, got 64.9"),
    (("sim", "seed"), True, "sim.seed must be an integer, got True"),
    (("relay", "h"), True, "relay.h must be a number, got True"),
    (("relay", "F"), {"num": [True], "den": [1.0]},
     "relay.F.num must be a non-empty list of numbers, got [True]"),
    # YAML's .inf and .nan are floats, but no config number may be one
    (("sim", "duration"), float("inf"),
     "sim.duration must be a number, got inf"),
    (("relay", "a1"), float("nan"), "relay.a1 must be a number, got nan"),
    (("design", "tol"), float("inf"), "design.tol must be a number, got inf"),
    (("relay", "W"), {"num": [float("-inf")], "den": [1.0]},
     "relay.W.num must be a non-empty list of numbers, got [-inf]"),
    # a quoted number is a string
    (("relay", "h"), "1.0", "relay.h must be a number, got '1.0'"),
    (("design", "N"), "16", "design.N must be an integer, got '16'"),
    (("relay", "W"), {"num": ["1"], "den": [2.0, 1.0]},
     "relay.W.num must be a non-empty list of numbers, got ['1']"),
    # an integer beyond float range
    (("relay", "W"), {"num": [10**400], "den": [2.0, 1.0]},
     f"relay.W.num must be a non-empty list of numbers, got [{10**400}]"),
    # only a missing or null extra_paths means no detours
    (("channel", "extra_paths"), 0,
     "channel.extra_paths must be a list of r/L mappings, got 0"),
    (("channel", "extra_paths"), False,
     "channel.extra_paths must be a list of r/L mappings, got False"),
    (("channel", "extra_paths"), "",
     "channel.extra_paths must be a list of r/L mappings, got ''"),
    (("sim", "seed"), -1, "sim.seed must be a non-negative integer, got -1"),
    ((), [1, 2], "config document must be a mapping"),
    (("channel",), MISSING, "missing config section 'channel'"),
    (("relay", "h"), MISSING, "relay section is missing 'h'"),
    (("channel", "r"), MISSING, "channel is missing 'r'"),
    (("channel", "extra_paths"), [{"r": 0.02}],
     "channel.extra_paths[0] is missing 'L'"),
    (("design", "mode"), "hybrid", "design.mode must be nominal or robust"),
    (("relay", "W"), {"num": [1.0], "den": [2.0, 1.0], "gain": 2.0},
     "unknown keys in relay.W: ['gain']"),
], ids=["W.num", "P.num_empty", "extra_path", "extra_paths", "relay",
        "design", "sim.input", "relay.h", "design.N_fraction",
        "sim.oversample_fraction", "sim.seed_bool", "relay.h_bool",
        "F.num_bool", "sim.duration_inf", "relay.a1_nan", "design.tol_inf",
        "W.num_inf", "relay.h_string", "design.N_string", "W.num_string",
        "W.num_overflow",
        "extra_paths_zero", "extra_paths_false", "extra_paths_empty_string",
        "sim.seed_negative", "document", "missing_section", "relay.h_missing",
        "channel.r_missing", "extra_path_L_missing", "design.mode",
        "W_unknown_key"])
def test_malformed_config_shape_exits_one(tmp_path, capsys, path, value,
                                          message):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    if not path:
        cfg = value
    else:
        section = cfg
        for key in path[:-1]:
            section = section[key]
        if value is MISSING:
            del section[path[-1]]
        else:
            section[path[-1]] = value
    rc = main(["design", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


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


def test_controller_loaders_agree(tmp_path):
    # read_controller takes libyaml's parser when PyYAML has it; both
    # parsers must give the same controller, extreme floats included
    rng = np.random.default_rng(5)
    A = 0.3 * rng.standard_normal((4, 4))
    A[0, :3] = [1e-300, -0.0, 5e-324]
    sys = StateSpace(A, rng.standard_normal((4, 2)),
                     rng.standard_normal((2, 4)), -1e300 * np.eye(2), dt=1.0)
    w2 = 0.11 * np.eye(2)
    meta = {"n_q": 8, "iterations": 17, "controller_stable": True,
            "W2": {"A": [], "B": [], "C": [],
                   "D": [[float(x) for x in row] for row in w2]}}
    K = Controller(sys=sys, gamma_achieved={"gamma1": 0.7850230412487348,
                                            "gamma2": 0.95},
                   method="robust_qparam", meta=meta)
    path = tmp_path / "k.controller.yaml"
    write_controller(K, path)
    text = path.read_text()
    if yaml.__with_libyaml__:
        assert cli._SAFE_LOADER is yaml.CSafeLoader
    fast = read_controller(path)
    slow = cli.controller_from_dict(yaml.load(text, Loader=yaml.SafeLoader))
    for name in "ABCD":
        a, b = getattr(fast.sys, name), getattr(slow.sys, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.tobytes() == getattr(sys, name).tobytes()
    assert fast.sys.dt == slow.sys.dt == 1.0
    assert fast.gamma_achieved == slow.gamma_achieved == K.gamma_achieved
    assert fast.method == slow.method == "robust_qparam"
    assert fast.meta == slow.meta == meta


def reference_write_trace_csv(trace, path):
    cols = ["t", "v_I", "v_Q", "u_I", "u_Q", "err_I", "err_Q"]
    rows = [",".join(cols)]
    data = np.vstack([trace.t, trace.v, trace.u, trace.err])
    for j in range(data.shape[1]):
        rows.append(",".join(f"{x:.12g}" for x in data[:, j]))
    path.write_text("\n".join(rows) + "\n")


def _rect_trace(rng, n, hold):
    """A trace shaped like a rect run: t distinct, v and u held over
    ``hold`` rows, err their difference (held where both are)."""
    levels = rng.choice([-1.0, 1.0], (2, -(-n // hold)))
    v = np.repeat(levels, hold, axis=1)[:, :n]
    u = np.repeat(0.5 * levels + rng.standard_normal(levels.shape) * 1e-3,
                  hold, axis=1)[:, :n]
    return v, u


def _special_traces(rng):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300,
               5e-324, 1e300, 0.1, 123456789012.5, 1.0 / 3.0]
    # a part row block, then two full blocks and a part one
    for n in (64, 5 * cli._CSV_BLOCK_ROWS // 2):
        v = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-20, 20, (2, n))
        v[0, :len(special)] = special
        u = v[::-1].copy()
        u[1, -len(special):] = special
        yield np.arange(n) / 16.0, v, u, v - u
    # held columns, whose runs are formatted once: one that switches
    # between -0.0 and 0.0, runs of nan, 1e-300 (across a block's end) and
    # -inf, and a block of err held over two rows (exactly half as many
    # runs as rows)
    v, u = _rect_trace(rng, n, 64)
    v[1, :640] = np.repeat([0.0, -0.0] * 5, 64)
    u[0, 700:900] = np.nan
    u[0, 1000:1100] = 1e-300
    u[1, 900:1000] = -np.inf
    err = v - u
    err[0, cli._CSV_BLOCK_ROWS:2 * cli._CSV_BLOCK_ROWS] = np.repeat(
        rng.standard_normal(cli._CSV_BLOCK_ROWS // 2), 2)
    yield np.arange(n) / 64.0, v, u, err
    # runs of rows, whose six cells share one line: a block where every
    # row is its own run, one where four rows in five start a run, one
    # that is one run going on over the block's end, rows that differ in
    # one cell, a 0.0/-0.0 switch in err_I alone, and runs of nan and of
    # -nan (other bits, the same cells)
    rows = cli._CSV_BLOCK_ROWS
    n = 4 * rows + 100
    x = np.empty((6, n))
    x[:, :rows] = rng.standard_normal((6, rows))
    k = 4 * rows // 5
    x[:, rows:2 * rows] = rng.standard_normal((6, k))[:, np.sort(
        np.r_[np.arange(k), rng.choice(k, rows - k)])]
    edge = 3 * rows + 50
    x[:, 2 * rows:edge] = np.array(special[6:])[:, None]
    x[:, edge:] = np.array(special[1:7])[:, None]
    x[5, edge:edge + 300] = np.repeat(rng.standard_normal(100), 3)
    x[4, edge + 300:edge + 600] = np.repeat([0.0, -0.0] * 30, 5)
    x[:, edge + 600:edge + 750] = np.nan
    x[:, edge + 750:edge + 900] = -np.nan
    yield np.arange(n) / 64.0, x[:2], x[2:4], x[4:]


def test_trace_csv_matches_per_cell_formatting(tmp_path):
    for t, v, u, err in _special_traces(np.random.default_rng(9)):
        trace = SimulationTrace(t=t, v=v, u=u, err=err, diverged=True,
                                l2_err=np.nan, max_abs_err_tail=np.nan)
        write_trace_csv(trace, tmp_path / "new.csv")
        reference_write_trace_csv(trace, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b"nan" in new and b"-inf" in new and b"-0," in new
        assert b"1e-300" in new


_CELLS = (st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                           5e-324, 1e-300, 0.1, 123456789012.5])
          | st.floats())


@st.composite
def piecewise_constant_traces(draw):
    """Traces of up to two and a half blocks of rows whose six v, u and
    err columns each hold a value over runs of their own."""
    n = draw(st.integers(1, 5 * cli._CSV_BLOCK_ROWS // 2))
    cells = np.empty((6, n))
    for column in cells:
        ends = sorted(draw(st.sets(st.integers(1, n), max_size=30)) | {n})
        start = 0
        for end in ends:
            column[start:end] = draw(_CELLS)
            start = end
    t = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=n) * 10.0 ** draw(st.integers(-20, 20))
    return SimulationTrace(t=t, v=cells[:2], u=cells[2:4], err=cells[4:],
                           diverged=False, l2_err=np.nan,
                           max_abs_err_tail=np.nan)


@settings(max_examples=40)
@given(trace=piecewise_constant_traces())
def test_trace_csv_of_piecewise_constant_traces(tmp_path_factory, trace):
    d = tmp_path_factory.mktemp("csv")
    write_trace_csv(trace, d / "new.csv")
    reference_write_trace_csv(trace, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_trace_csv_memory_stays_in_blocks(tmp_path):
    # as long as the fig11 trace; formatting all 8,000 rows at once
    # peaked at 3.4 MB of floats, tuple and string.  Both ways of
    # formatting a block: cell by cell, and held runs once (rect)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((2, 8000))
    for v, u in ((v, 0.5 * v), _rect_trace(rng, 8000, 80)):
        trace = SimulationTrace(t=np.arange(8000) / 80.0, v=v, u=u,
                                err=v - u, diverged=False, l2_err=np.nan,
                                max_abs_err_tail=np.nan)
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_read_controller_bad_file(tmp_path):
    path = tmp_path / "junk.yaml"
    path.write_text("not: [a, controller")
    with pytest.raises(ConfigError):
        read_controller(path)


_DELETED = object()


_ROBUST_GAMMA = "a mapping of exactly gamma1 and gamma2 to numbers"


@pytest.mark.parametrize("entries, message", [
    ({"period": 0.0}, "dt must be positive for a discrete system"),
    ({"A": [[0.5, 0.0]]}, "A must be square, got (1, 2)"),
    ({"method": _DELETED}, "missing keys ['method'], unknown keys []"),
    ({"method": "robust"},
     "method must be one of ['nominal_hinf', 'robust_qparam'], got 'robust'"),
    ({"gamma_acheived": 0.5},
     "missing keys [], unknown keys ['gamma_acheived']"),
    ({"meta": None}, "meta must be a mapping, got None"),
    ({"period": np.inf}, "period inf: not finite"),
    ({"period": "1.0"}, "period '1.0': not a number"),
    ({"period": True}, "period True: not a number"),
    ({"A": [[True]]}, "A is not a list of rows of numbers"),
    ({"A": [["0.5"]]}, "A is not a list of rows of numbers"),
    ({"gamma_achieved": "x"},
     "gamma_achieved of a nominal_hinf design must be a number, got 'x'"),
    ({"gamma_achieved": {"gamma1": 0.5, "gamma2": 0.9}},
     "gamma_achieved of a nominal_hinf design must be a number, got "
     "{'gamma1': 0.5, 'gamma2': 0.9}"),
    ({"method": "robust_qparam"},
     f"gamma_achieved of a robust_qparam design must be {_ROBUST_GAMMA}, "
     "got 1.0"),
    ({"method": "robust_qparam", "gamma_achieved": {"gamma1": 0.5}},
     f"gamma_achieved of a robust_qparam design must be {_ROBUST_GAMMA}, "
     "got {'gamma1': 0.5}"),
    ({"method": "robust_qparam",
      "gamma_achieved": {"gamma1": 0.5, "gamma2": "0.9"}},
     f"gamma_achieved of a robust_qparam design must be {_ROBUST_GAMMA}, "
     "got {'gamma1': 0.5, 'gamma2': '0.9'}"),
], ids=["period_zero", "A_not_square", "method_missing", "method_unknown",
        "extra_key", "meta_null", "period_inf", "period_quoted",
        "period_bool", "A_bool", "A_quoted", "gamma_text", "gamma_mapping",
        "robust_gamma_number", "robust_gamma_one_key",
        "robust_gamma_quoted"])
def test_bad_controller_entry_names_the_file(tmp_path, capsys, entries,
                                             message):
    # a controller that parses but does not make a system, that breaks the
    # number rule, or that is not the eight keys controller_to_dict
    # writes with one of the two methods and its gamma_achieved, exits 1,
    # and the message names the file
    path = tmp_path / "bad.controller.yaml"
    write_controller(Controller(sys=StateSpace.static(np.zeros((2, 2)),
                                                      dt=1.0),
                                gamma_achieved=1.0, method="nominal_hinf"),
                     path)
    d = yaml.safe_load(path.read_text())
    for entry, value in entries.items():
        if value is _DELETED:
            del d[entry]
        else:
            d[entry] = value
    path.write_text(yaml.safe_dump(d))
    rc = main(["simulate", "--config", write_cfg(tmp_path, FAST_CONFIG),
               "--controller", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: cannot read controller {path}: {message}")


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
    assert m["metrics"]["diverged_at_s"] is None
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


def test_simulate_flags_are_in_the_embedded_config(nominal_design,
                                                   tmp_path):
    # the metrics JSON embeds the config the trace ran with, flags
    # applied: that config, saved and run without flags, gives the same
    # trace and the same metrics JSON
    ctrl = tmp_path / "K.yaml"
    write_controller(nominal_design["K"], ctrl)
    argv = ["simulate", "--controller", str(ctrl)]
    assert main(argv + ["--config", "nominal_60db", "--out",
                        str(tmp_path / "a"), "--seed", "5",
                        "--oversample", "80"]) == 0
    report = json.loads((tmp_path / "a.metrics.json").read_text())
    assert report["config"]["sim"]["seed"] == 5
    assert report["config"]["sim"]["oversample"] == 80
    cfg_path = write_cfg(tmp_path, report["config"], "embedded.yaml")
    assert main(argv + ["--config", cfg_path, "--out",
                        str(tmp_path / "b")]) == 0
    assert ((tmp_path / "b.csv").read_bytes()
            == (tmp_path / "a.csv").read_bytes())
    assert ((tmp_path / "b.metrics.json").read_bytes()
            == (tmp_path / "a.metrics.json").read_bytes())


def test_simulate_rejects_oversample_zero(tmp_path, capsys):
    # an explicit 0 reaches SimConfig's check instead of the config's 64
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    ctrl = tmp_path / "zero.controller.yaml"
    write_controller(Controller(sys=StateSpace.static(np.zeros((2, 2)),
                                                      dt=1.0),
                                gamma_achieved=1.0, method="nominal_hinf"),
                     ctrl)
    argv = ["simulate", "--config", cfg_path, "--controller", str(ctrl),
            "--out", str(tmp_path / "run")]
    assert main(argv + ["--oversample", "0"]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: oversample must be at least 8")
    assert not (tmp_path / "run.csv").exists()
    assert main(argv) == 0


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_simulate_rejects_a_bad_seed(tmp_path, capsys, seed):
    # numpy's generators take non-negative integers only; the flag is
    # checked before any work
    argv = ["simulate", "--config", write_cfg(tmp_path, FAST_CONFIG),
            "--controller", str(tmp_path / "none.yaml"),
            "--out", str(tmp_path / "run"), "--seed", seed]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.strip().endswith(
        f"error: argument --seed: expected a non-negative integer, got "
        f"{seed!r}")


def test_simulate_keeps_a_dotted_prefix(tmp_path):
    # runs/v1.2 and runs/v1.3 are two runs, not both runs/v1
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    ctrl = tmp_path / "zero.controller.yaml"
    write_controller(Controller(sys=StateSpace.static(np.zeros((2, 2)),
                                                      dt=1.0),
                                gamma_achieved=1.0, method="nominal_hinf"),
                     ctrl)
    runs = tmp_path / "runs"
    for seed, prefix in ((1, "v1.2"), (2, "v1.3")):
        assert cmd_simulate(cfg_path, str(ctrl), str(runs / prefix),
                            seed=seed) == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        "v1.2.csv", "v1.2.metrics.json", "v1.3.csv", "v1.3.metrics.json"]
    assert (runs / "v1.2.csv").read_bytes() != (runs / "v1.3.csv").read_bytes()


def test_design_keeps_a_dotted_out(tmp_path):
    # runs/v1.2 and runs/v1.3 get a controller file each; only a .json
    # suffix is replaced
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    runs = tmp_path / "runs"
    for name in ("v1.2", "v1.3", "report.json"):
        assert cmd_design(cfg_path, str(runs / name)) == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        "report.controller.yaml", "report.json",
        "v1.2", "v1.2.controller.yaml", "v1.3", "v1.3.controller.yaml"]
    for name, ctrl in (("v1.2", "v1.2.controller.yaml"),
                       ("v1.3", "v1.3.controller.yaml"),
                       ("report.json", "report.controller.yaml")):
        report = json.loads((runs / name).read_text())
        assert report["controller_file"] == str(runs / ctrl)


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


def test_verify_command_runs_the_perturbation_sweep(tmp_path):
    # a robust design with a detour on the N = 4 grid (1.25 h = 5 h/4)
    cfg = json.loads(json.dumps(FAST_CONFIG))
    cfg["relay"]["a2"] = 100.0
    cfg["channel"]["extra_paths"] = [{"r": 0.02, "L": 1.25}]
    cfg["design"] = {"mode": "robust", "N": 4, "n_q": 2, "grid_size": 32}
    cfg_path = write_cfg(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    assert cmd_design(cfg_path, str(report_path)) == 0
    ctrl = json.loads(report_path.read_text())["controller_file"]
    rc = main(["verify", "--config", cfg_path, "--controller", ctrl,
               "--out", str(tmp_path / "verify.json")])
    assert rc == 0
    sweep = json.loads((tmp_path / "verify.json").read_text())[
        "perturbation_sweep"]
    assert sorted(sweep) == ["all_stable", "min_spectral_margin", "n_cases",
                             "n_unstable"]
    assert sweep["n_cases"] == 50
    assert sweep["all_stable"] and sweep["n_unstable"] == 0


def test_verify_skips_the_sweep_without_a_detour_budget(robust_40db_design,
                                                        tmp_path, capsys):
    # detours of zero total attenuation leave the sweep nothing to
    # perturb; the robust design still verifies
    raw = yaml.safe_load(cli.resolve_config_path("robust_40db").read_text())
    raw["channel"]["extra_paths"] = [{"r": 0.0, "L": 1.25}]
    ctrl, out = tmp_path / "K.yaml", tmp_path / "verify.json"
    write_controller(robust_40db_design["K"], ctrl)
    assert main(["verify", "--config", write_cfg(tmp_path, raw),
                 "--controller", str(ctrl), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["small_gain_certified"]
    assert "perturbation_sweep" not in report
    assert capsys.readouterr().err == ""


def test_lift_check_command(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    out = tmp_path / "lift.json"
    assert main(["lift-check", "--config", cfg_path, "--n-list", "2,4",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    gammas = report["gamma_by_N"]
    assert sorted(gammas) == ["2", "4"]
    assert all(np.isfinite(g) and g > 0 for g in gammas.values())
    assert list(report["relative_successive_change"]) == ["2->4"]
    assert np.isfinite(report["relative_successive_change"]["2->4"])


def _strict_json(text):
    """text parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_an_unstable_verify_report_is_valid_json(nominal_design, tmp_path,
                                                 capsys):
    # the nominal_60db canceler on robust_40db's detour channel: the loop
    # is unstable, so its norm and bound are infinite and no bound holds
    ctrl, out = tmp_path / "K.yaml", tmp_path / "verify.json"
    write_controller(nominal_design["K"], ctrl)
    assert main(["verify", "--config", "robust_40db", "--controller",
                 str(ctrl), "--out", str(out)]) == 2
    for report in (_strict_json(out.read_text()),
                   _strict_json(capsys.readouterr().out)):
        assert report["closed_loop_stable"] is False
        assert report["gamma_verify"] is None and report["l2_bound"] is None
        assert report["l2_bound_statement"] == (
            "the closed loop is unstable at N=8, so no bound on "
            "||v - u||_2 holds")


def test_verify_refuses_a_controller_without_its_method(robust_40db_design,
                                                       tmp_path, capsys):
    # without its method a robust design would verify as neither kind:
    # no small-gain check and no perturbation sweep, yet exit 0
    ctrl = tmp_path / "K.yaml"
    write_controller(robust_40db_design["K"], ctrl)
    d = yaml.safe_load(ctrl.read_text())
    del d["method"]
    ctrl.write_text(yaml.safe_dump(d))
    assert main(["verify", "--config", "robust_40db", "--controller",
                 str(ctrl)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        f"error: cannot read controller {ctrl}: missing keys ['method'], "
        "unknown keys []")


def test_a_lift_check_report_with_an_unstable_n_is_valid_json(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_design", lambda cfg: (None, Controller(
        sys=StateSpace.static([[0.0]], dt=1.0), gamma_achieved=0.0,
        method="nominal_hinf")))
    monkeypatch.setattr(cli, "sampled_data_norm",
                        lambda spec, K, N: 0.5 if N == 2 else float("nan"))
    out = tmp_path / "lift.json"
    assert main(["lift-check", "--config", write_cfg(tmp_path, FAST_CONFIG),
                 "--n-list", "2,4", "--out", str(out)]) == 0
    for report in (_strict_json(out.read_text()),
                   _strict_json(capsys.readouterr().out)):
        assert report["gamma_by_N"] == {"2": 0.5, "4": None}
        assert report["relative_successive_change"] == {"2->4": None}


@pytest.mark.parametrize("n_list", ["0", "2.5"])
def test_lift_check_rejects_a_bad_n_list_before_designing(
        tmp_path, capsys, monkeypatch, n_list):
    def no_design(cfg):
        raise AssertionError("designed before checking --n-list")

    monkeypatch.setattr(cli, "_design", no_design)
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["lift-check", "--config", cfg_path, "--n-list", n_list])
    assert exc.value.code == 1
    assert (f"error: argument --n-list: expected comma-separated positive "
            f"integers, got '{n_list}'") in capsys.readouterr().err


@pytest.fixture
def package_log_level():
    logger = logging.getLogger("relaycancel")
    level = logger.level
    yield
    logger.setLevel(level)


def test_log_level_flag(tmp_path, caplog, capsys, package_log_level):
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    argv = ["design", "--config", cfg_path, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert not [r for r in caplog.records if r.levelno < logging.WARNING]
    assert main(["-v", "debug"] + argv) == 0
    [line] = [r.getMessage() for r in caplog.records
              if r.name == "relaycancel.synthesis"]
    assert line.startswith("minimax: ") and " oracle evaluations in " in line
    caplog.clear()
    assert main(["--log-level", "INFO"] + argv) == 0
    assert not [r for r in caplog.records if r.levelno < logging.INFO]
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "LOUD"] + argv)
    assert exc.value.code == 1
    assert "invalid choice: 'LOUD'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [([], 1), (["--help"], 0)],
                         ids=["no_command", "help"])
def test_top_level_usage_exit_codes(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert "usage: relaycancel" in "".join(capsys.readouterr())


def test_main_reuses_its_parser_across_calls(tmp_path, capsys,
                                            package_log_level):
    # the parser is built once per process; a call's arguments do not
    # outlive it, and a bad command line still exits 1 in between
    verify = ["verify", "--config", "nominal_60db", "--controller",
              str(tmp_path / "missing.yaml")]
    assert main(["-v", "debug"] + verify) == 1
    assert logging.getLogger("relaycancel").level == logging.DEBUG
    assert "missing.yaml" in capsys.readouterr().err
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "nominal_60db"])
    assert exc.value.code == 1
    assert ("the following arguments are required: --controller, --out"
            in capsys.readouterr().err)
    assert main(verify) == 1
    assert logging.getLogger("relaycancel").level == logging.WARNING
    assert "missing.yaml" in capsys.readouterr().err
    assert cli._build_parser() is parser


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


def _zero_nominal(lp, **kwargs):
    """A stand-in nominal design: the zero canceler, designed at once."""
    return Controller(sys=StateSpace.static(np.zeros((2, 2)), dt=lp.h),
                      gamma_achieved=1.0, method="nominal_hinf")


def test_reproduce_paper_loads_each_config_once(tmp_path, monkeypatch):
    # a run config that designs nothing is loaded too, and a config named
    # twice is loaded once
    run_cfg = write_cfg(tmp_path, FAST_CONFIG, "run.yaml")
    monkeypatch.setattr(cli, "_EXPERIMENTS", (
        ("fig9", "nominal_60db", run_cfg, "stable", "fig9 diverged"),
        ("fig10", "nominal_60db", "nominal_60db", "stable", "fig10 diverged"),
        ("fig11", "robust_40db", run_cfg, "stable", "fig11 diverged"),
    ))
    loaded = []

    def load(name):
        loaded.append(name)
        return load_config(name)

    def zero_design(cfg, reuse=None):
        # the zero canceler transmits nothing: the error is the input
        return None, Controller(
            sys=StateSpace.static(np.zeros((2, 2)), dt=cfg["relay"]["h"]),
            gamma_achieved=1.0, method="nominal_hinf")

    monkeypatch.setattr(cli, "load_config", load)
    monkeypatch.setattr(cli, "_design", zero_design)
    assert main(["reproduce-paper", "--out", str(tmp_path / "rp")]) == 0
    assert sorted(loaded) == sorted(["nominal_60db", run_cfg, "robust_40db"])
    summary = json.loads((tmp_path / "rp" / "summary.json").read_text())
    assert summary["criteria"] == {"fig9": "stable", "fig10": "stable",
                                   "fig11": "stable"}


def test_reproduce_paper_reports_a_robust_failure_from_the_worker(
        tmp_path, capsys, monkeypatch):
    on_worker = []

    def infeasible(*args, **kwargs):
        on_worker.append(threading.current_thread()
                         is not threading.main_thread())
        raise SynthesisError("robust synthesis failed after 3 attempts")

    monkeypatch.setattr(cli, "synthesize_nominal", _zero_nominal)
    monkeypatch.setattr(cli, "synthesize_robust", infeasible)
    threads = threading.active_count()
    assert main(["reproduce-paper", "--out", str(tmp_path / "rp")]) == 2
    assert capsys.readouterr().err.strip() == (
        "synthesis infeasible: robust synthesis failed after 3 attempts")
    assert on_worker == [True]
    assert threading.active_count() == threads


def test_reproduce_paper_joins_the_worker_after_a_nominal_failure(
        tmp_path, capsys, monkeypatch):
    # the nominal design fails at once on the calling thread while the
    # robust one is still running; main returns only after the worker is
    # done, and it reports the nominal failure
    finished = threading.Event()

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("resolvent singular")

    def slow_robust(*args, **kwargs):
        time.sleep(0.5)
        finished.set()
        raise SynthesisError("late robust failure")

    monkeypatch.setattr(cli, "synthesize_nominal", singular)
    monkeypatch.setattr(cli, "synthesize_robust", slow_robust)
    threads = threading.active_count()
    assert main(["reproduce-paper", "--out", str(tmp_path / "rp")]) == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: resolvent singular")
    assert finished.is_set()
    assert threading.active_count() == threads


@pytest.mark.parametrize("exc", [
    RuntimeError("hinf_norm bisection did not converge"),
    np.linalg.LinAlgError("resolvent singular"),
])
def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr("relaycancel.lifting._hinf_norm", failing)
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    rc = main(["design", "--config", cfg_path,
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.strip() == f"numerical failure: {exc}"


def test_non_finite_discretization_exits_three(tmp_path, capsys, monkeypatch):
    # lti raises LinAlgError, not a plain ValueError that would exit 1
    monkeypatch.setattr("relaycancel.lti._expm",
                        lambda M: np.full_like(M, np.nan))
    cfg_path = write_cfg(tmp_path, FAST_CONFIG)
    rc = main(["design", "--config", cfg_path,
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: matrix exponential produced non-finite entries")
