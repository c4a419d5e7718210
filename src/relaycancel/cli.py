"""Command-line front end: design, simulate, verify, reproduce-paper.

Configuration is a single YAML document; unknown keys are rejected and
every report embeds the full effective configuration including defaults,
so reports are re-runnable; ``simulate``'s metrics JSON embeds it with
``--seed`` and ``--oversample`` applied.  Exit codes: 0 success, 1 usage,
configuration or I/O error, 2 infeasible synthesis (``SynthesisError``,
reported as "synthesis infeasible: ..." by every command) or a failed
experiment expectation, 3 internal numerical failure (a ``RuntimeError``
such as a norm bisection that does not converge, or a ``LinAlgError``
such as a singular resolvent, a singular algebraic loop or a matrix
exponential with non-finite entries; reported as "numerical failure:
...").
``simulate --out PREFIX`` appends ``.csv`` and ``.metrics.json`` to the
prefix, dots and all; ``design --out REPORT`` writes the controller to
REPORT with ``.controller.yaml`` in place of a trailing ``.json``, or
appended when there is none.  ``verify`` adds, for a robust design on a
channel whose detours have a positive total attenuation, the
perturbation sweep's case counts and its smallest spectral margin.
``-v/--log-level LEVEL`` (before the command) sets the level of the
package's log records, which go to stderr; DEBUG shows, among others,
one line per minimax (iterations, cuts, time in the sigma_max oracle and
in HiGHS) and one per H-infinity norm.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import operator
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .lti import _from_record, _number, _record
from .relay import (
    CouplingChannel,
    RelayParams,
    build_generalized_plant,
    scalar_block,
    uncertainty_weight,
)
from .lifting import fsfh_lift, sampled_data_norm
from .synthesis import (
    Controller,
    SynthesisError,
    build_robust_plant,
    robust_stability_sweep,
    synthesize_nominal,
    synthesize_robust,
    verify_design,
)
from .sim import InputSpec, SimConfig, metrics, simulate_closed_loop

__all__ = ["main", "load_config", "effective_config", "cmd_design",
           "cmd_simulate", "cmd_verify", "cmd_reproduce_paper",
           "cmd_lift_check"]

_DESIGN_DEFAULTS = {
    "mode": "nominal",
    "N": 16,
    "n_q": 8,
    "grid_size": 256,
    "margin": 0.05,
    "epsilon": 0.01,
    "tol": 1e-3,
}
_SIM_DEFAULTS = {
    "duration": 100.0,
    "oversample": 64,
    "seed": 0,
}
_INPUT_DEFAULTS = {
    "kind": "random_rect",
    "period": 4.0,
    "filter": "through_P",
}

# reference experiments: figure, design config, run config, expected
# outcome, message when it is not met.  fig10 and fig11 run on
# nominal_40db, whose detour path (unmodeled by the nominal design)
# is the paper's perturbation.
_EXPERIMENTS = (
    ("fig9", "nominal_60db", "nominal_60db", "stable",
     "nominal cancelation diverged"),
    ("fig10", "nominal_40db", "nominal_40db", "diverged",
     "perturbed nominal loop did not diverge"),
    ("fig11", "robust_40db", "nominal_40db", "stable",
     "robust cancelation diverged"),
)


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _mapping(value, where: str) -> dict:
    """A copy of a config mapping; an empty YAML section (None) is {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return dict(value)


def _convert(section: dict, keys, kind, where: str):
    """Convert section[key] to kind (float or int) in place, per key."""
    for key in keys:
        if key not in section:
            raise ConfigError(f"{where} is missing {key!r}")
        try:
            section[key] = _number(section[key], kind)
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{where}.{key} must be {what}, got "
                              f"{section[key]!r}") from None


def _float_list(value, where: str) -> list:
    try:
        if isinstance(value, list) and value:
            return [_number(x, float) for x in value]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where} must be a non-empty list of numbers, got "
                      f"{value!r}")


def effective_config(raw: dict) -> dict:
    """Validate a raw config mapping and fill in the defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping")
    _check_keys(raw, {"relay", "channel", "design", "sim"}, "config")
    for section in ("relay", "channel"):
        if section not in raw:
            raise ConfigError(f"missing config section {section!r}")

    relay = _mapping(raw["relay"], "relay")
    _check_keys(relay, {"h", "f", "a1", "a2", "W", "F", "P"}, "relay")
    for key in ("h", "f", "a1", "a2", "W", "F", "P"):
        if key not in relay:
            raise ConfigError(f"relay section is missing {key!r}")
    _convert(relay, ("h", "f", "a1", "a2"), float, "relay")
    for key in ("W", "F", "P"):
        blk, where = relay[key], f"relay.{key}"
        if not isinstance(blk, dict):
            raise ConfigError(f"{where} must be a num/den mapping")
        _check_keys(blk, {"num", "den"}, where)
        if {"num", "den"} - blk.keys():
            raise ConfigError(f"{where} needs both num and den")
        relay[key] = {k: _float_list(blk[k], f"{where}.{k}")
                      for k in ("num", "den")}

    channel = _mapping(raw["channel"], "channel")
    _check_keys(channel, {"r", "L", "extra_paths"}, "channel")
    _convert(channel, ("r", "L"), float, "channel")
    paths = channel.get("extra_paths")
    paths = [] if paths is None else paths  # missing or null: no detours
    if not isinstance(paths, list):
        raise ConfigError("channel.extra_paths must be a list of r/L "
                          f"mappings, got {paths!r}")
    extras = []
    for i, p in enumerate(paths):
        where = f"channel.extra_paths[{i}]"
        p = _mapping(p, where)
        _check_keys(p, {"r", "L"}, where)
        _convert(p, ("r", "L"), float, where)
        extras.append(p)
    channel["extra_paths"] = extras

    design = {**_DESIGN_DEFAULTS, **_mapping(raw.get("design"), "design")}
    _check_keys(design, _DESIGN_DEFAULTS, "design")
    if design["mode"] not in ("nominal", "robust"):
        raise ConfigError("design.mode must be nominal or robust")
    _convert(design, ("N", "n_q", "grid_size"), int, "design")
    _convert(design, ("margin", "epsilon", "tol"), float, "design")

    sim = {**_SIM_DEFAULTS, **_mapping(raw.get("sim"), "sim")}
    _check_keys(sim, set(_SIM_DEFAULTS) | {"input"}, "sim")
    _convert(sim, ("duration",), float, "sim")
    _convert(sim, ("oversample", "seed"), int, "sim")
    if sim["seed"] < 0:
        raise ConfigError("sim.seed must be a non-negative integer, got "
                          f"{sim['seed']!r}")
    inp = {**_INPUT_DEFAULTS, **_mapping(sim.get("input"), "sim.input")}
    _check_keys(inp, _INPUT_DEFAULTS, "sim.input")
    _convert(inp, ("period",), float, "sim.input")
    sim["input"] = inp

    return {"relay": relay, "channel": channel, "design": design, "sim": sim}


def resolve_config_path(name: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled config."""
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("relaycancel") / "configs" / f"{name}.yaml"
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config {name!r} not found (no such file or bundled config)")


# libyaml's parser builds the same objects as the pure-Python one (the
# scalar constructors are shared) and reads a config or a controller
# several times faster; PyYAML built without libyaml has only the latter
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(name: str) -> dict:
    path = resolve_config_path(name)
    try:
        raw = yaml.load(path.read_text(), Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return effective_config(raw)


def _realize(relay: dict, key: str):
    """scalar_block of relay[key], its errors naming the key."""
    try:
        return scalar_block(relay[key]["num"], relay[key]["den"])
    except ValueError as exc:
        raise ConfigError(f"relay.{key}: {exc}") from exc


def config_objects(cfg: dict):
    relay = cfg["relay"]
    params = RelayParams(
        h=relay["h"], f=relay["f"], a1=relay["a1"], a2=relay["a2"],
        **{k: _realize(relay, k) for k in ("W", "F", "P")},
    )
    ch = cfg["channel"]
    channel = CouplingChannel(
        r=ch["r"], L=ch["L"],
        extra_paths=tuple((p["r"], p["L"]) for p in ch["extra_paths"]),
    )
    return params, channel


# ---------------------------------------------------------------------------
# serialization


def controller_to_dict(K: Controller) -> dict:
    return {**_record(K.sys), "gamma_achieved": K.gamma_achieved,
            "method": K.method, "meta": K.meta}


_CONTROLLER_KEYS = {"A", "B", "C", "D", "period", "gamma_achieved",
                    "method", "meta"}
_METHODS = ("nominal_hinf", "robust_qparam")


def _gamma(g, method: str):
    """gamma_achieved as its method records it: a number for a nominal
    design, gamma1 and gamma2 for a robust one; ValueError otherwise."""
    try:
        if method == "nominal_hinf":
            return _number(g, float)
        if isinstance(g, dict) and set(g) == {"gamma1", "gamma2"}:
            return {k: _number(v, float) for k, v in g.items()}
    except (TypeError, ValueError, OverflowError):
        pass
    shape = ("a number" if method == "nominal_hinf"
             else "a mapping of exactly gamma1 and gamma2 to numbers")
    raise ValueError(f"gamma_achieved of a {method} design must be {shape}, "
                     f"got {g!r}")


def controller_from_dict(d: dict) -> Controller:
    """The controller ``controller_to_dict`` wrote: its eight keys, a
    system record (``lti._from_record``), one of the two design methods
    with the gamma_achieved it records and a mapping for meta, else
    ValueError."""
    missing = sorted(_CONTROLLER_KEYS - set(d))
    unknown = sorted(set(d) - _CONTROLLER_KEYS, key=str)
    if missing or unknown:
        raise ValueError(f"missing keys {missing}, unknown keys {unknown}")
    if d["method"] not in _METHODS:
        raise ValueError(f"method must be one of {list(_METHODS)}, "
                         f"got {d['method']!r}")
    if not isinstance(d["meta"], dict):
        raise ValueError(f"meta must be a mapping, got {d['meta']!r}")
    return Controller(sys=_from_record(d),
                      gamma_achieved=_gamma(d["gamma_achieved"], d["method"]),
                      method=d["method"], meta=d["meta"])


def write_controller(K: Controller, path: Path):
    path.write_text(yaml.safe_dump(controller_to_dict(K),
                                   default_flow_style=None, sort_keys=True))


def read_controller(path) -> Controller:
    try:
        return controller_from_dict(
            yaml.load(Path(path).read_text(), Loader=_SAFE_LOADER))
    except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read controller {path}: {exc}") from exc


_CSV_BLOCK_ROWS = 1024
# a run's line: its six cells formatted, and t's format left ("%%")
_CSV_RUN = "%%.12g" + ",%.12g" * 6 + "\n"


def write_trace_csv(trace, path: Path):
    """One %.12g row per fine step, formatted and written in blocks of
    1,024 rows so that no string or tuple of the whole trace is built.

    The trace is piecewise constant (u is held over h, and a rect input
    through P repeats its values), so a block's rows fall into runs whose
    six v, u and err cells are bitwise equal (compared as int64, so -0.0
    stays apart from 0.0).  Each run's cells are formatted once, into one
    line that the run's rows share, and t is formatted per row; a
    white-noise trace, whose every row is its own run, takes the same
    path.  The bytes are those of formatting cell by cell.
    """
    with path.open("w") as fh:
        fh.write("t,v_I,v_Q,u_I,u_Q,err_I,err_Q\n")
        for i in range(0, trace.t.size, _CSV_BLOCK_ROWS):
            block = slice(i, i + _CSV_BLOCK_ROWS)
            data = np.vstack([trace.t[block], trace.v[:, block],
                              trace.u[:, block], trace.err[:, block]])
            n = data.shape[1]
            bits = data[1:].view(np.int64)
            starts = np.flatnonzero(np.r_[True, (bits[:, 1:] != bits[:, :-1])
                                          .any(axis=0)])
            runs = _CSV_RUN * starts.size % tuple(
                data[1:, starts].T.ravel().tolist())
            # formatted cells hold no "%", so only the t formats are left
            lines = "".join(map(operator.mul, runs.splitlines(keepends=True),
                                np.diff(np.r_[starts, n]).tolist()))
            fh.write(lines % tuple(data[0].tolist()))


def _finite(obj):
    """obj with each non-finite float, in its dicts and lists too, made
    None: JSON (RFC 8259) has no Infinity or NaN."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json(obj: dict) -> str:
    """A report as JSON, non-finite floats as null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True,
                      allow_nan=False)


def _write_json(obj: dict, path: Path):
    path.write_text(_json(obj) + "\n")


# ---------------------------------------------------------------------------
# commands


def _design(cfg: dict, reuse=None):
    """Design the canceler a config asks for.

    A nominal design reuses the Q* of ``reuse`` (an earlier nominal
    design) when given; synthesize_nominal checks that it fits.
    """
    params, channel = config_objects(cfg)
    spec = build_generalized_plant(params, channel)
    d = cfg["design"]
    if d["mode"] == "nominal":
        lp = fsfh_lift(spec, d["N"])
        K = synthesize_nominal(lp, tol=d["tol"], n_q=d["n_q"],
                               grid_size=d["grid_size"],
                               reuse=reuse)
    else:
        W2 = uncertainty_weight(channel, d["epsilon"])
        rp = build_robust_plant(spec, W2, d["N"])
        K = synthesize_robust(rp, n_q=d["n_q"], grid_size=d["grid_size"],
                              margin=d["margin"], tol=d["tol"])
    return spec, K


def cmd_design(config: str, out: str) -> int:
    cfg = load_config(config)
    t0 = time.perf_counter()
    spec, K = _design(cfg)
    t_design = time.perf_counter() - t0
    t0 = time.perf_counter()
    report_verify = verify_design(spec, K, N_verify=2 * cfg["design"]["N"])
    t_verify = time.perf_counter() - t0
    out_path = Path(out)
    # only a .json suffix is replaced, so runs/v1.2 keeps its dot
    ctrl_path = Path(f"{out.removesuffix('.json')}.controller.yaml")
    report = {
        "config": cfg,
        "controller": controller_to_dict(K),
        "gamma_achieved": K.gamma_achieved,
        "method": K.method,
        "controller_stable": K.meta["controller_stable"],
        "verification": report_verify,
        "timings_s": {"design": t_design, "verify": t_verify},
        "controller_file": str(ctrl_path),
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(report, out_path)
    write_controller(K, ctrl_path)
    print(f"design written to {out_path} (controller: {ctrl_path})")
    return 0


def _simulate(cfg: dict, K: Controller, csv_path: Path):
    """Simulate K as a config describes; write the trace to csv_path."""
    params, channel = config_objects(cfg)
    sim = cfg["sim"]
    trace = simulate_closed_loop(SimConfig(
        params=params, channel=channel, K=K.sys, duration=sim["duration"],
        oversample=sim["oversample"], input=InputSpec(**sim["input"]),
        seed=sim["seed"]))
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, csv_path)
    return trace


def cmd_simulate(config: str, controller: str, out_prefix: str,
                 seed: int | None = None,
                 oversample: int | None = None) -> int:
    cfg = load_config(config)
    # the flags go into the effective config, which the metrics embed
    flags = {"seed": seed, "oversample": oversample}
    cfg["sim"].update((k, v) for k, v in flags.items() if v is not None)
    K = read_controller(controller)
    # suffixes are appended, so a dotted prefix such as runs/v1.2 is kept
    csv_path = Path(f"{out_prefix}.csv")
    trace = _simulate(cfg, K, csv_path)
    # the induced-gain bound applies to unit-energy shaped disturbances only
    gamma = (K.gamma_achieved
             if K.method == "nominal_hinf"
             and cfg["sim"]["input"]["kind"] == "unit_norm_l2" else None)
    m = metrics(trace, gamma=gamma)
    _write_json({"config": cfg, "metrics": m},
                Path(f"{out_prefix}.metrics.json"))
    print(f"trace written to {csv_path}; diverged={m['diverged']}")
    return 0


def cmd_verify(config: str, controller: str, out: str | None = None) -> int:
    cfg = load_config(config)
    K = read_controller(controller)
    params, channel = config_objects(cfg)
    spec = build_generalized_plant(params, channel)
    report = verify_design(spec, K, N_verify=2 * cfg["design"]["N"])
    report["config"] = cfg
    # the sweep draws detours within the channel's detour budget
    if K.method == "robust_qparam" and any(r > 0 for r, _ in
                                           channel.extra_paths):
        sweep = robust_stability_sweep(spec, K, n_cases=50, seed=0,
                                       N=cfg["design"]["N"])
        report["perturbation_sweep"] = {
            "n_cases": sweep["n_cases"],
            "all_stable": sweep["all_stable"],
            "n_unstable": sweep["n_unstable"],
            "min_spectral_margin": sweep["min_spectral_margin"],
        }
    if out:
        _write_json(report, Path(out))
    print(_json({k: v for k, v in report.items() if k != "config"}))
    ok = report["closed_loop_stable"] and report.get("small_gain_certified",
                                                     True)
    ok = ok and report.get("perturbation_sweep", {}).get("all_stable", True)
    return 0 if ok else 2


def cmd_reproduce_paper(out_dir: str) -> int:
    """Run the three reference experiments end to end with pinned seeds.

    Each figure designs from one bundled config and simulates on one, as
    ``design`` and ``simulate`` would (see ``_EXPERIMENTS``, each of whose
    configs is loaded once, before any design).  fig9 is the nominal
    design on its nominal channel; fig10 the nominal design at the lower
    transmit gain on nominal_40db's channel, where the detour path the
    design does not model destabilizes the loop; fig11 the robust design
    on the same channel.  The nominal Q* does not depend on the transmit gain,
    so fig10 reuses fig9's (checked to fit); G22, the closed loop and
    gamma are fig10's own.

    fig11's design does not depend on the other two, so it runs on a
    worker thread of a one-thread pool scoped to this call while this
    thread designs fig9 and then fig10.  numpy holds the GIL through
    eigvals and a values-only svd, so the threads' spectra and norm scans
    serialize, but most of a design is HiGHS's solves, which release it.
    Beside a loop of nominal_60db designs, a robust_40db design took 1.09
    s (median) on a second thread and 1.05 s in a second process, 1.00 s
    alone (24 designs each, 2-core host): the shared host costs the
    overlap about as much as the GIL does.  The outputs are those of the
    designs run one after the other.  An error in either design is
    raised here once the worker has finished (this thread's, when both
    fail), and no thread outlives the call.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfgs = {name: load_config(name) for name in dict.fromkeys(
        name for _, design, run, *_ in _EXPERIMENTS for name in (design, run))}
    summary = {"criteria": {}}
    failures = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        robust = pool.submit(_design, cfgs["robust_40db"])
        K = None
        for fig, design, run, expected, failure in _EXPERIMENTS:
            _, K = (robust.result() if design == "robust_40db"
                    else _design(cfgs[design], reuse=K))
            trace = _simulate(cfgs[run], K, out / f"{fig}.csv")
            g = K.gamma_achieved
            gammas = ({**g, "small_gain": g["gamma2"] <= 1.0}
                      if K.method == "robust_qparam" else {"gamma": g})
            outcome = "diverged" if trace.diverged else "stable"
            summary[fig] = {expected: outcome == expected, **gammas,
                            **metrics(trace)}
            summary["criteria"][fig] = outcome
            if outcome != expected:
                failures.append(f"{fig}: {failure}")
    summary["all_passed"] = not failures
    summary["failures"] = failures
    _write_json(summary, out / "summary.json")
    if failures:
        for f in failures:
            print(f"FAILED {f}", file=sys.stderr)
        return 2
    print(f"all three experiments reproduced; outputs in {out}")
    return 0


def cmd_lift_check(config: str, out: str | None, n_list) -> int:
    cfg = load_config(config)
    spec, K = _design(cfg)
    gammas = {}
    for N in n_list:
        gammas[int(N)] = sampled_data_norm(spec, K.sys, int(N))
    ns = sorted(gammas)
    diffs = {
        f"{a}->{b}": abs(gammas[b] - gammas[a]) / gammas[a]
        for a, b in zip(ns, ns[1:])
    }
    report = {"config": cfg, "gamma_by_N": gammas,
              "relative_successive_change": diffs}
    if out:
        _write_json(report, Path(out))
    print(_json({"gamma_by_N": gammas, "relative_successive_change": diffs}))
    return 0


# ---------------------------------------------------------------------------


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


class _CommandParser(argparse.ArgumentParser):
    """A malformed command line, before or after the command, is an
    input error and exits 1, as a bad configuration does, not argparse's
    2, which is the infeasible-synthesis code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _fast_rate_factors(text: str) -> list[int]:
    """``--n-list``: comma-separated positive integers."""
    try:
        factors = [int(x) for x in text.split(",") if x]
    except ValueError:
        factors = []
    if not factors or min(factors) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return factors


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first ``main`` of a process
    and reused: a parse keeps no state in the parser."""
    parser = _CommandParser(
        prog="relaycancel",
        description="design and simulate digital coupling-wave cancelers",
    )
    parser.add_argument("-v", "--log-level", default="WARNING",
                        type=str.upper, choices=_LOG_LEVELS,
                        help="level of the log records printed to stderr "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("design", help="synthesize a canceler from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("simulate", help="run the closed-loop simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--oversample", type=int, default=None)

    p = sub.add_parser("verify", help="re-check a design on a finer lifting")
    p.add_argument("--config", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce-paper",
                       help="run the three reference experiments")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("lift-check", help="FSFH convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--n-list", default="8,16,32", type=_fast_rate_factors,
                   help="comma-separated fast-rate factors")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("relaycancel").setLevel(args.log_level)
    try:
        if args.command == "design":
            return cmd_design(args.config, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.controller, args.out,
                                seed=args.seed, oversample=args.oversample)
        if args.command == "verify":
            return cmd_verify(args.config, args.controller, args.out)
        if args.command == "reproduce-paper":
            return cmd_reproduce_paper(args.out)
        if args.command == "lift-check":
            return cmd_lift_check(args.config, args.out, args.n_list)
    except SynthesisError as exc:
        print(f"synthesis infeasible: {exc}", file=sys.stderr)
        return 2
    # LinAlgError is a ValueError, so it is caught before the config errors
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
