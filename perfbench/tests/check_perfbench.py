"""Tests of the benchmark itself (not of the package).

The workload runs are short but real: each sets up the designs and runs
at least two ops, so the module takes a few minutes.
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from tracer import PACKAGE_MODULES, TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    seconds = "6" if workload == "simulate" else "0"
    out = _bench("--workload", workload, "--seed", "0", "--seconds", seconds,
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= bench.MIN_OPS
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert any(line.startswith("failed_ops_frac = 0 ") for line in lines)
    assert any(line.startswith("env {") for line in lines)
    assert any(line.startswith("wall: imports ") for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        assert result["metrics"]["trace.missing"]["value"] == 0
    elif workload == "simulate":
        assert any(line.startswith("op_s_p90 = ") for line in lines)


def test_wrong_reference_counts_as_failed_op():
    refs = bench.load_references()
    refs["simulate"]["robust_40db"]["l2_err"] *= 1.01
    r = bench.run("simulate", seed=refs["simulate"]["seed"], seconds=0,
                  trace=False, refs=refs)
    # ops alternate nominal, robust: every robust op fails, no other
    assert r["attempted"] >= 2
    assert [i for i, _, _ in r["failures"]] == list(range(1, r["attempted"], 2))
    assert "l2_err" in r["failures"][0][1][0]


def _module_functions():
    return {(m, k): v for m in PACKAGE_MODULES
            for k, v in vars(importlib.import_module(m)).items()
            if callable(v)}


def test_tracer_restores_the_original_functions():
    before = _module_functions()
    gone = ("lti.gone", "relaycancel.lti", "no_such_function", None)
    tracer = Tracer(targets=TARGETS + (gone,))
    with pytest.raises(ZeroDivisionError):
        with tracer.op(0):
            from relaycancel import cli, lti, synthesis
            assert synthesis.hinf_norm is not before[
                ("relaycancel.synthesis", "hinf_norm")]
            assert lti.hinf_norm is synthesis.hinf_norm
            cli.load_config("nominal_60db")
            1 / 0
    assert tracer.missing == ["lti.gone"]
    assert _module_functions() == before
    assert [s.name for s in tracer.spans] == ["op", "cli.load_config"]


def test_exits_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "verify", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_host_speed_scales_by_the_kernel_times_around_a_section():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # kernel times: 2 * ref before the section, 4 * ref inside it
    speed.stamps = [0.0, 1.0, 10.5, 11.0] + [11.0 + 0.1 * k for k in range(1, 9)]
    speed.samples = [2 * ref] * 2 + [4 * ref] * 10
    # ten wall seconds, one of them spent in the handler
    assert speed.seconds((10.0, 0.0), (20.0, 1.0)) == pytest.approx(9.0 / 4)
    # a short section takes the MIN_SAMPLES kernel times nearest to it
    assert speed.seconds((0.4, 0.0), (0.6, 0.0)) == pytest.approx(
        0.2 / ((2 * 2 + 6 * 4) / 8))


def test_host_speed_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(speed.samples) >= 2
    assert speed.busy == pytest.approx(sum(speed.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
