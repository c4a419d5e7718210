"""Benchmark of the relaycancel pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce|verify|simulate \
        --seed N --seconds S --trace 0|1

One process runs one workload: it sets up, then repeats the workload's op
(closed loop, one op at a time) for ``--seconds`` seconds, checks every
op's output against references recorded in ``references.json`` and prints
the metrics as the last line of standard output, a JSON object.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per-layer figures from wrapped package functions (see
``tracer.py``), and the spans are written to ``.perfbench_out/``.

BLAS is pinned to one thread before numpy is imported: with the default
thread count a design's wall time wanders by a third on a two-core host.

The end-to-end times are wall seconds scaled to a reference host speed:
a timer signal times a fixed kernel every quarter second throughout the
run (``hostspeed.py``), and each section's wall time, less the kernel's,
is multiplied by the reference kernel time over the mean kernel time
around it.  The unscaled wall times are printed on the ``wall:`` line.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "verify", "simulate")
# A run holds at least this many ops, even when one op outlasts --seconds.
MIN_OPS = 2
# The two simulate cases: bundled config, oversample, fine steps per op.
SIM_CASES = (("nominal_60db", 64), ("robust_40db", 80))
DESIGN_CONFIGS = ("nominal_60db", "robust_40db")


def load_references() -> dict:
    return json.loads((BENCH_DIR / "references.json").read_text())


def close(value, ref, rel_tol) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= rel_tol * abs(ref))


# ---------------------------------------------------------------------------
# set-up


def design_controllers(refs: dict) -> tuple[dict, list[str]]:
    """Design nominal_60db and robust_40db through the public functions.

    Returns {config name: (config, spec, controller)} and the problems
    found against the reference gammas.
    """
    from relaycancel import cli, lifting, relay, synthesis

    tol = refs["rel_tol"]
    designs = {}
    problems = []
    for name in DESIGN_CONFIGS:
        cfg = cli.load_config(name)
        params, channel = cli.config_objects(cfg)
        spec = relay.build_generalized_plant(params, channel)
        d = cfg["design"]
        if d["mode"] == "nominal":
            K = synthesis.synthesize_nominal(
                lifting.fsfh_lift(spec, d["N"]), tol=d["tol"], n_q=d["n_q"],
                grid_size=d["grid_size"])
            if not close(K.gamma_achieved, refs["design"][name]["gamma"], tol):
                problems.append(f"{name}: gamma {K.gamma_achieved!r}")
        else:
            W2 = relay.uncertainty_weight(channel, d["epsilon"])
            rp = synthesis.build_robust_plant(spec, W2, d["N"])
            K = synthesis.synthesize_robust(
                rp, n_q=d["n_q"], grid_size=d["grid_size"],
                margin=d["margin"], tol=d["tol"])
            K.meta["epsilon"] = d["epsilon"]
            g = K.gamma_achieved
            if not (close(g["gamma1"], refs["design"][name]["gamma1"], tol)
                    and g["gamma2"] <= 1.0):
                problems.append(f"{name}: gammas {g!r}")
        designs[name] = (cfg, spec, K)
    return designs, problems


class Workload:
    """Set-up state and ops of one workload.

    ``op(i)`` runs op i and returns a callable that checks its outputs and
    returns the problems found, so that the check stays untimed.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, refs: dict):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.refs = refs
        self.designs = {}
        self.first_sim = {}

    def setup(self) -> list[str]:
        from relaycancel import cli

        if self.name == "reproduce":
            for cfg in ("nominal_60db", "nominal_40db", "robust_40db"):
                cli.load_config(cfg)
            return []
        self.designs, problems = design_controllers(self.refs)
        if self.name == "simulate":
            for name, (_, _, K) in self.designs.items():
                cli.write_controller(K, self.work_dir / f"{name}.controller.yaml")
        return problems

    def prepare(self):
        """Untimed work before an op: clear the previous op's outputs."""
        out = self.work_dir / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()

    def op(self, i: int):
        """Run op i.  Returns a callable that checks its outputs."""
        return getattr(self, f"_op_{self.name}")(i)

    # -- reproduce ----------------------------------------------------------

    def _op_reproduce(self, i):
        from relaycancel import cli

        out = self.work_dir / "op"
        rc = cli.main(["reproduce-paper", "--out", str(out)])
        return lambda: self._check_reproduce(rc, out)

    def _check_reproduce(self, rc, out) -> list[str]:
        ref = self.refs["reproduce"]
        tol = self.refs["rel_tol"]
        if rc != 0:
            return [f"exit code {rc}"]
        s = json.loads((out / "summary.json").read_text())
        problems = []
        if not s.get("all_passed"):
            problems.append(f"failures {s.get('failures')}")
        for fig in ("fig9", "fig10"):
            if not close(s[fig]["gamma"], ref["nominal_gamma"], tol):
                problems.append(f"{fig} gamma {s[fig]['gamma']!r}")
        if not close(s["fig11"]["gamma1"], ref["robust_gamma1"], tol):
            problems.append(f"fig11 gamma1 {s['fig11']['gamma1']!r}")
        if not s["fig11"]["gamma2"] <= 1.0:
            problems.append(f"fig11 gamma2 {s['fig11']['gamma2']!r}")
        if s["fig10"]["diverged"] is not True:
            problems.append("fig10 did not diverge")
        for fig in ("fig9", "fig11"):
            for key in ("l2_err", "max_abs_err_tail"):
                if not close(s[fig][key], ref[fig][key], tol):
                    problems.append(f"{fig} {key} {s[fig][key]!r}")
        for fig in ("fig9", "fig10", "fig11"):
            if not (out / f"{fig}.csv").is_file():
                problems.append(f"{fig}.csv missing")
        return problems

    # -- verify -------------------------------------------------------------

    def _op_verify(self, i):
        from relaycancel import synthesis

        reports = {}
        for name, (cfg, spec, K) in self.designs.items():
            N = cfg["design"]["N"]
            rep = synthesis.verify_design(spec, K, N_verify=2 * N)
            if K.method == "robust_qparam" and spec.channel.extra_paths:
                rep["sweep"] = synthesis.robust_stability_sweep(
                    spec, K, n_cases=50, seed=self.seed, N=N)
            reports[name] = rep
        return lambda: self._check_verify(reports)

    def _check_verify(self, reports) -> list[str]:
        ref = self.refs["verify"]
        tol = self.refs["rel_tol"]
        problems = []
        for name, rep in reports.items():
            if not rep["closed_loop_stable"]:
                problems.append(f"{name}: closed loop unstable")
        nom = reports["nominal_60db"]
        if not close(nom["gamma_verify"], ref["nominal_60db_gamma_verify"], tol):
            problems.append(f"nominal_60db gamma_verify {nom['gamma_verify']!r}")
        rob = reports["robust_40db"]
        if rob.get("small_gain_certified") is not True:
            problems.append("robust_40db small gain not certified")
        sweep = rob.get("sweep", {})
        if not (sweep.get("all_stable") is True and sweep.get("n_cases") == 50):
            problems.append(f"robust_40db sweep {sweep.get('n_unstable')} unstable")
        return problems

    # -- simulate -----------------------------------------------------------

    def _op_simulate(self, i):
        from relaycancel import cli

        name, oversample = SIM_CASES[i % len(SIM_CASES)]
        prefix = self.work_dir / "op" / "trace"
        rc = cli.main([
            "simulate", "--config", name,
            "--controller", str(self.work_dir / f"{name}.controller.yaml"),
            "--out", str(prefix), "--seed", str(self.seed),
            "--oversample", str(oversample)])
        return lambda: self._check_simulate(rc, name, oversample, prefix)

    def _check_simulate(self, rc, name, oversample, prefix) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        ref = self.refs["simulate"]
        tol = self.refs["rel_tol"]
        m = json.loads(prefix.with_suffix(".metrics.json").read_text())["metrics"]
        problems = []
        if m["diverged"] is not ref[name]["diverged"]:
            problems.append(f"{name}: diverged={m['diverged']}")
        cfg = self.designs[name][0]
        steps = int(round(cfg["sim"]["duration"] * oversample))
        with open(prefix.with_suffix(".csv")) as fh:
            rows = sum(1 for _ in fh)
        if rows != steps + 1:
            problems.append(f"{name}: {rows} csv rows, expected {steps + 1}")
        values = (m["l2_err"], m["max_abs_err_tail"])
        if self.seed == ref["seed"]:
            for key in ("l2_err", "max_abs_err_tail"):
                if not close(m[key], ref[name][key], tol):
                    problems.append(f"{name}: {key} {m[key]!r}")
        elif not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"{name}: metrics {values!r}")
        # every op of a case in one run has the same inputs
        first = self.first_sim.setdefault(name, values)
        if values != first:
            problems.append(f"{name}: {values!r} differs from first op {first!r}")
        return problems


# ---------------------------------------------------------------------------
# measurement


def run(workload: str, seed: int, seconds: float, trace: bool,
        refs: dict | None = None, process_start: float | None = None) -> dict:
    """Set up, run ops for ``seconds`` and return the result record.

    Untraced runs sample the host's speed throughout (``hostspeed.py``) and
    report set-up and op times at the reference speed.  Traced runs do not
    sample, so that the kernel's time stays out of the spans, and report
    wall seconds.
    """
    refs = load_references() if refs is None else refs
    t0 = time.perf_counter() if process_start is None else process_start
    from hostspeed import HostSpeed  # imports numpy

    speed = HostSpeed()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        with contextlib.nullcontext() if trace else speed:
            # every module an op or a set-up uses, yaml included, so that
            # the one-time import cost is counted once, here
            import relaycancel.cli  # noqa: F401
            from tracer import Tracer
            import_s = time.perf_counter() - t0 - speed.busy
            tracer = Tracer() if trace else None
            wl = Workload(workload, seed, work_dir, refs)
            setup_problems = wl.setup()
            setup_end = speed.mark()
            # (op index, start mark, end mark) of traced and untraced ops
            op_marks = {True: [], False: []}
            failures = []
            attempted = 0
            while attempted < MIN_OPS or (
                    time.perf_counter() - setup_end[0]
                    + statistics.median(
                        e[0] - s[0]
                        for _, s, e in op_marks[False] or op_marks[True])
                    <= seconds):
                i = attempted
                # traced runs alternate traced and untraced ops,
                # (t, u, u, t), so both simulate cases are seen both ways
                traced = tracer is not None and i % 4 in (0, 3)
                wl.prepare()
                attempted += 1
                sink = io.StringIO()
                check, problems = None, []
                start = speed.mark()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        if traced:
                            with tracer.op(i):
                                check = wl.op(i)
                        else:
                            check = wl.op(i)
                except Exception as exc:  # an op that raises is a failed op
                    problems = [f"{type(exc).__name__}: {exc}"]
                op_marks[traced].append((i, start, speed.mark()))
                if check is not None:
                    try:
                        problems = check()
                    except Exception as exc:  # unreadable output fails it
                        problems = [f"check: {type(exc).__name__}: {exc}"]
                if problems:
                    failures.append((i, problems, sink.getvalue()[-2000:]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def section_s(start, end):
        return end[0] - start[0] if trace else speed.seconds(start, end)

    def p50(marks, seconds_of):
        """Median op time; on simulate, the mean of each case's median.

        The simulate cases alternate and differ in size, so a median over
        both would fall in the gap between them and jump with the number
        of ops of each.
        """
        cases = {}
        for i, start, end in marks:
            cases.setdefault(i % n_cases, []).append(seconds_of(start, end))
        return statistics.fmean(statistics.median(v) for v in cases.values())

    def wall_s(start, end):
        return end[0] - start[0] - (end[1] - start[1])

    n_cases = len(SIM_CASES) if workload == "simulate" else 1
    untraced_marks = op_marks[False] or op_marks[True]
    untraced = [section_s(s, e) for _, s, e in untraced_marks]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_problems": setup_problems,
        "import_s": import_s,
        "setup_wall_s": setup_end[0] - t0 - setup_end[1],
        "setup_s": section_s((t0, 0.0), setup_end),
        "op_s_p50": p50(untraced_marks, section_s),
        "op_wall_s_p50": p50(untraced_marks, wall_s),
        "speed_samples": len(speed.samples),
        "speed_kernel_s_p50": (statistics.median(speed.samples)
                               if speed.samples else math.nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(untraced) >= 10:
        result["op_s_p90"] = statistics.quantiles(untraced, n=10)[-1]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["trace_op_s_p50"] = p50(op_marks[True], section_s)
        result["tracer"] = tracer
    return result


def end_to_end_metrics(r: dict) -> dict:
    return {
        "setup_s": (r["setup_s"], "s"),
        "op_s_p50": (r["op_s_p50"], "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(r: dict) -> dict:
    m = dict(r["layers"])
    m["trace.op_s_p50"] = (r["trace_op_s_p50"], "s")
    m["trace.overhead_ratio"] = (r["trace_op_s_p50"] / r["op_s_p50"],
                                 "ratio")
    return m


# ---------------------------------------------------------------------------
# environment


def _git_sha() -> str:
    # the ceiling keeps git from taking the SHA of an enclosing repository
    # when the checkout is not one itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads(lib_dir: Path):
    """Thread count of each OpenBLAS a wheel bundles, by library name."""
    found = {}
    for lib in sorted(lib_dir.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib.name] = fn()
                break
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        threads.update(_blas_threads(Path(pkg.__file__).parent.parent
                                     / f"{pkg.__name__}.libs"))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="verify: sweep seed; simulate: input seed; "
                        "reproduce ignores it (its seeds are pinned)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relaycancel" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))

    r = run(args.workload, args.seed, args.seconds, bool(args.trace),
            process_start=_PROCESS_START)
    env = environment()
    env["seed_used"] = args.workload != "reproduce"
    print("env " + json.dumps(env, sort_keys=True))
    for i, problems, output in r["failures"][:5]:
        print(f"op {i} failed: {problems}\n{output}", file=sys.stderr)
    for problem in r["setup_problems"]:
        print(f"set-up check failed: {problem}", file=sys.stderr)

    metrics = (per_layer_metrics(r) if args.trace else end_to_end_metrics(r))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    speed = (f"; host-speed kernel p50 {r['speed_kernel_s_p50']:.4g} s "
             f"(n={r['speed_samples']})" if r["speed_samples"] else "")
    print(f"wall: imports {r['import_s']:.4g} s; set-up with imports "
          f"{r['setup_wall_s']:.4g} s; op p50 {r['op_wall_s_p50']:.6g} s"
          + speed)
    print(f"failed_ops_frac = {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} ops)")
    if args.workload == "simulate" and not args.trace and "op_s_p90" in r:
        print(f"op_s_p90 = {r['op_s_p90']:.6g} s "
              f"(n={r['attempted']} ops)")
    if args.trace:
        if r["tracer"].missing:
            print(f"missing: {r['tracer'].missing}")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        r["tracer"].write(path, {"env": env, "workload": args.workload,
                                 "seed": args.seed})
        print(f"spans written to {path}")

    correct = r["failed"] == 0 and not r["setup_problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
