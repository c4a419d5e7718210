"""Layer tracing from outside the package.

Each traced function is replaced, for the length of a traced op, by a
wrapper in every ``relaycancel`` module namespace that holds it.  That is
the place where a calling module looks the name up, so a call from
``cli`` into ``synthesis.synthesize_nominal`` and a call from ``synthesis``
into ``lti.hinf_norm`` are both seen, while nothing under ``src/``
changes.  Spans (name, start, end, parent, op) are kept in memory and
written out when the benchmark ends.

A target whose module or attribute no longer exists is recorded as
missing instead of failing, so that refactors which merge or rename
functions leave the benchmark running and say what it could not see.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field

# Every module of the package: a traced function is patched wherever one
# of these holds it.
PACKAGE_MODULES = (
    "relaycancel",
    "relaycancel.cli",
    "relaycancel.synthesis",
    "relaycancel.lifting",
    "relaycancel.lti",
    "relaycancel.relay",
    "relaycancel.sim",
)


def _n_states(args, kwargs, result):
    sys = args[0] if args else kwargs.get("sys")
    return {"states": int(getattr(sys, "n_states", 0))}


def _steps(args, kwargs, result):
    return {"steps": int(getattr(getattr(result, "t", ()), "size", 0))}


def _design_meta(args, kwargs, result):
    meta = getattr(result, "meta", {}) or {}
    return {"iterations": int(meta.get("iterations", 0)),
            "cuts": int(meta.get("n_cuts", 0)),
            "attempts": int(meta.get("attempts", 0))}


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


# (span name, defining module, attribute, extractor of per-call counts).
# The span name is the layer and the function; the "highs" layer is scipy's
# HiGHS linprog as synthesis calls it.
TARGETS = (
    ("cli.load_config", "relaycancel.cli", "load_config", None),
    ("cli.read_controller", "relaycancel.cli", "read_controller", None),
    ("cli.write_trace_csv", "relaycancel.cli", "write_trace_csv",
     _written_bytes),
    ("synthesis.synthesize_nominal", "relaycancel.synthesis",
     "synthesize_nominal", _design_meta),
    ("synthesis.synthesize_robust", "relaycancel.synthesis",
     "synthesize_robust", _design_meta),
    ("synthesis.build_robust_plant", "relaycancel.synthesis",
     "build_robust_plant", None),
    ("synthesis.verify_design", "relaycancel.synthesis", "verify_design",
     None),
    ("synthesis.robust_stability_sweep", "relaycancel.synthesis",
     "robust_stability_sweep", None),
    ("highs.linprog", "relaycancel.synthesis", "linprog", None),
    ("lifting.fsfh_lift", "relaycancel.lifting", "fsfh_lift", None),
    ("lifting.lift_core", "relaycancel.lifting", "lift_core", None),
    ("lifting.lifted_closed_loop", "relaycancel.lifting",
     "lifted_closed_loop", None),
    ("lti.hinf_norm", "relaycancel.lti", "hinf_norm", _n_states),
    ("lti.is_stable", "relaycancel.lti", "is_stable", None),
    ("lti.stability_margin", "relaycancel.lti", "stability_margin", None),
    ("lti.frequency_response", "relaycancel.lti", "frequency_response",
     None),
    ("lti.interconnect", "relaycancel.lti", "interconnect", None),
    ("lti.subsystem", "relaycancel.lti", "subsystem", None),
    ("lti.zoh_discretize", "relaycancel.lti", "zoh_discretize", None),
    ("relay.build_generalized_plant", "relaycancel.relay",
     "build_generalized_plant", None),
    ("relay.build_perturbed_plant", "relaycancel.relay",
     "build_perturbed_plant", None),
    ("relay.uncertainty_weight", "relaycancel.relay", "uncertainty_weight",
     None),
    ("relay.assemble_plant_core", "relaycancel.relay", "assemble_plant_core",
     None),
    ("relay.assemble_robust_core", "relaycancel.relay",
     "assemble_robust_core", None),
    ("sim.simulate_closed_loop", "relaycancel.sim", "simulate_closed_loop",
     _steps),
    ("sim.metrics", "relaycancel.sim", "metrics", None),
)

LAYERS = ("cli", "synthesis", "highs", "lifting", "lti", "relay", "sim")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the traced functions while installed and records spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self._op = -1

    # -- installing ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        missing = []
        for name, mod_name, attr, extract in self.targets:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, extract)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        self.missing = missing

    def uninstall(self):
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def _wrap(self, name, original, extract):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self._op,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def op(self, index: int):
        """Install the wrappers and record op ``index`` as a root span."""
        self.install()
        root = Span(len(self.spans), None, "op", index, time.perf_counter())
        self.spans.append(root)
        self._stack.append(root)
        self._op = index
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._stack.clear()
            self._op = -1
            self.uninstall()

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op layer figures, averaged over the traced ops.

        Times are busy seconds per op, including nested calls;
        ``<layer>.self.s`` is the time of a layer's spans minus their child
        spans, and ``op.unattributed.s`` is the part of an op that no
        traced function covers.
        """
        roots = [s for s in self.spans if s.name == "op"]
        n_ops = len(roots)
        if not n_ops:
            return {}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        attrs: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        max_states = 0
        for s in self.spans:
            if s.name == "op":
                continue
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
            self_time[s.name.split(".")[0]] += s.duration - child_time.get(s.id, 0.0)
            for key, value in s.attrs.items():
                if key == "states":
                    max_states = max(max_states, value)
                else:
                    attrs[f"{s.name}.{key}"] = attrs.get(f"{s.name}.{key}", 0) + value

        op_wall = sum(r.duration for r in roots)
        top = sum(child_time.get(r.id, 0.0) for r in roots)
        minimax_self = sum(
            s.duration - child_time.get(s.id, 0.0) for s in self.spans
            if s.name in ("synthesis.synthesize_nominal",
                          "synthesis.synthesize_robust"))
        steps = attrs.get("sim.simulate_closed_loop.steps", 0)
        sim_s = busy.get("sim.simulate_closed_loop", 0.0)

        def per_op(x):
            return x / n_ops

        def attr(key):
            return per_op(attrs.get(key, 0))

        m = {
            "synthesis.minimax_self.s": (per_op(minimax_self), "s"),
            "synthesis.lp.s": (per_op(busy.get("highs.linprog", 0.0)), "s"),
            "synthesis.lp.calls": (per_op(calls.get("highs.linprog", 0)),
                                   "count"),
            "synthesis.minimax.iterations": (
                attr("synthesis.synthesize_nominal.iterations")
                + attr("synthesis.synthesize_robust.iterations"), "count"),
            "synthesis.minimax.cuts": (
                attr("synthesis.synthesize_nominal.cuts")
                + attr("synthesis.synthesize_robust.cuts"), "count"),
            "synthesis.robust.attempts": (
                attr("synthesis.synthesize_robust.attempts"), "count"),
        }
        for name in ("lti.hinf_norm", "lti.is_stable", "lti.frequency_response",
                     "lifting.fsfh_lift", "relay.build_perturbed_plant"):
            m[f"{name}.s"] = (per_op(busy.get(name, 0.0)), "s")
            m[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count")
        m["lti.hinf_norm.max_states"] = (max_states, "count")
        for name in ("lifting.lifted_closed_loop", "synthesis.verify_design",
                     "synthesis.robust_stability_sweep",
                     "sim.simulate_closed_loop", "cli.read_controller",
                     "cli.write_trace_csv", "cli.load_config"):
            m[f"{name}.s"] = (per_op(busy.get(name, 0.0)), "s")
        m["sim.steps"] = (per_op(steps), "count")
        m["sim.step_us"] = (1e6 * sim_s / steps if steps else 0.0, "us")
        m["cli.trace_csv_bytes"] = (attr("cli.write_trace_csv.bytes"), "bytes")
        for layer in LAYERS:
            m[f"{layer}.self.s"] = (per_op(self_time[layer]), "s")
        m["op.unattributed.s"] = (per_op(op_wall - top), "s")
        m["trace.coverage"] = (top / op_wall if op_wall > 0 else 0.0, "ratio")
        m["trace.spans"] = (per_op(len(self.spans) - n_ops), "count")
        m["trace.missing"] = (len(self.missing), "count")
        return m

    def write(self, path, extra: dict):
        """Write every span, the missing targets and ``extra`` as JSON."""
        doc = {
            **extra,
            "missing": self.missing,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name, "op": s.op,
                 "start": s.start, "end": s.end, **({"attrs": s.attrs}
                                                    if s.attrs else {})}
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
