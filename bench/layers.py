"""Outside-in span tracer for the benchmark's traced pass.

The tracer wraps public *class attributes* of the ``repro`` package
(methods looked up on the class at call time) with timing spans, runs
the workload, and restores the original attributes afterwards. Nothing
under ``src/`` knows it is being traced. Module-level functions that
other modules import by name cannot be patched this way, so every
layer boundary here is a method.

Each span records its name, start, end, the id of the enclosing span
and the id of the benchmark op it belongs to. Spans stay in memory and
are written out as JSONL when the traced run ends. A layer's self time
is its span's duration minus the part of that interval its child spans
cover; :func:`layer_metrics` turns spans and the counters read by the
post-call hooks into the benchmark's per-layer metrics.

Only the traced child process imports this module, so the processes
that measure end-to-end metrics never carry its code.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


#: Name of the root span the benchmark opens around each traced op.
OP_SPAN = "op"

# -- post-call hooks: counters read where the work happens ----------------


def _after_system_run(tracer: "Tracer", args: tuple, result) -> None:
    """Engine counters, epoch path counts and perf-model error of one
    finished :meth:`SystemSimulator.run`."""
    sim = args[0]
    engine = sim.engine
    counts = tracer.counts
    counts["events_processed"] += engine.events_processed
    counts["events_fast_forwarded"] += engine.events_fast_forwarded
    counts["events_busy_absorbed"] += engine.events_busy_absorbed
    counts["epochs"] += result.epochs
    counts["transitions"] += result.transition_count
    policy = getattr(sim.governor, "policy", None)
    decisions = getattr(policy, "decisions", None)
    if decisions:
        apps = [core.app_name for core in sim.workload.cores]
        tracer.cpi_errors.extend(cpi_errors(decisions, result.timeline, apps))


def _after_cache_load(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["cache_loads"] += 1
    if result is not None:
        tracer.counts["cache_hits"] += 1


#: (module, class, attribute, span name, post-call hook). Each span name
#: is a layer boundary; the per-layer metrics below are derived from
#: these names.
TARGETS = (
    ("repro.sim.system", "SystemSimulator", "__init__",
     "sim.system.build", None),
    ("repro.sim.system", "SystemSimulator", "run",
     "sim.system.run", _after_system_run),
    ("repro.memsim.engine", "EventEngine", "run_until_stopped",
     "memsim.dispatch", None),
    ("repro.memsim.controller", "MemoryController", "snapshot",
     "memsim.snapshot", None),
    ("repro.memsim.counters", "CounterFile", "delta",
     "memsim.delta", None),
    ("repro.core.policy", "MemScalePolicy", "select_frequency",
     "core.policy.select", None),
    ("repro.core.policy", "MemScalePolicy", "update_slack",
     "core.policy.slack", None),
    ("repro.core.power_model", "PowerModel", "measure",
     "core.power.measure", None),
    ("repro.cpu.workloads", "TraceGenerator", "generate_mix",
     "cpu.trace_gen", None),
    ("repro.sim.cache", "ExperimentCache", "load_trace",
     "sim.cache.load", _after_cache_load),
    ("repro.sim.cache", "ExperimentCache", "load_run",
     "sim.cache.load", _after_cache_load),
    ("repro.sim.cache", "ExperimentCache", "store_trace",
     "sim.cache.store", None),
    ("repro.sim.cache", "ExperimentCache", "store_run",
     "sim.cache.store", None),
    ("repro.sim.telemetry", "JsonlTelemetry", "emit",
     "sim.telemetry.emit", None),
)

#: Spans of the epoch path: the policy's ladder scan and slack update
#: and the power model. Their share of an op is the run-ilp / run-mem
#: contrast the benchmark predicts.
CORE_SPANS = ("core.policy.select", "core.policy.slack", "core.power.measure")


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.cpi_errors: List[float] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._saved: List[tuple] = []

    # -- install / remove ----------------------------------------------------

    def install(self, targets: Sequence[tuple] = TARGETS) -> None:
        """Replace each target attribute with a span-recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, cls_name, attr, name, hook in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        """Put every original class attribute back, most recent first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _wrap(self, original, name: str, hook: Optional[Callable]):
        if isinstance(original, (staticmethod, classmethod)):
            return type(original)(self._wrap(original.__func__, name, hook))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, name, start, end)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- span bookkeeping ----------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans) + len(self._stack)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent, self._op))

    def run_op(self, op_id: int, fn: Callable[[], object]) -> object:
        """Call ``fn`` inside a root :data:`OP_SPAN` span tagged ``op_id``."""
        self._op = op_id
        sid = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, OP_SPAN, start, time.perf_counter())
            self._op = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


def cpi_errors(decisions, timeline, core_apps: Sequence[str]) -> List[float]:
    """Per-epoch, per-app |predicted - achieved| / achieved CPI, the
    predicted value being the policy's CPI at its chosen frequency
    (the computation of ``benchmarks/bench_model_accuracy.py``)."""
    errors: List[float] = []
    for decision, sample in zip(decisions, timeline):
        by_app: Dict[str, List[float]] = {}
        for core, app in enumerate(core_apps):
            by_app.setdefault(app, []).append(
                float(decision.predicted_cpi[core]))
        for app, achieved in sample.app_cpi.items():
            if achieved <= 0 or app not in by_app:
                continue
            errors.append(abs(float(np.mean(by_app[app])) - achieved)
                          / achieved)
    return errors


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-op layer metrics from the spans and counters of ``tracer``.

    Times are seconds per traced op; counts are per traced op.
    """
    spans = tracer.spans
    ops = [s for s in spans if s.name == OP_SPAN]
    if not ops:
        raise ValueError("no traced op recorded")
    n = len(ops)
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.id]
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
    op_s = total_s[OP_SPAN]
    named_self = sum(v for k, v in self_s.items() if k != OP_SPAN)
    core_s = sum(self_s[k] for k in CORE_SPANS)

    c = tracer.counts
    processed = c["events_processed"]
    elided = c["events_fast_forwarded"] + c["events_busy_absorbed"]
    errors = tracer.cpi_errors
    return {
        "memsim.dispatch_s": self_s["memsim.dispatch"] / n,
        "memsim.ns_per_event": (self_s["memsim.dispatch"] / processed * 1e9
                                if processed else 0.0),
        "memsim.events_processed": processed / n,
        "memsim.events_fast_forwarded": c["events_fast_forwarded"] / n,
        "memsim.events_busy_absorbed": c["events_busy_absorbed"] / n,
        "memsim.elided_ratio": (elided / (processed + elided)
                                if processed + elided else 0.0),
        "memsim.snapshot_s": (self_s["memsim.snapshot"]
                              + self_s["memsim.delta"]) / n,
        "core.policy.select_s": self_s["core.policy.select"] / n,
        "core.policy.slack_s": self_s["core.policy.slack"] / n,
        "core.power.measure_s": self_s["core.power.measure"] / n,
        "core.share_pct": 100.0 * core_s / op_s,
        "core.epochs": c["epochs"] / n,
        "core.us_per_epoch": (core_s / c["epochs"] * 1e6
                              if c["epochs"] else 0.0),
        "core.transitions": c["transitions"] / n,
        "core.perf_model.cpi_err_mean_pct": (100.0 * float(np.mean(errors))
                                             if errors else 0.0),
        "core.perf_model.cpi_err_p90_pct": (
            100.0 * float(np.percentile(errors, 90)) if errors else 0.0),
        "sim.system.build_s": total_s["sim.system.build"] / n,
        "sim.system.run_s": total_s["sim.system.run"] / n,
        "sim.system.self_s": self_s["sim.system.run"] / n,
        "cpu.trace_gen_s": total_s["cpu.trace_gen"] / n,
        "sim.cache.load_s": total_s["sim.cache.load"] / n,
        "sim.cache.store_s": total_s["sim.cache.store"] / n,
        "sim.cache.loads": c["cache_loads"] / n,
        "sim.cache.hit_ratio": (c["cache_hits"] / c["cache_loads"]
                                if c["cache_loads"] else 0.0),
        "sim.telemetry.emit_s": total_s["sim.telemetry.emit"] / n,
        "sim.telemetry.records": calls["sim.telemetry.emit"] / n,
        "bench.trace_coverage_pct": 100.0 * named_self / op_s,
    }
