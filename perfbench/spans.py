"""Span tracing of the service's layers, installed from outside.

:class:`Tracer` wraps public functions and methods of each layer while a
traced window runs, and restores them afterwards; nothing under ``src``
knows about it. Each call records a span: name, start, end, parent span,
request id, thread and a few attributes. Spans stay in memory and are
written as JSON lines when the run ends.

The request id comes from ``ServiceFrontEnd.submit``. It reaches the
shard thread through the job object: ``SLOPriorityScheduler.push`` sees
the queued entry, whose ``job`` is the object later handed to
``ShardPool.submit``; the tracer swaps that job for one that opens a
``serviced.job`` span carrying the request id and its queue wait.

Layers are the first component of a span name:

* ``serviced``: front end, admission, scheduler, shard pool
* ``service``: ``core/service.py`` and ``core/session.py``
* ``tuning``: the tuners (BO suggest and observe)
* ``engine``: the evaluation engine
* ``sparksim``: the simulator
* ``characterization``: execution signatures
* ``history``: the history store and its log
* ``similarity``: similarity search, the signature index, transfer
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import repro.core.characterization as characterization_mod
import repro.core.service as service_mod
import repro.core.serviced.frontend as frontend_mod
import repro.core.session as session_mod
import repro.core.transfer as transfer_mod
from repro.core.history import HistoryStore
from repro.core.histlog import HistoryLog
from repro.core.serviced import (
    REJECT_BUDGET,
    REJECT_QUEUE_FULL,
    REJECT_TENANT_CAP,
    ServiceFrontEnd,
    ShardPool,
    SLOPriorityScheduler,
)
from repro.core.service import TuningService
from repro.core.simindex import SignatureIndex
from repro.engine.engine import EvaluationEngine
from repro.sparksim.simulator import SparkSimulator
from repro.tuning.bo.bayesopt import BayesOptTuner

from .metrics import median, percentile, self_times
from .stack import N_SHARDS

LAYERS = ("serviced", "service", "tuning", "engine", "sparksim",
          "characterization", "history", "similarity")
#: the root span of every job a shard runs; its self time is ``other``
JOB = "serviced.job"
REQUEST = "serviced.request"


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int | None
    name: str
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the layers' public calls while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._request: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perfbench_request", default=None)
        #: job object -> (request id, accepted at)
        self._queued: dict[object, tuple[int | None, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------
    def _open(self, name: str, request: int | None = None) -> tuple[Span, object]:
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            span_id=next(self._ids),
            parent=parent.span_id if parent is not None else None,
            request=request if request is not None else self._request.get(),
            name=name, thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, name: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result
            finally:
                tracer._close(span, token)
        return wrapper

    # --- serviced: request ids, queue wait, job spans -------------------
    def _wrap_frontend_submit(self, fn):
        tracer = self

        @functools.wraps(fn)
        async def submit(self_, request, *args, **kwargs):
            rid = next(tracer._ids)
            tracer._request.set(rid)
            span, token = tracer._open(REQUEST, request=rid)
            span.attrs["kind"] = type(request).__name__
            try:
                outcome = await fn(self_, request, *args, **kwargs)
                span.attrs["accepted"] = outcome.accepted
                span.attrs["reason"] = outcome.reason
                return outcome
            finally:
                tracer._close(span, token)
        return submit

    def _wrap_push(self, fn):
        tracer = self

        @functools.wraps(fn)
        def push(self_, item, shard, *args, **kwargs):
            tracer._queued[item.job] = (tracer._request.get(), time.perf_counter())
            return fn(self_, item, shard, *args, **kwargs)
        return push

    def _wrap_pool_submit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def submit(self_, shard, job, *args, **kwargs):
            rid, accepted_at = tracer._queued.pop(job, (None, None))

            def traced_job(service):
                span, token = tracer._open(JOB, request=rid)
                span.attrs["shard"] = shard
                if accepted_at is not None:
                    span.attrs["queue_wait_s"] = span.start - accepted_at
                try:
                    return job(service)
                finally:
                    tracer._close(span, token)
            return fn(self_, shard, traced_job, *args, **kwargs)
        return submit

    # --- install / uninstall ----------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str, attrs=None) -> None:
        self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, attrs))

    def install(self) -> None:
        """Wrap every traced call; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(ServiceFrontEnd, "submit",
                    self._wrap_frontend_submit(ServiceFrontEnd.submit))
        self._patch(SLOPriorityScheduler, "push",
                    self._wrap_push(SLOPriorityScheduler.push))
        self._patch(ShardPool, "submit",
                    self._wrap_pool_submit(ShardPool.submit))
        self._span(frontend_mod, "ingest_production_runs", "serviced.ingest")

        self._span(TuningService, "submit", "service.submit")
        self._span(TuningService, "tune_cloud", "service.tune_cloud")
        self._span(TuningService, "tune_disc", "service.tune_disc")

        self._span(BayesOptTuner, "suggest", "tuning.suggest")
        self._span(BayesOptTuner, "observe", "tuning.observe")

        self._span(EvaluationEngine, "evaluate_batch", "engine.evaluate_batch",
                   lambda a, k, records: {
                       "requested": len(records),
                       "hits": sum(1 for r in records if r.cached),
                   })

        self._span(SparkSimulator, "run_batch", "sparksim.run_batch",
                   lambda a, k, results: {"runs": len(results)})
        self._span(SparkSimulator, "run", "sparksim.run",
                   lambda a, k, result: {"runs": 1})
        compile_fn = SparkSimulator.__dict__["compile_workload"]

        def compile_workload(sim, *args, **kwargs):
            hits = sim.plan_cache_hits
            plan = compile_fn(sim, *args, **kwargs)
            self._current.get().attrs["plan_cache_hit"] = sim.plan_cache_hits > hits
            return plan
        self._patch(SparkSimulator, "compile_workload",
                    self._wrap(compile_workload, "sparksim.compile_workload"))

        for module in (characterization_mod, service_mod, session_mod):
            self._span(module, "signature", "characterization.signature")

        self._span(HistoryStore, "record", "history.record")
        self._span(HistoryStore, "for_workload", "history.for_workload")
        self._span(HistoryLog, "tail", "history.tail",
                   lambda a, k, records: {"records": len(records)})

        self._span(service_mod, "build_transfer_plan", "similarity.transfer_plan")
        self._span(transfer_mod, "find_similar_workloads", "similarity.find_similar")
        self._span(SignatureIndex, "sync", "similarity.index_sync")
        self._span(SignatureIndex, "best_runtime_excluding",
                   "similarity.best_runtime_excluding")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def export(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "request": s.request,
                    "name": s.name, "thread": s.thread,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }, default=str) + "\n")


def _total(spans, name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def layer_summary(spans: list[Span], overheads: list[float]) -> dict:
    """Per-layer metrics of the traced windows.

    ``overheads`` holds :func:`overhead_share` of each pair of untraced
    and traced windows; the summary reports their median and range.
    """
    by_id = {s.span_id: s for s in spans}
    jobs = [s for s in spans if s.name == JOB]
    requests = [s for s in spans if s.name == REQUEST]
    in_jobs: list[Span] = []
    for s in spans:
        root = s
        while root.parent is not None and root.name != JOB:
            root = by_id[root.parent]
        if root.name == JOB:
            in_jobs.append(s)
    own = self_times([(s.span_id, s.parent, s.start, s.end) for s in in_jobs])
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    other = 0.0
    for s in in_jobs:
        if s.name == JOB:
            other += own[s.span_id]
        else:
            self_by_layer[s.name.split(".")[0]] += own[s.span_id]
    busy_by_shard: dict[int, float] = {}
    for s in jobs:
        shard = s.attrs["shard"]
        busy_by_shard[shard] = busy_by_shard.get(shard, 0.0) + s.end - s.start
    busy = sum(busy_by_shard.values())

    def named(name):
        return [s for s in in_jobs if s.name == name]

    waits = [s.attrs["queue_wait_s"] for s in jobs if "queue_wait_s" in s.attrs]
    refused: dict[str, int] = {}
    for s in requests:
        if not s.attrs.get("accepted", True) and s.attrs.get("reason"):
            refused[s.attrs["reason"]] = refused.get(s.attrs["reason"], 0) + 1
    suggests = named("tuning.suggest")
    evals = named("engine.evaluate_batch")
    requested = sum(s.attrs.get("requested", 0) for s in evals)
    batches = named("sparksim.run_batch")
    runs = named("sparksim.run")
    compiles = named("sparksim.compile_workload")
    tails = [s for s in in_jobs if s.name == "history.tail"
             and s.parent is not None
             and by_id[s.parent].name == "similarity.index_sync"]
    m = {
        "serviced.queue_wait_p50_s": _p(waits, 0.5),
        "serviced.queue_wait_p90_s": _p(waits, 0.9),
        "serviced.service_p50_s": _p([s.end - s.start for s in jobs], 0.5),
        "serviced.refused_share": (
            sum(refused.values()) / len(requests) if requests else 0.0
        ),
        **{f"serviced.refused.{reason}": float(refused.get(reason, 0))
           for reason in REFUSAL_REASONS},
        **{f"serviced.shard_busy_s.{i}": busy_by_shard.get(i, 0.0)
           for i in range(N_SHARDS)},
        "serviced.shard_imbalance": (
            max(busy_by_shard.values()) / (busy / N_SHARDS) if busy else 0.0
        ),
        "service.submit_s": _total(in_jobs, "service.submit"),
        "service.tune_cloud_s": _total(in_jobs, "service.tune_cloud"),
        "service.tune_disc_s": _total(in_jobs, "service.tune_disc"),
        "tuning.suggest_calls": float(len(suggests)),
        "tuning.suggest_s": _total(suggests, "tuning.suggest"),
        "tuning.suggest_p50_s": _p([s.end - s.start for s in suggests], 0.5),
        "tuning.observe_s": _total(in_jobs, "tuning.observe"),
        "engine.evaluate_batch_calls": float(len(evals)),
        "engine.evaluate_batch_s": _total(evals, "engine.evaluate_batch"),
        "engine.requested": float(requested),
        "engine.hit_share": (
            sum(s.attrs.get("hits", 0) for s in evals) / requested
            if requested else 0.0
        ),
        "sparksim.run_batch_calls": float(len(batches)),
        "sparksim.run_batch_s": _total(batches, "sparksim.run_batch"),
        "sparksim.run_calls": float(len(runs)),
        "sparksim.run_s": _total(runs, "sparksim.run"),
        "sparksim.runs": float(sum(s.attrs.get("runs", 0) for s in batches + runs)),
        "sparksim.batch_width_mean": (
            sum(s.attrs.get("runs", 0) for s in batches) / len(batches)
            if batches else 0.0
        ),
        "sparksim.plan_cache_hit_share": (
            sum(1 for s in compiles if s.attrs.get("plan_cache_hit"))
            / len(compiles) if compiles else 0.0
        ),
        "characterization.signature_calls": float(
            len(named("characterization.signature"))
        ),
        "characterization.signature_s": _total(
            in_jobs, "characterization.signature"
        ),
        "history.record_calls": float(len(named("history.record"))),
        "history.record_s": _total(in_jobs, "history.record"),
        "history.for_workload_s": _total(in_jobs, "history.for_workload"),
        "similarity.transfer_plan_s": _total(in_jobs, "similarity.transfer_plan"),
        "similarity.find_similar_s": _total(in_jobs, "similarity.find_similar"),
        "similarity.index_sync_s": _total(in_jobs, "similarity.index_sync"),
        "similarity.records_synced": float(
            sum(s.attrs.get("records", 0) for s in tails)
        ),
        "similarity.best_runtime_excluding_s": _total(
            in_jobs, "similarity.best_runtime_excluding"
        ),
        **{f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS},
        "other.self_s": other,
        "trace.coverage_share": 1.0 - other / busy if busy else 0.0,
        "trace.overhead_share": median(overheads),
        "trace.overhead_range_share": max(overheads) - min(overheads),
    }
    return {
        "metrics": {name: {"value": v, "unit": unit_of(name)}
                    for name, v in m.items()},
        "busy_s": busy,
        "spans": len(spans),
    }


REFUSAL_REASONS = (REJECT_QUEUE_FULL, REJECT_TENANT_CAP, REJECT_BUDGET)


def _p(values, q: float) -> float:
    return percentile(values, q).value if values else 0.0


def overhead_share(workload: str, untraced: float, traced: float) -> float:
    """Tracing's relative cost on the workload's headline metric
    (:func:`report.headline`); positive means the traced window was
    slower."""
    if workload == "tune":
        return traced / untraced - 1.0
    return 1.0 - traced / untraced


def unit_of(name: str) -> str:
    if name == "serviced.shard_imbalance":
        return "ratio"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s") or ".shard_busy_s." in name:
        return "s"
    return "count"


def print_layers(summary: dict) -> None:
    print(f"traced windows: {summary['spans']} spans, "
          f"shard busy {summary['busy_s']:.3f}s")
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:12.6g} {m['unit']}")
