"""Per-layer metrics for traced runs (``--trace 1``).

A traced run drives exactly the same workload as an untraced one, with
two additions, both made from this file:

* timing wrappers around each layer's public entry points — the
  planner, the service's index build, the R-tree probe, the op-table
  manager's refresh-then-sweep and the sweep itself, the batched BOUNDS
  entry point, the database mutators, the WAL
  append, the compactor cycle and checkpoint save/load — accumulated
  per workload phase;
* the program's own tracing switched on, so service results carry their
  span trees (``lock-wait`` …) and the sharded router's finished trees
  (``fanout`` / ``shard.execute`` / ``merge``) are kept.

The fault plan handed to the shard tier and to checkpoints is the
production pass-through plan, in traced runs with timers and counters
(fsyncs, appended bytes).
Metrics of a layer a workload never reaches read 0.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.bounds import BoundsEngine
from repro.core import optable
from repro.core.optable import OpTableManager
from repro.db import persistence
from repro.db.database import MultimediaDatabase
from repro.index.rtree import RTree
from repro.obs import trace
from repro.service import QueryService
from repro.service.planner import CostBasedPlanner
from repro.shard import Compactor, sharded, wal
from repro.testing.faults import NoFaults

from perfbench.measure import percentile

#: Per-layer metrics: name -> (unit, better).  The README says which
#: end-to-end metric each should move, on which workload.
PER_LAYER = {
    "planner.plan_ms": ("ms", "lower"),
    "planner.share.index_assisted": ("ratio", "higher"),
    "planner.share.vectorized_batch": ("ratio", "higher"),
    "planner.share.bwm": ("ratio", "higher"),
    "planner.share.linear_rbm": ("ratio", "lower"),
    "planner.est_over_actual": ("ratio", "lower"),
    "service.lock_wait_ms": ("ms", "lower"),
    "service.handoff_ms": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.invalidations_per_mutation": ("count", "lower"),
    "index.build_s": ("s", "lower"),
    "index.probe_ms": ("ms", "lower"),
    "index.candidates_per_match": ("ratio", "lower"),
    "index.rebuilds": ("count", "higher"),
    "optable.refresh_ms": ("ms", "lower"),
    "optable.sweep_ms": ("ms", "lower"),
    "bounds.batch_ms": ("ms", "lower"),
    "bounds.memo_hit_ratio": ("ratio", "higher"),
    "bounds.cold_query_ms": ("ms", "lower"),
    "rbm.rules_applied_per_query": ("count", "lower"),
    "rbm.histograms_checked_per_query": ("count", "lower"),
    "bwm.short_circuit_share": ("ratio", "higher"),
    "query.precision": ("ratio", "higher"),
    "db.insert_ms": ("ms", "lower"),
    "db.mutation_ms": ("ms", "lower"),
    "shard.fanout_ms": ("ms", "lower"),
    "shard.merge_ms": ("ms", "lower"),
    "shard.straggler_ratio": ("ratio", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.fsyncs_per_mutation": ("count", "lower"),
    "wal.bytes_per_mutation": ("bytes", "lower"),
    "wal.replay_records": ("count", "lower"),
    "compactor.run_ms": ("ms", "lower"),
    "compactor.materialized": ("count", "higher"),
    "persist.save_ms": ("ms", "lower"),
    "persist.write_ms": ("ms", "lower"),
    "persist.load_ms": ("ms", "lower"),
    "events.bytes": ("bytes", "lower"),
    "reopen.after_checkpoint_s": ("s", "lower"),
    "traced.query_p50_ms": ("ms", "lower"),
}


class TimedPlan(NoFaults):
    """The production pass-through fault plan, timing every durable write.

    Each call (file write, append, fsync, rename) is timed and counted
    per phase on the probe, appends with their bytes.
    """

    def __init__(self, probe: "Probe") -> None:
        self._probe = probe

    def _timed(self, name: str, call: Callable, *args, items: int = 0) -> None:
        started = perf_counter()
        call(*args)
        self._probe.add(name, perf_counter() - started, items)

    def write_bytes(self, path, payload: bytes) -> None:
        self._timed("write_bytes", super().write_bytes, path, payload)

    def append_bytes(self, path, payload: bytes) -> None:
        self._timed("append_bytes", super().append_bytes, path, payload, items=len(payload))

    def fsync(self, path) -> None:
        self._timed("fsync", super().fsync, path)

    def rename(self, source, target) -> None:
        self._timed("rename", super().rename, source, target)


class _RecordingTracer(trace.Tracer):
    """A live tracer that hands its finished root to the probe."""

    __slots__ = ("probe",)

    def __init__(self, probe: "Probe", name: str, trace_id: Optional[str]) -> None:
        super().__init__(name, trace_id=trace_id)
        self.probe = probe

    def finish(self) -> trace.Span:
        root = super().finish()
        if self.probe.phase == "query":
            self.probe.roots.append(root)
        return root


class Probe:
    """Phase-keyed timers and counters; inert unless ``traced``."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: Handed to every save and to the shard tier in both modes.
        self.faults = TimedPlan(self) if traced else NoFaults()
        self.seconds: Dict[tuple, float] = defaultdict(float)
        self.calls: Dict[tuple, int] = defaultdict(int)
        self.items: Dict[tuple, int] = defaultdict(int)
        self.entries: Dict[str, int] = defaultdict(int)
        #: Finished sharded-router trace roots of the query phase.
        self.roots: List[trace.Span] = []
        self._phase = "idle"
        self._lock = threading.Lock()
        self._ignored: set = set()
        self._undo: List[tuple] = []

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, name: str) -> None:
        if name != self._phase:
            self.entries[name] += 1
        self._phase = name

    def ignore(self, *objects: object) -> None:
        """Leave calls on these objects (the oracle's replica) uncounted."""
        self._ignored.update(id(obj) for obj in objects)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        key = (self._phase, name)
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += 1
            self.items[key] += items

    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        if not self.traced:
            return self
        self._wrap(CostBasedPlanner, "plan", "plan")
        self._wrap(QueryService, "refresh_indexes", "index_build")
        self._wrap(RTree, "search", "rtree_search", len)
        self._wrap(OpTableManager, "compute", "optable_compute")
        self._wrap(optable, "sweep_table", "optable_sweep")
        self._wrap(BoundsEngine, "bounds_all_bins_batch", "bounds_batch")
        for mutator in ("insert_image", "insert_edited", "update_image", "delete_edited"):
            self._wrap(MultimediaDatabase, mutator, "db_write")
        self._wrap(wal.ShardWAL, "append", "wal_append")
        self._wrap(Compactor, "run_once", "compactor_run", lambda report: len(report.materialized))
        for module in (persistence, sharded):
            self._wrap(module, "save_database", "save")
            self._wrap(module, "load_database", "load")
        self._patch(
            sharded,
            "maybe_tracer",
            lambda name="query", trace_id=None: _RecordingTracer(self, name, trace_id),
        )
        self._tracing_before = trace.set_tracing(True)
        return self

    def __exit__(self, *exc: object) -> None:
        if not self.traced:
            return
        trace.set_tracing(self._tracing_before)
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _wrap(self, owner, attribute: str, name: str, size: Optional[Callable] = None) -> None:
        original = getattr(owner, attribute)
        probe = self

        def timed(*args, **kwargs):
            if args and id(args[0]) in probe._ignored:
                return original(*args, **kwargs)
            started = perf_counter()
            result = original(*args, **kwargs)
            probe.add(name, perf_counter() - started, size(result) if size else 0)
            return result

        self._patch(owner, attribute, timed)

    # ------------------------------------------------------------------
    def total(self, phase: str, name: str) -> float:
        return self.seconds.get((phase, name), 0.0)

    def per(self, phase: str, name: str, count: float) -> float:
        """Seconds of ``name`` in ``phase`` per ``count`` (0 when none)."""
        return self.total(phase, name) / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _span(root, name: str):
    return next((span for span in root.iter_spans() if span.name == name), None)


def per_layer(run, probe: Probe) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric of one traced run, by name with its unit."""
    records = run.queries
    count = len(records)
    served = [record.served for record in records if record.served is not None]
    strategies = Counter(plan.strategy.value for result in served for plan in result.plans)
    planned = sum(strategies.values())
    estimated = sum(plan.estimated_cost for result in served for plan in result.plans)
    actual = sum(
        result.result.stats.histograms_checked + result.result.stats.rules_applied
        for result in served
    )
    bwm = [
        record.result.stats
        for record in records
        if record.served is None or record.served.strategy.value == "bwm"
    ]
    lock_waits = [_span(result.trace, "lock-wait").duration for result in served]
    handoffs = [record.wall - record.served.seconds for record in records if record.served]
    fanouts, merges, stragglers = [], [], []
    for root in probe.roots:
        fanout = _span(root, "fanout")
        fanouts.append(fanout.duration)
        merges.append(_span(root, "merge").duration)
        shards = sorted(span.duration for span in fanout.children if span.name == "shard.execute")
        stragglers.append(shards[-1] / shards[len(shards) // 2] if shards else 0.0)
    facts = run.facts
    mutations = len(run.mutations)
    wal_calls = sum(calls for (_, name), calls in probe.calls.items() if name == "wal_append")
    wal_seconds = sum(seconds for (_, name), seconds in probe.seconds.items() if name == "wal_append")
    values = {
        "planner.plan_ms": probe.per("query", "plan", probe.calls[("query", "plan")]) * 1e3,
        "planner.share.index_assisted": _ratio(strategies["index_assisted"], planned),
        "planner.share.vectorized_batch": _ratio(strategies["vectorized_batch"], planned),
        "planner.share.bwm": _ratio(strategies["bwm"], planned),
        "planner.share.linear_rbm": _ratio(strategies["linear_rbm"], planned),
        "planner.est_over_actual": _ratio(estimated, actual),
        "service.lock_wait_ms": _mean(lock_waits) * 1e3,
        "service.handoff_ms": _mean(handoffs) * 1e3,
        "cache.hit_ratio": _ratio(
            facts.get("cache_hits", 0), facts.get("cache_hits", 0) + facts.get("cache_misses", 0)
        ),
        "cache.invalidations_per_mutation": _ratio(facts.get("cache_invalidations", 0), mutations),
        "index.build_s": probe.per("setup", "index_build", probe.calls[("setup", "index_build")]),
        "index.probe_ms": probe.per("query", "rtree_search", count) * 1e3,
        "index.candidates_per_match": _ratio(
            probe.items[("query", "rtree_search")], sum(record.exact for record in records)
        ),
        "index.rebuilds": facts.get("index_rebuilds", 0),
        "optable.refresh_ms": _ratio(
            probe.total("query", "optable_compute") - probe.total("query", "optable_sweep"), count
        ) * 1e3,
        "optable.sweep_ms": probe.per("query", "optable_sweep", count) * 1e3,
        "bounds.batch_ms": probe.per("query", "bounds_batch", count) * 1e3,
        "bounds.memo_hit_ratio": _ratio(
            facts.get("memo_hits", 0), facts.get("memo_hits", 0) + facts.get("memo_misses", 0)
        ),
        "bounds.cold_query_ms": facts.get("cold_query_s", 0.0) * 1e3,
        "rbm.rules_applied_per_query": _mean([r.result.stats.rules_applied for r in records]),
        "rbm.histograms_checked_per_query": _mean(
            [r.result.stats.histograms_checked for r in records]
        ),
        "bwm.short_circuit_share": _ratio(
            sum(stats.clusters_short_circuited for stats in bwm),
            sum(stats.histograms_checked for stats in bwm),
        ),
        "query.precision": _ratio(
            sum(record.exact for record in records),
            sum(len(record.result.matches) for record in records),
        ),
        "db.insert_ms": probe.per("setup", "db_write", probe.calls[("setup", "db_write")]) * 1e3,
        "db.mutation_ms": probe.per("mutation", "db_write", mutations) * 1e3,
        "shard.fanout_ms": _mean(fanouts) * 1e3,
        "shard.merge_ms": _mean(merges) * 1e3,
        "shard.straggler_ratio": _mean(stragglers),
        "wal.append_ms": _ratio(wal_seconds, wal_calls) * 1e3,
        "wal.fsyncs_per_mutation": _ratio(probe.calls[("mutation", "fsync")], mutations),
        "wal.bytes_per_mutation": _ratio(probe.items[("mutation", "append_bytes")], mutations),
        "wal.replay_records": facts.get("wal_replayed", 0),
        "compactor.run_ms": probe.per(
            "compaction", "compactor_run", probe.calls[("compaction", "compactor_run")]
        ) * 1e3,
        "compactor.materialized": probe.items[("compaction", "compactor_run")],
        "persist.save_ms": probe.per("checkpoint", "save", probe.entries["checkpoint"]) * 1e3,
        "persist.write_ms": _ratio(
            sum(
                probe.total("checkpoint", name)
                for name in ("write_bytes", "append_bytes", "fsync", "rename")
            ),
            probe.entries["checkpoint"],
        ) * 1e3,
        "persist.load_ms": probe.per("load", "load", probe.entries["load"]) * 1e3,
        "events.bytes": facts.get("events_bytes", 0),
        "reopen.after_checkpoint_s": facts.get("reopen_after_checkpoint_s", 0.0),
        "traced.query_p50_ms": percentile([r.wall for r in records], 0.5) * 1e3,
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }
