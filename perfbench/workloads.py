"""The three workloads: one closed-loop client against the front doors.

``flag-read`` and ``flag-churn`` serve the Table 2 flag catalog through
:class:`repro.service.QueryService`; ``shard-durable`` serves its
shard-local twin through a disk-rooted :class:`repro.shard.ShardedCatalog`.
Every workload runs the same phases:

1. generate inputs and build the oracle (untimed);
2. set up ``SETUPS`` times from empty (``setup_s`` is the median);
   ``flag-churn``'s database keeps the BOUNDS memo the planner prices
   in, ``flag-read``'s runs without it (with the memo warm, the planner
   would answer broad queries from it instead of the indexes);
3. a query phase of whole rounds — a round is the untimed or
   separately timed work between query bursts (mutations, compaction)
   followed by one burst of queries — until ``seconds`` have passed and
   at least ``MIN_QUERIES`` queries ran;
4. one checkpoint, and ``REOPENS`` timed reopens: of that checkpoint on
   the flag workloads, by WAL replay on ``shard-durable`` (which then
   checkpoints and reopens once more, untimed end to end).

A checkpoint's wall time is a per-layer figure (``persist.save_ms``),
not an end-to-end one: it is dominated by creating one file per image
in a fresh directory, and that kernel cost is set by where the
filesystem places the directory (see the README).

Every query result and every reopened state is checked against the
oracle outside the timed regions.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.core.query import QueryResult, RangeQuery
from repro.db import persistence
from repro.db.database import MultimediaDatabase
from repro.errors import ReproError
from repro.service import QueryService
from repro.shard import Compactor, ShardedCatalog

from perfbench.inputs import (
    SHARD_COUNT,
    Mutation,
    MutationStream,
    make_catalog,
    query_stream,
)
from perfbench.layers import Probe
from perfbench.measure import (
    current_rss_mb,
    median,
    peak_rss_mb,
    percentile,
    quiesce,
    tree_bytes,
    written_bytes,
)
from perfbench.oracle import Oracle

#: A p95 needs ten samples beyond it, so every run answers at least 200.
#: Query costs vary widely (the 40/40/20 mix, per-seed catalogs): a p50 of
#: 200 queries of one run moved by 12% from one 200-query window to the
#: next while a fixed calibration loop moved by 4%, so more queries make
#: the figures steadier; 400 is what the hour allows.
MIN_QUERIES = 400
#: Set-ups and timed reopens per run; each metric is their median.  Two
#: set-ups, not more, keep the 70 runs of the three workloads within an
#: hour: a shard-durable set-up takes 3-7 s.
SETUPS = 2
REOPENS = 3
#: Queries re-asked after reopen (and on the live catalog before it).
VERIFY_QUERIES = 8
#: Of those, how many the replica also answers with its real linear RBM scan.
LINEAR_CHECKS = 2
#: flag-read's closing write tail of flag updates, which gives it a
#: mutation latency.
TAIL_MUTATIONS = 200
#: flag-churn's round: one cycle of ``FLAG_MUTATIONS``, then this many
#: queries.  The first query after a write pays the planner's statistics
#: refresh (~2x a later one); with one such query in ten, the p50 lies
#: inside the fast mode and the p95 near the middle of the slow one,
#: where samples are dense (with one in four, the p95 sat in the slow
#: mode's wide upper tail).
CHURN_BURST = 10
#: shard-durable's rounds: base updates, one compaction cycle, queries.
#: Bursts are long so the few queries right after a compaction stay
#: well inside the p95 rather than at its edge.
SHARD_UPDATES = 8
SHARD_BURST = 50
#: flag-churn's mutation mix: two base-raster updates per replaced edit
#: sequence, in a fixed cycle.
FLAG_MUTATIONS = ("update_image", "update_image", "replace_edited")


@dataclass
class QueryRecord:
    """One answered query: client wait, result, oracle exact-match count."""

    wall: float
    result: QueryResult
    exact: int
    served: object = None  # the ServiceResult, when the service answered


@dataclass
class Run:
    """Everything one workload run measured."""

    user_bytes: int = 0
    setup: List[float] = field(default_factory=list)
    query_time: float = 0.0
    queries: List[QueryRecord] = field(default_factory=list)
    mutations: List[float] = field(default_factory=list)
    reopens: List[float] = field(default_factory=list)
    written: int = 0
    stored: int = 0
    #: Resident set just before the first set-up (inputs and oracle built).
    rss_before_setup: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Failed checks (make the run incorrect) and failed operations.
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Layer facts only the workload can see (counters of its objects).
    facts: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        walls = [record.wall for record in self.queries]
        values = {
            "setup_s": (median(self.setup), "s"),
            "query_p50_ms": (percentile(walls, 0.50) * 1e3, "ms"),
            "query_p95_ms": (percentile(walls, 0.95) * 1e3, "ms"),
            "query_ops_per_s": (len(walls) / self.query_time, "1/s"),
            "mutation_p50_ms": (percentile(self.mutations, 0.50) * 1e3, "ms"),
            "reopen_s": (median(self.reopens), "s"),
            "space_amp": (self.stored / self.user_bytes, "ratio"),
            "write_amp": (self.written / self.user_bytes, "ratio"),
            "peak_rss_mb": (peak_rss_mb() - self.rss_before_setup, "MB"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------
def _mutate(run: Run, target, oracle: Optional[Oracle], mutation: Mutation) -> bool:
    """Apply one mutation through ``target``'s mutators, timed.

    Mirrors it into ``oracle`` when one is given; returns whether the
    program acknowledged it.
    """
    run.attempted += 1
    started = perf_counter()
    try:
        if mutation.kind == "replace_edited":
            target.delete_edited(mutation.image_id)
            target.insert_edited(mutation.sequence, mutation.image_id)
        else:
            target.update_image(mutation.image_id, mutation.image)
    except ReproError as exc:
        run.failed += 1
        run.errors.append(f"mutation {mutation.kind} {mutation.image_id}: {exc}")
        return False
    run.mutations.append(perf_counter() - started)
    if oracle is not None:
        oracle.apply(mutation)
    return True


def _query_phase(
    run: Run,
    probe: Probe,
    oracle: Oracle,
    stream: Iterator[RangeQuery],
    seconds: float,
    burst: int,
    ask: Callable[[RangeQuery], object],
    between: Callable[[], None],
) -> List[RangeQuery]:
    """Whole rounds of ``between()`` then ``burst`` timed queries.

    Runs until ``seconds`` have passed and the run holds ``MIN_QUERIES``
    answers.  Returns the last burst's queries (the catalog has not
    changed since they were answered).  ``ask`` returns a
    :class:`QueryResult` or a ``ServiceResult``.
    """
    quiesce()
    probe.phase = "query"
    started = perf_counter()
    last: List[RangeQuery] = []
    while perf_counter() - started < seconds or len(run.queries) < MIN_QUERIES:
        probe.phase = "mutation"
        between()
        probe.phase = "query"
        last = [next(stream) for _ in range(burst)]
        answers = []
        burst_started = perf_counter()
        for query in last:
            asked = perf_counter()
            try:
                answer = ask(query)
            except ReproError as exc:
                answer = exc
            answers.append((answer, perf_counter() - asked))
        run.query_time += perf_counter() - burst_started
        for query, (answer, wall) in zip(last, answers):
            run.attempted += 1
            if isinstance(answer, ReproError):
                run.failed += 1
                run.errors.append(f"query {query!r}: {answer}")
                continue
            result = getattr(answer, "result", answer)
            ok, exact = oracle.check(query, result.matches)
            run.require(ok, f"query {query!r}: result differs from the oracle")
            served = answer if answer is not result else None
            run.queries.append(QueryRecord(wall, result, exact, served))
    probe.phase = "idle"
    return last


def _verify_state(
    run: Run,
    oracle: Oracle,
    label: str,
    ids,
    database_of: Callable[[str], MultimediaDatabase],
    queries: Sequence[RangeQuery],
    before: Sequence[FrozenSet[str]],
    answers: Sequence[QueryResult],
) -> None:
    """Reopened state holds every acknowledged mutation and answers alike."""
    mismatched = oracle.content_mismatches(ids, database_of)
    run.require(not mismatched, f"{label}: content differs for {mismatched[:5]}")
    for query, old, new in zip(queries, before, answers):
        run.require(
            new.matches == old == oracle.expected(query),
            f"{label}: {query!r} answers differently after reopen",
        )


# ----------------------------------------------------------------------
# flag-read and flag-churn: the query service
# ----------------------------------------------------------------------
def flag_workload(seed: int, seconds: float, probe: Probe, work: Path, churn: bool) -> Run:
    """``flag-read`` (``churn=False``) or ``flag-churn`` through the service."""
    inputs, targets = make_catalog(seed)
    oracle = Oracle(inputs)
    probe.ignore(oracle.replica)
    run = Run()
    kinds = FLAG_MUTATIONS if churn else ("update_image",)
    mutations = MutationStream(seed, inputs, targets, kinds=kinds, zipf=False)

    quiesce()
    run.rss_before_setup = current_rss_mb()
    service: Optional[QueryService] = None
    for _ in range(SETUPS):
        if service is not None:
            service.shutdown()
            service = None
        quiesce()
        probe.phase = "setup"
        started = perf_counter()
        service = QueryService(MultimediaDatabase(bounds_cache=churn), max_workers=1)
        for image_id, image in inputs.binaries:
            service.insert_image(image, image_id)
        for image_id, sequence in inputs.edited:
            service.insert_edited(sequence, image_id)
        service.refresh_indexes()
        run.setup.append(perf_counter() - started)
        probe.phase = "idle"
    assert service is not None

    stream = query_stream(seed, oracle.replica)
    cache_before = service.cache.stats()
    memo_before = service.database.engine.cache_stats()
    if churn:
        burst = CHURN_BURST

        def between() -> None:
            for _ in FLAG_MUTATIONS:
                _mutate(run, service, oracle, next(mutations))

    else:
        burst = 5

        def between() -> None:
            pass

    _query_phase(run, probe, oracle, stream, seconds, burst, service.execute, between)
    if not churn:
        quiesce()
        probe.phase = "mutation"
        acknowledged = [
            mutation
            for mutation in (next(mutations) for _ in range(TAIL_MUTATIONS))
            if _mutate(run, service, None, mutation)
        ]
        probe.phase = "idle"
        oracle.apply(*acknowledged)
    cache_after = service.cache.stats()
    memo_after = service.database.engine.cache_stats()
    run.facts.update(
        memo_hits=memo_after["hits"] - memo_before["hits"],
        memo_misses=memo_after["misses"] - memo_before["misses"],
        index_rebuilds=service.metrics.counter("index_rebuilds"),
        cache_hits=cache_after["hits"] - cache_before["hits"],
        cache_misses=cache_after["misses"] - cache_before["misses"],
        cache_invalidations=cache_after["invalidations"] - cache_before["invalidations"],
    )

    verify = [next(stream) for _ in range(VERIFY_QUERIES)]
    live = [service.execute(query).result.matches for query in verify]
    run.require(
        oracle.linear_scan_agrees(verify[:LINEAR_CHECKS]),
        "the oracle's interval table disagrees with the linear RBM scan",
    )
    root = work / "catalog"
    quiesce()
    probe.phase = "checkpoint"
    before = written_bytes()
    with service.write_locked():
        persistence.save_database(service.database, root, faults=probe.faults)
    run.written = written_bytes() - before
    probe.phase = "idle"
    service.shutdown()
    service = loaded = None  # one catalog in memory at a time
    for _ in range(REOPENS):
        loaded = None
        quiesce()
        probe.phase = "load"
        started = perf_counter()
        loaded = persistence.load_database(root)
        run.reopens.append(perf_counter() - started)
        probe.phase = "idle"
    _verify_state(
        run, oracle, "reopen", loaded.ids(), lambda _: loaded, verify, live,
        loaded.range_query_batch(verify, method="rbm"),
    )
    run.stored = tree_bytes(root)
    run.user_bytes = oracle.user_bytes()
    return run


# ----------------------------------------------------------------------
# shard-durable: the sharded catalog, WAL, compactor and checkpoints
# ----------------------------------------------------------------------
def shard_workload(seed: int, seconds: float, probe: Probe, work: Path) -> Run:
    inputs, targets = make_catalog(seed, SHARD_COUNT)
    oracle = Oracle(inputs)
    probe.ignore(oracle.replica)
    run = Run()
    mutations = MutationStream(seed, inputs, targets, kinds=("update_image",), zipf=True)
    workers = min(SHARD_COUNT, os.cpu_count() or 1)
    root = work / "shards"

    def open_root() -> ShardedCatalog:
        return ShardedCatalog.open(root, scatter_workers=workers, faults=probe.faults)

    quiesce()
    run.rss_before_setup = current_rss_mb()
    catalog: Optional[ShardedCatalog] = None
    for _ in range(SETUPS):
        if catalog is not None:
            catalog.close()
            catalog = None
        shutil.rmtree(root, ignore_errors=True)
        quiesce()
        probe.phase = "setup"
        before = written_bytes()
        started = perf_counter()
        catalog = ShardedCatalog(
            SHARD_COUNT, root=root, scatter_workers=workers, faults=probe.faults
        )
        for image_id, image in inputs.binaries:
            catalog.insert_image(image, image_id)
        for image_id, sequence in inputs.edited:
            catalog.insert_edited(sequence, image_id)
        run.setup.append(perf_counter() - started)
        ingest_written = written_bytes() - before
        probe.phase = "idle"
    assert catalog is not None
    run.written = ingest_written

    # The first query meets an empty BOUNDS memo; one batched sweep then
    # fills it for every edited image, so timed queries see the warm
    # state a long-running catalog serves from.
    stream = query_stream(seed, oracle.replica)
    first = next(stream)
    probe.phase = "cold"
    started = perf_counter()
    cold = catalog.range_query(first)
    run.facts["cold_query_s"] = perf_counter() - started
    probe.phase = "idle"
    warm = catalog.range_query_batch([first], method="rbm")[0]
    for answer in (cold, warm):
        run.require(oracle.check(first, answer.matches)[0], "cold query differs from the oracle")

    compactor = Compactor(catalog)

    def between() -> None:
        for _ in range(SHARD_UPDATES):
            _mutate(run, catalog, oracle, next(mutations))
        probe.phase = "compaction"
        compactor.run_once()

    memo_before = _memo_stats(catalog)
    before = written_bytes()
    verify = _query_phase(
        run, probe, oracle, stream, seconds, burst=SHARD_BURST,
        ask=catalog.range_query, between=between,
    )
    run.written += written_bytes() - before
    memo_after = _memo_stats(catalog)
    live = [record.result.matches for record in run.queries[-len(verify):]]
    run.facts.update(
        memo_hits=memo_after[0] - memo_before[0],
        memo_misses=memo_after[1] - memo_before[1],
    )
    run.require(
        oracle.linear_scan_agrees(verify[:LINEAR_CHECKS]),
        "the oracle's interval table disagrees with the linear RBM scan",
    )
    catalog.close()
    catalog = compactor = None  # one catalog in memory at a time

    def check_reopened(label: str, reopened: ShardedCatalog) -> None:
        _verify_state(
            run, oracle, label, reopened.ids(),
            lambda image_id: reopened.shard_database(reopened.shard_of(image_id)),
            verify, live, reopened.range_query_batch(verify, method="rbm"),
        )

    for number in range(REOPENS):
        if number:
            catalog.close()
            catalog = None
        quiesce()
        probe.phase = "reopen"
        before = written_bytes()
        started = perf_counter()
        catalog = open_root()
        run.reopens.append(perf_counter() - started)
        probe.phase = "idle"
        if number == 0:
            run.written += written_bytes() - before
            run.facts["wal_replayed"] = catalog.metrics.counter("wal.replayed")
            check_reopened("WAL replay", catalog)

    # The last replayed catalog checkpoints, then is opened from it.
    quiesce()
    probe.phase = "checkpoint"
    before = written_bytes()
    catalog.save()
    run.written += written_bytes() - before
    probe.phase = "idle"
    catalog.close()
    catalog = None

    quiesce()
    probe.phase = "load"
    started = perf_counter()
    catalog = open_root()
    run.facts["reopen_after_checkpoint_s"] = perf_counter() - started
    probe.phase = "idle"
    check_reopened("checkpoint reopen", catalog)
    catalog.close()
    events = catalog.events.sink_path
    run.facts["events_bytes"] = events.stat().st_size if events and events.is_file() else 0
    run.stored = tree_bytes(root)
    run.user_bytes = oracle.user_bytes()
    return run


def _memo_stats(catalog: ShardedCatalog):
    """Summed BOUNDS memo ``(hits, misses)`` over every shard's engine."""
    hits = misses = 0
    for index in range(catalog.shard_count):
        stats = catalog.shard_database(index).engine.cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


WORKLOADS = {
    "flag-read": lambda seed, seconds, probe, work: flag_workload(
        seed, seconds, probe, work, churn=False
    ),
    "flag-churn": lambda seed, seconds, probe, work: flag_workload(
        seed, seconds, probe, work, churn=True
    ),
    "shard-durable": shard_workload,
}
