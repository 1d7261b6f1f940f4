"""The multi-query serving session (``QueryEngine``).

A deployment answers many ``(candidates, PF, τ)`` queries against one
fleet of moving objects Ω.  ``select_location`` rebuilds the whole
``A2D`` object table — per-object MBRs plus the ``minMaxRadius`` memo —
on every call; the engine ingests Ω once and amortises that work:

* **object-table cache** — one :class:`~repro.core.object_table.ObjectTable`
  (the live objects' columnar export with their ``minMaxRadius``) is
  memoised per ``(PF, τ)`` and reused by every query with that pair,
* **candidate cache** — candidate coordinate arrays, and the candidate
  R-tree when ``use_rtree=True``, are keyed by the coordinates and
  reused across queries sharing a candidate set,
* **pruning cache** — PIN-VO's pruning phase output (``minInf`` and
  the per-candidate verification sets) is a deterministic function of
  ``(PF, τ, candidate set)``, so it is memoised too; on a hit only the
  validation phase runs.  The cached *logical* work counters
  (``pairs_pruned_*``) are replayed into the query's instrumentation
  so pruned fractions stay meaningful, while the ``*_seconds`` fields
  keep reporting the time actually spent,
* **process parallelism** — ``pool=True, workers=N`` serves the
  candidate axis from N persistent shared-memory workers (see
  :mod:`repro.engine.pool`), bit-identical to serial execution,
* **observability** — hit/miss counters (:class:`EngineStats`), a
  per-query JSONL metrics log with per-phase
  ``pruning_seconds``/``validation_seconds``, and a :meth:`health`
  snapshot suitable for a readiness probe,
* **overload resilience** — an optional admission budget
  (``max_inflight``/``max_queue_depth``/``shed_policy``,
  :mod:`repro.engine.admission`) sheds excess queries with typed
  :class:`~repro.engine.admission.QueryShed` outcomes instead of
  letting latency grow without bound; a circuit-broken degradation
  ladder (:mod:`repro.engine.breaker`) walks repeated tier failures
  down pool → serial and self-heals; every cache is a bounded
  LRU (:mod:`repro.engine.cache`) with eviction counters, and the
  in-memory metrics record list is capped (``records_dropped``),
* **one request path** — ``query``, ``query_batch`` and
  ``query_approx`` wrap one admission round (a single query is a
  round of one); a :class:`QueryRequest` carries everything one
  request needs, down to the ``tenant`` the HTTP front end admitted it
  for, which tags its admission span and shed record.

Every cache stays correct at any budget (a miss only recomputes), the
ladder is lossless (lower tiers compute the same answer), and results
are bit-identical to fresh ``select_location`` calls for every
algorithm (property-tested in ``tests/test_engine.py`` and, under
fault/overload schedules, ``tests/test_overload.py``).
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.base import candidates_to_array
from repro.core.naive import NaiveAlgorithm
from repro.core.object_table import (
    ColumnarTable,
    ObjectTable,
    fleet_to_columnar,
)
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.core.result import Instrumentation, LSResult, full_table_result
from repro.core.sketch import (
    DEFAULT_SKETCH_DELTA,
    DEFAULT_SKETCH_K,
    DEFAULT_SKETCH_SEED,
    InfluenceSketch,
)
from repro.engine.admission import (
    AdmissionController,
    QueryShed,
    QueryShedError,
)
from repro.engine.breaker import BreakerConfig, DegradationLadder
from repro.engine.cache import CacheBudget, LRUCache
from repro.engine.faults import (
    DeadlineExceeded,
    FaultInjector,
    SupervisorPolicy,
)
from repro.engine.metrics import MetricsRegistry
from repro.engine.pool import (
    SpanTask,
    Supervisor,
    WorkerPool,
    column_spans,
    fork_available,
)
from repro.engine.trace import Tracer
from repro.index.rtree import RTree
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob import PowerLawPF
from repro.prob.base import ProbabilityFunction


@dataclass
class EngineStats:
    """Cache hit/miss counters proving cross-query reuse, plus the
    supervision counters proving fault tolerance."""

    queries: int = 0
    table_hits: int = 0
    table_misses: int = 0
    candidate_hits: int = 0
    candidate_misses: int = 0
    rtree_hits: int = 0
    rtree_misses: int = 0
    pruning_hits: int = 0
    pruning_misses: int = 0
    #: influence-sketch cache traffic (a miss is a sketch build)
    sketch_hits: int = 0
    sketch_misses: int = 0
    #: queries answered from the approximate tier (labelled, bounded)
    approx_queries: int = 0
    #: pool span dispatches that died or raised, across all queries
    worker_failures: int = 0
    #: span re-dispatches performed after worker failures
    retries: int = 0
    #: queries that fell back to in-parent serial execution
    degraded: int = 0
    #: queries cut off by their ``deadline_seconds``
    deadline_exceeded: int = 0
    #: span tasks handed to the persistent worker pool, including
    #: re-dispatches after failures
    spans_dispatched: int = 0
    #: pool workers killed and replaced (crashes and deadline kills)
    pool_respawns: int = 0
    #: queries refused by admission control (typed ``QueryShed``
    #: outcomes — each also emitted a JSONL record)
    queries_shed: int = 0
    #: circuit-breaker trips across the degradation ladder's tiers
    breaker_trips: int = 0
    #: in-memory metrics records dropped by the ``max_records`` cap
    #: (the JSONL file is append-only and unaffected)
    records_dropped: int = 0
    #: LRU evictions per cache (mirrored from the cache objects)
    table_evictions: int = 0
    candidate_evictions: int = 0
    rtree_evictions: int = 0
    pruning_evictions: int = 0
    sketch_evictions: int = 0

    @property
    def hits(self) -> int:
        return (
            self.table_hits + self.candidate_hits
            + self.rtree_hits + self.pruning_hits + self.sketch_hits
        )

    @property
    def misses(self) -> int:
        return (
            self.table_misses + self.candidate_misses
            + self.rtree_misses + self.pruning_misses
            + self.sketch_misses
        )

    def as_dict(self) -> dict:
        """All counters plus the aggregate ``hits``/``misses`` totals."""
        out = asdict(self)
        out["hits"] = self.hits
        out["misses"] = self.misses
        return out


def _counts_only(counters: Instrumentation) -> Instrumentation:
    """A copy of ``counters`` with the wall-time fields zeroed.

    Cached pruning output replays the *logical* work counters of the
    original run, but a cache hit must not claim the original run's
    seconds.
    """
    snapshot = replace(counters)
    snapshot.pruning_seconds = 0.0
    snapshot.validation_seconds = 0.0
    return snapshot


def _pf_key(pf: ProbabilityFunction) -> tuple:
    """A cache key identifying a probability function by its parameters.

    Parameterised PFs define ``__repr__`` exposing their parameters, so
    equal-parameter instances share cached tables.  For a PF without a
    custom repr the key falls back to object identity — safe because
    the cached :class:`ObjectTable` holds a reference to the PF, so its
    id cannot be recycled while the cache entry lives.
    """
    if type(pf).__repr__ is not object.__repr__:
        return (type(pf).__qualname__, repr(pf))
    return ("id", id(pf))


def _pruning_nbytes(value: tuple) -> int:
    """Bytes a cached pruning output holds (minInf + verification sets).

    Prices entries for the pruning cache's byte budget; the counter
    snapshot is a fixed-size dataclass and is ignored.
    """
    min_inf, vs_indexes, _snapshot = value
    total = int(min_inf.nbytes)
    for vs in vs_indexes:
        if vs is not None:
            total += int(vs.nbytes)
    return total


@dataclass
class QueryRequest:
    """One query of a :meth:`QueryEngine.query_batch` admission round.

    ``pf=None`` resolves to the engine's default probability function,
    exactly like :meth:`QueryEngine.query`.
    """

    candidates: Sequence[Candidate]
    pf: ProbabilityFunction | None = None
    tau: float = 0.7
    algorithm: str = "PIN-VO"
    algorithm_kwargs: dict = field(default_factory=dict)
    #: admission priority (higher wins under the "by-priority" policy)
    priority: int = 0
    #: tenant the HTTP front end admitted the request for; tags its
    #: admission span, shed outcome and shed record (the engine itself
    #: stays tenant-blind)
    tenant: str | None = None


@dataclass
class _Plan:
    """How one request of an admission round executes, decided once by
    :meth:`QueryEngine._plan` and carried out by ``_assemble``."""

    request: QueryRequest
    solver: Any
    pf: ProbabilityFunction
    tau: float
    candidates: list
    cand_xy: np.ndarray
    query_id: int
    #: admission-round size, stamped into the JSONL record and trace
    batch_size: int
    #: this request's span tree (NOOP_SPAN when tracing is off)
    trace: Any
    #: "pool" (spans dispatched, or a pool-tier pruning hit), "serial",
    #: or "approx" (answered from the sketch, for ``approx_reason``)
    tier: str = "serial"
    approx_reason: str | None = None
    table: ObjectTable | None = None
    #: PIN-VO only: "dispatch" (pool spans compute it), "compute" (the
    #: parent computes it), or "cached" (memoised before this request,
    #: or computed by an earlier request of the round)
    pruning: str | None = None
    pruning_key: tuple | None = None
    tasks: list = field(default_factory=list)
    #: cache evictions caused while planning this request
    evictions: int = 0


class QueryEngine:
    """A serving session over one ingested fleet of moving objects.

    ::

        engine = QueryEngine(objects, pool=True, workers=4,
                             metrics_path="metrics.jsonl")
        r1 = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        r2 = engine.query(candidates, pf=pf, tau=0.7)   # table + candidates cached
        engine.stats.table_hits                         # -> 1
    """

    #: algorithms the approximate tier can answer for — everything
    #: whose result is the per-candidate influence count that an
    #: :class:`~repro.core.sketch.InfluenceSketch` estimates
    APPROX_ALGORITHMS = ("NA", "PIN", "PIN-VO", "PIN-VO*")

    def __init__(
        self,
        objects: Sequence[MovingObject],
        *,
        workers: int = 0,
        pool: bool = False,
        metrics_path: str | Path | None = None,
        default_pf: ProbabilityFunction | None = None,
        fault_injector: FaultInjector | None = None,
        supervisor_policy: SupervisorPolicy | None = None,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        shed_policy: str = "reject",
        breaker: BreakerConfig | None = None,
        cache_budget: CacheBudget | None = None,
        trace_path: str | Path | None = None,
        tracing: bool | None = None,
        approx: bool = False,
        approx_k: int = DEFAULT_SKETCH_K,
        approx_delta: float = DEFAULT_SKETCH_DELTA,
        approx_seed: int = DEFAULT_SKETCH_SEED,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers >= 2 and not pool:
            raise ValueError(
                f"workers >= 2 needs pool=True (got workers={workers}): "
                "parallel execution runs on the worker pool"
            )
        if approx_k < 1:
            raise ValueError(f"approx_k must be >= 1, got {approx_k}")
        if not 0.0 < approx_delta < 1.0:
            raise ValueError(
                f"approx_delta must be in (0, 1), got {approx_delta}"
            )
        if max_inflight is None and max_queue_depth is not None:
            raise ValueError(
                "max_queue_depth requires max_inflight (admission "
                "control is off without an in-flight budget)"
            )
        started = time.perf_counter()
        self.objects = list(objects)
        if not self.objects:
            raise ValueError("need at least one moving object")
        # Ingest: force every object's lazy MBR memo now so no query
        # (and no table build) pays for it later.  Position arrays
        # are already materialised, read-only, on the objects.
        for obj in self.objects:
            _ = obj.mbr
        self.ingest_seconds = time.perf_counter() - started
        self.workers = int(workers)
        #: serve candidate spans from the persistent shared-memory
        #: worker pool (:mod:`repro.engine.pool`); a pool needs two
        #: workers and the fork start method, else queries run serially
        self.use_pool = bool(pool) and self.workers >= 2 and fork_available()
        self._pool: WorkerPool | None = None
        self._pool_lock = threading.Lock()
        #: the fleet's columnar export, built on the first pooled NA
        #: query: published as NA's segment and read by its degraded
        #: local spans
        self._fleet: ColumnarTable | None = None
        #: fault hooks handed to every worker dispatch (testing/chaos
        #: drills only — leave ``None`` in production)
        self.fault_injector = fault_injector
        #: retry/backoff knobs the per-round supervisor obeys
        self.supervisor_policy = supervisor_policy or SupervisorPolicy()
        self.stats = EngineStats()
        self.metrics_path = Path(metrics_path) if metrics_path else None
        #: in-memory copy of every JSONL metrics record, in query order
        self.metrics_log: list[dict] = []
        self._default_pf = default_pf
        #: entry/byte budgets for every cache and the record log
        self.cache_budget = cache_budget or CacheBudget()
        budget = self.cache_budget
        self._tables: LRUCache = LRUCache(
            "tables", max_entries=budget.max_tables
        )
        self._cand_arrays: LRUCache = LRUCache(
            "candidate_sets", max_entries=budget.max_candidate_sets
        )
        self._rtrees: LRUCache = LRUCache(
            "rtrees", max_entries=budget.max_rtrees
        )
        #: (pf, tau, candidates, use_pruning) -> (minInf, VS, counter snapshot)
        self._prunings: LRUCache = LRUCache(
            "prunings",
            max_entries=budget.max_prunings,
            max_bytes=budget.max_pruning_bytes,
            sizeof=_pruning_nbytes,
        )
        #: the approximate tier: serve sketch-based estimates (labelled,
        #: with an advertised error bound) instead of shedding when
        #: admission overflows or every exact tier's breaker is open
        self.approx = bool(approx)
        self.approx_k = int(approx_k)
        self.approx_delta = float(approx_delta)
        self.approx_seed = int(approx_seed)
        #: (pf, tau) -> InfluenceSketch for the approximate tier
        self._sketches: LRUCache = LRUCache(
            "sketches",
            max_entries=budget.max_sketches,
            max_bytes=budget.max_sketch_bytes,
            sizeof=lambda sketch: sketch.nbytes,
        )
        #: admission control; ``None`` (the default) admits everything
        self.admission = (
            AdmissionController(
                max_inflight,
                max_queue_depth=max_queue_depth,
                policy=shed_policy,
            )
            if max_inflight is not None else None
        )
        #: the circuit-broken pool → serial(→ approx)
        #: degradation ladder; with ``approx=True`` serial gets a
        #: breaker too and the sketch tier becomes the floor
        self.ladder = DegradationLadder(
            breaker or BreakerConfig(), approx_floor=self.approx
        )
        #: per-query span trees (``trace_path``/``tracing`` arm it;
        #: disabled it hands out the zero-cost no-op span)
        self.tracer = Tracer(trace_path, enabled=tracing)
        #: Prometheus-exposable counters/gauges/histograms; rendered by
        #: :meth:`metrics_text` (see docs/observability.md for the
        #: catalog)
        self.metrics = MetricsRegistry()
        self._init_metrics()
        self._closed = False

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def table_for(self, pf: ProbabilityFunction, tau: float) -> ObjectTable:
        """The ``A2D`` table for ``(pf, τ)``, built once and memoised."""
        key = (_pf_key(pf), float(tau))
        table = self._tables.get(key)
        if table is None:
            self.stats.table_misses += 1
            table = ObjectTable(self.objects, pf, tau)
            self._tables[key] = table
        else:
            self.stats.table_hits += 1
        return table

    def _cand_xy_for(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """The ``(m, 2)`` coordinate array, shared by coordinate-equal sets."""
        xy = candidates_to_array(candidates)
        key = xy.tobytes()
        cached = self._cand_arrays.get(key)
        if cached is None:
            self.stats.candidate_misses += 1
            xy.setflags(write=False)
            self._cand_arrays[key] = xy
            return xy
        self.stats.candidate_hits += 1
        return cached

    def rtree_for(self, cand_xy: np.ndarray, max_entries: int) -> RTree:
        """A bulk-loaded candidate R-tree, memoised per candidate set."""
        key = (cand_xy.tobytes(), int(max_entries))
        rtree = self._rtrees.get(key)
        if rtree is None:
            self.stats.rtree_misses += 1
            rtree = RTree.bulk_load(cand_xy, max_entries=max_entries)
            self._rtrees[key] = rtree
        else:
            self.stats.rtree_hits += 1
        return rtree

    def sketch_for(
        self, pf: ProbabilityFunction, tau: float
    ) -> InfluenceSketch:
        """The influence sketch for ``(pf, τ)``, built once and memoised.

        Serves the approximate tier; the build reads the (cached)
        object table's columnar export, so a sketch miss may also
        count a table hit/miss.  Keyed by the sketch knobs too, so
        reconfigured engines never share stale samples.
        """
        key = (
            _pf_key(pf), float(tau), self.approx_k, self.approx_seed,
            self.approx_delta,
        )
        sketch = self._sketches.get(key)
        if sketch is None:
            self.stats.sketch_misses += 1
            sketch = InfluenceSketch.build(
                self.table_for(pf, tau),
                k=self.approx_k,
                seed=self.approx_seed,
                delta=self.approx_delta,
            )
            self._sketches[key] = sketch
        else:
            self.stats.sketch_hits += 1
        return sketch

    def cache_info(self) -> dict:
        """Sizes of the five caches plus the hit/miss counters.

        ``prunings`` is the PIN-VO pruning-output cache — the one cache
        warm PIN-VO traffic actually exercises, so operators need to
        see it grow (regression-tested in tests/test_engine.py).
        ``sketches`` only grows on approx-enabled engines.
        """
        self._sync_cache_stats()
        return {
            "tables": len(self._tables),
            "candidate_sets": len(self._cand_arrays),
            "rtrees": len(self._rtrees),
            "prunings": len(self._prunings),
            "sketches": len(self._sketches),
            **self.stats.as_dict(),
        }

    def _caches(self) -> tuple[LRUCache, ...]:
        return (
            self._tables, self._cand_arrays, self._rtrees,
            self._prunings, self._sketches,
        )

    def _sync_cache_stats(self) -> None:
        """Mirror each cache's lifetime eviction count into the stats."""
        self.stats.table_evictions = self._tables.evictions
        self.stats.candidate_evictions = self._cand_arrays.evictions
        self.stats.rtree_evictions = self._rtrees.evictions
        self.stats.pruning_evictions = self._prunings.evictions
        self.stats.sketch_evictions = self._sketches.evictions

    def _total_evictions(self) -> int:
        return sum(cache.evictions for cache in self._caches())

    def _shrink_caches(self) -> None:
        """Memory-pressure response: trim every cache to one entry."""
        for cache in self._caches():
            cache.trim(max_entries=1)
        self._sync_cache_stats()

    def health(self) -> dict:
        """A readiness-probe snapshot of the serving session.

        Reports the tier the *next* query would execute on (given the
        engine's configuration and current breaker states), every
        breaker's state, admission load, cache occupancy, and the
        record-log fill — everything an operator needs to see overload
        and degradation without parsing the JSONL stream.
        """
        candidates = self._tiers()
        tier = self.ladder.select(candidates)
        if self._closed:
            status = "closed"
        elif tier != candidates[0]:
            status = "degraded"
        else:
            status = "ok"
        self._sync_cache_stats()
        return {
            "status": status,
            # degraded is still *ready*: a lower tier (down to the
            # approx floor on approx=True engines) answers every query.
            # Only a closed engine stops serving — /healthz keys its
            # 200-vs-503 decision off exactly this bit.
            "ready": not self._closed,
            "tier": tier,
            "breakers": self.ladder.snapshot(),
            "admission": (
                self.admission.snapshot()
                if self.admission is not None else None
            ),
            "caches": {
                cache.name: cache.occupancy() for cache in self._caches()
            },
            "records": {
                "kept": len(self.metrics_log),
                "dropped": self.stats.records_dropped,
                "max_records": self.cache_budget.max_records,
            },
            "queries": self.stats.queries,
            "queries_shed": self.stats.queries_shed,
            "breaker_trips": self.ladder.trips,
        }

    # ------------------------------------------------------------------
    # Prometheus metrics
    # ------------------------------------------------------------------
    #: breaker states as gauge values (closed < half-open < open)
    _BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    def _init_metrics(self) -> None:
        """Register the engine's metric catalog (docs/observability.md).

        Counters the hot path must label per event (query totals,
        latency, phase seconds, sheds) are incremented directly at the
        accounting sites; everything a component already tracks
        (EngineStats fields, cache/breaker/admission/pool state) is
        mirrored via scrape-time callbacks so the hot path pays
        nothing and the two views can never drift.
        """
        reg = self.metrics
        self._m_queries = reg.counter(
            "pinls_queries_total",
            "Queries accounted by the engine, by algorithm, execution "
            "tier, and outcome.",
            labels=("algorithm", "tier", "status"),
        )
        self._m_latency = reg.histogram(
            "pinls_query_latency_seconds",
            "Wall time of completed queries.",
            labels=("algorithm", "tier"),
        )
        self._m_phase = reg.counter(
            "pinls_phase_seconds_total",
            "Cumulative seconds spent per execution phase.",
            labels=("phase",),
        )
        self._m_shed = reg.counter(
            "pinls_queries_shed_total",
            "Queries refused by admission control, by shed reason.",
            labels=("reason",),
        )
        self._m_approx = reg.counter(
            "pinls_approx_queries_total",
            "Queries answered by the approximate (sketch) tier, by the "
            "reason it was selected.",
            labels=("reason",),
        )
        self._m_approx_latency = reg.histogram(
            "pinls_approx_latency_seconds",
            "Wall time of queries answered by the approximate tier.",
            labels=("algorithm",),
        )
        self._m_approx_bound = reg.histogram(
            "pinls_approx_error_bound",
            "Advertised absolute error bound of approximate answers "
            "(objects).",
            buckets=(0.0, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
        )
        reg.counter(
            "pinls_sketch_builds_total",
            "Influence sketches built (sketch-cache misses).",
        ).set_function(lambda: self.stats.sketch_misses)
        for name, help_text, fn in (
            ("pinls_worker_failures_total",
             "Pool span dispatches that died or raised.",
             lambda: self.stats.worker_failures),
            ("pinls_retries_total",
             "Span re-dispatches after worker failures.",
             lambda: self.stats.retries),
            ("pinls_degraded_total",
             "Queries that fell back to in-parent serial execution.",
             lambda: self.stats.degraded),
            ("pinls_deadline_exceeded_total",
             "Queries cut off by their deadline.",
             lambda: self.stats.deadline_exceeded),
            ("pinls_spans_dispatched_total",
             "Span tasks handed to the persistent worker pool.",
             lambda: self.stats.spans_dispatched),
            ("pinls_pool_respawns_total",
             "Pool workers killed and replaced.",
             lambda: self.stats.pool_respawns),
            ("pinls_records_dropped_total",
             "In-memory metrics records dropped by the max_records cap.",
             lambda: self.stats.records_dropped),
            ("pinls_traces_exported_total",
             "Span trees exported by the tracer.",
             lambda: self.tracer.exported),
        ):
            reg.counter(name, help_text).set_function(fn)
        hits = reg.counter(
            "pinls_cache_hits_total",
            "Session-cache hits, per cache.", labels=("cache",),
        )
        misses = reg.counter(
            "pinls_cache_misses_total",
            "Session-cache misses, per cache.", labels=("cache",),
        )
        evictions = reg.counter(
            "pinls_cache_evictions_total",
            "LRU evictions, per cache.", labels=("cache",),
        )
        entries = reg.gauge(
            "pinls_cache_entries",
            "Entries currently cached, per cache.", labels=("cache",),
        )
        stats = self.stats
        for cache, hit_field, miss_field in (
            (self._tables, "table_hits", "table_misses"),
            (self._cand_arrays, "candidate_hits", "candidate_misses"),
            (self._rtrees, "rtree_hits", "rtree_misses"),
            (self._prunings, "pruning_hits", "pruning_misses"),
            (self._sketches, "sketch_hits", "sketch_misses"),
        ):
            hits.set_function(
                lambda f=hit_field: getattr(stats, f), cache=cache.name
            )
            misses.set_function(
                lambda f=miss_field: getattr(stats, f), cache=cache.name
            )
            evictions.set_function(
                lambda c=cache: c.evictions, cache=cache.name
            )
            entries.set_function(lambda c=cache: len(c), cache=cache.name)
        trips = reg.counter(
            "pinls_breaker_trips_total",
            "Circuit-breaker trips, per execution tier.",
            labels=("tier",),
        )
        state = reg.gauge(
            "pinls_breaker_state",
            "Breaker state per tier (0=closed, 1=half-open, 2=open).",
            labels=("tier",),
        )
        for tier, breaker in self.ladder.breakers.items():
            trips.set_function(lambda b=breaker: b.trips, tier=tier)
            state.set_function(
                lambda b=breaker: self._BREAKER_STATES.get(b.state, -1),
                tier=tier,
            )
        reg.gauge(
            "pinls_inflight_queries",
            "Queries currently holding an admission slot "
            "(0 when admission control is off).",
        ).set_function(
            lambda: (
                self.admission.inflight
                if self.admission is not None else 0
            )
        )
        reg.gauge(
            "pinls_pool_queue_depth",
            "Span tasks dispatched to pool workers and unanswered.",
        ).set_function(
            lambda: (
                self._pool.queue_depth()
                if self._pool is not None and not self._pool.closed
                else 0
            )
        )

    def metrics_text(self) -> str:
        """The engine's metrics in Prometheus text exposition format.

        The same page the HTTP front end serves at ``GET /metrics``
        (:mod:`repro.engine.server`); embedders without the front end
        read it here.
        """
        return self.metrics.render()

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _pool_for(self) -> WorkerPool:
        """The session's persistent pool, started on first pooled query.

        Locked: engine threads racing here would start two pools, one
        forking its workers while the other holds multiprocessing's
        resource-tracker lock — a worker forked then deadlocks on its
        first shared-memory attach.
        """
        with self._pool_lock:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(
                    self.workers, policy=self.supervisor_policy
                )
            return self._pool

    def close(self) -> None:
        """Shut down the session: workers stopped and joined, every
        shared-memory segment unlinked, and the engine marked closed —
        ``query``/``query_batch`` raise :class:`RuntimeError` afterwards
        (a closed engine silently serving would hide lifecycle bugs).
        Idempotent: closing twice is a no-op.  A ``weakref.finalize``
        hook inside the pool performs the same segment teardown at
        garbage collection / interpreter exit, so segments never
        outlive the process even without an explicit ``close``.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "QueryEngine is closed; build a new engine to serve "
                "further queries"
            )

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @staticmethod
    def _poolable(pf: ProbabilityFunction) -> bool:
        """Whether ``pf`` can travel to pool workers (span messages are
        pickled)."""
        try:
            pickle.dumps(pf)
        except Exception:
            return False
        return True

    def _span_tasks(self, plan: _Plan, kind: str, start_id: int) -> list:
        """Publish the segment ``kind`` reads and build the pool tasks
        for one request's candidate spans.  One table segment per
        ``(PF, τ)`` serves both PIN spans and PIN-VO pruning spans; NA
        reads the single radius-free fleet segment."""
        pool = self._pool_for()
        if kind == "na":
            key: tuple = ("fleet",)
            if self._fleet is None:
                self._fleet = fleet_to_columnar(self.objects)
            local: Any = self._fleet
            pool.ensure_segment(key, lambda: local)
        else:
            key = ("table", _pf_key(plan.pf), plan.tau)
            pool.ensure_segment(
                key, plan.table.to_columnar, plan.pf, plan.tau
            )
            local = plan.table
        req = plan.request
        return [
            SpanTask(
                task_id=start_id + n,
                segment_key=key,
                kind=kind,
                algorithm=req.algorithm,
                algorithm_kwargs=dict(req.algorithm_kwargs),
                pf=plan.pf,
                tau=plan.tau,
                cand_slice=plan.cand_xy[lo:hi],
                lo=lo,
                hi=hi,
                query_id=plan.query_id,
                local_context=local,
            )
            for n, (lo, hi) in enumerate(
                column_spans(plan.cand_xy.shape[0], self.workers)
            )
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        candidates: Sequence[Candidate],
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        deadline_seconds: float | None = None,
        priority: int = 0,
        **algorithm_kwargs,
    ) -> LSResult:
        """Answer one PRIME-LS query against the ingested fleet.

        Same semantics (and bit-identical results) as
        ``select_location(objects, candidates, pf, tau, algorithm)``,
        but per-object and per-candidate work is served from the
        session caches.  On a pool engine (``pool=True``) NA (vector
        kernel), PIN, and PIN-VO's pruning phase run as candidate spans
        on the worker pool; everything else runs serially.

        Pooled execution is supervised: a span whose worker crashes or
        raises is retried with bounded backoff (per the engine's
        :class:`~repro.engine.faults.SupervisorPolicy`) and, once
        retries are exhausted, re-run serially in the parent, so the
        query always returns the bit-identical answer.  Across queries,
        the pool tier's circuit breaker remembers those failures: a
        tripped pool breaker routes the next queries to serial until
        its recovery window admits a probe.  What happened is recorded
        in the result's :class:`~repro.core.result.Instrumentation`
        (``worker_failures``/``retries``/``degraded``), the engine's
        :class:`EngineStats`, and the JSONL metrics.

        ``deadline_seconds`` bounds the query's wall time: busy workers
        are hard-killed (and joined — no orphans) when the budget
        expires, serial sections check the budget at phase boundaries,
        and :class:`~repro.engine.faults.DeadlineExceeded` is raised.  A
        deadline overrun wins over retry/degradation: the engine never
        trades the latency bound for an answer.

        On an engine with admission control (``max_inflight`` set) the
        query first claims an admission slot; when the budget is full
        it is shed — a JSONL record is written and
        :class:`~repro.engine.admission.QueryShedError` raised, carrying
        the typed :class:`~repro.engine.admission.QueryShed` outcome
        (reason ``queue-full`` under every policy).  ``priority`` is
        recorded on the shed outcome.
        """
        self._check_open()
        request = QueryRequest(
            list(candidates), pf, tau, algorithm, algorithm_kwargs, priority
        )
        (out,) = self._serve([request], deadline_seconds)
        if isinstance(out, QueryShed):
            raise QueryShedError(out)
        return out

    def query_approx(
        self,
        candidates: Sequence[Candidate],
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        reason: str = "overload",
        tenant: str | None = None,
    ) -> LSResult:
        """Answer one query from the approximate (sketch) tier directly.

        The shed alternative an *external* admission layer can take:
        the HTTP front end calls this when a tenant's budget overflows
        on an approx-enabled engine, answering the over-budget request
        in O(k) per candidate with an advertised error bound instead
        of refusing it — the same routing engine-level admission takes
        internally.  No admission slot is consumed (the estimate is too
        cheap to need one).  Requires ``approx=True`` and an algorithm
        in :attr:`APPROX_ALGORITHMS`; the result is labelled
        (``quality="approx"`` unless the sketch is exhaustive) and
        accounted like every approximate answer (stats, JSONL record
        with ``approx_reason``, metrics, trace); ``tenant`` tags its
        admission span like :attr:`QueryRequest.tenant`.
        """
        self._check_open()
        if not self.approx:
            raise RuntimeError(
                "query_approx needs an approx-enabled engine "
                "(QueryEngine(approx=True))"
            )
        if algorithm not in self.APPROX_ALGORITHMS:
            raise ValueError(
                f"the approximate tier cannot answer {algorithm!r}; "
                f"expected one of {', '.join(self.APPROX_ALGORITHMS)}"
            )
        request = QueryRequest(
            list(candidates), pf, tau, algorithm, tenant=tenant
        )
        (out,) = self._serve([request], approx_reason=reason)
        return out

    def query_batch(
        self,
        requests: "Sequence[QueryRequest | Sequence[Candidate]]",
        *,
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        deadline_seconds: float | None = None,
        priority: int = 0,
        **algorithm_kwargs,
    ) -> "list[LSResult | QueryShed]":
        """Answer several queries in one coalesced admission round.

        ``requests`` holds :class:`QueryRequest` objects or plain
        candidate sequences (wrapped with the call-level ``pf``/
        ``tau``/``algorithm``/``priority`` defaults).  Results come
        back in request order and are bit-identical to issuing the same
        ``query`` calls sequentially — including cache effects:
        requests are planned in order, so a later request repeating an
        earlier one's PIN-VO pruning key counts as a pruning hit and
        reuses its output.  Every request is validated before any is
        admitted: a malformed one raises :class:`ValueError` without
        consuming a query id, a cache counter, or a record.

        On an engine with admission control the round is bounded: at
        most ``max_inflight + max_queue_depth`` requests are admitted
        and the rest are shed per the engine's ``shed_policy``
        (``reject`` keeps the oldest, ``oldest`` keeps the freshest,
        ``by-priority`` keeps the highest :attr:`QueryRequest.priority`;
        with no free slot at all every request is shed as
        ``queue-full``).  A shed request's slot in the returned list
        holds its typed :class:`~repro.engine.admission.QueryShed`
        outcome instead of an :class:`~repro.core.result.LSResult`, and
        a JSONL record is written for it — nothing is dropped silently.

        On a pool engine every span of every admitted request is
        dispatched to the persistent pool in a *single* round, so
        workers stream spans back-to-back instead of idling between
        queries; the sequential PIN-VO validations then run in the
        parent in request order.  A tripped pool breaker runs the round
        serially instead.

        ``deadline_seconds`` bounds the *whole batch*: on overrun every
        busy pool worker is killed, respawned and joined, a failure
        record is written for each request that produced no result, and
        :class:`~repro.engine.faults.DeadlineExceeded` is raised.
        """
        self._check_open()
        reqs: list[QueryRequest] = []
        for entry in requests:
            if isinstance(entry, QueryRequest):
                reqs.append(entry)
            else:
                reqs.append(QueryRequest(
                    list(entry), pf, tau, algorithm,
                    dict(algorithm_kwargs), priority,
                ))
        if not reqs:
            raise ValueError("need at least one request in the batch")
        return self._serve(reqs, deadline_seconds)

    def _serve(
        self,
        reqs: list[QueryRequest],
        deadline_seconds: float | None = None,
        *,
        approx_reason: str | None = None,
    ) -> "list[LSResult | QueryShed]":
        """The one request path behind every public query method.

        Validate every request → apply the parent faults → admit the
        round → shed or approx-answer the overflow → pick the tier once
        → plan each request through the caches → dispatch every span in
        one pool round → assemble and record in request order.  A
        non-``None`` ``approx_reason`` answers every request from the
        sketch tier without an admission slot (:meth:`query_approx`).
        """
        from repro import make_algorithm

        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        solvers = []
        for req in reqs:
            if not 0.0 < req.tau < 1.0:
                raise ValueError(f"tau must be in (0, 1), got {req.tau}")
            if not req.candidates:
                raise ValueError("need at least one candidate location")
            solvers.append(
                make_algorithm(req.algorithm, **req.algorithm_kwargs)
            )
        started = time.perf_counter()
        size = len(reqs)

        phantom = self._apply_parent_faults(self.stats.queries)
        if approx_reason is not None:
            admitted, overflow = [], [(i, None) for i in range(size)]
        elif self.admission is None:
            admitted, overflow = list(range(size)), []
        else:
            admitted, overflow = self.admission.admit_batch(
                [req.priority for req in reqs], phantom=phantom
            )
        out: "list[LSResult | QueryShed | None]" = [None] * size
        try:
            # The overflow goes first so refused requests consume the
            # lower query ids — the JSONL stream stays ordered by round.
            for i, shed_reason in overflow:
                req = reqs[i]
                reason = approx_reason
                if (
                    reason is None and self.approx
                    and req.algorithm in self.APPROX_ALGORITHMS
                ):
                    # approx-enabled engines answer over-budget requests
                    # from the sketch instead of refusing them
                    reason = "overload"
                if reason is None:
                    out[i] = self._shed(shed_reason, req, size)
                    continue
                plan = self._plan(
                    req, solvers[i], "approx", self.stats.queries, size,
                    set(), admitted=False, approx_reason=reason,
                )
                out[i] = self._record(
                    plan, self._assemble(plan, {}, None), started
                )
            if admitted:
                results = self._run_round(
                    [reqs[i] for i in admitted],
                    [solvers[i] for i in admitted],
                    deadline_seconds, started, size,
                )
                for i, result in zip(admitted, results):
                    out[i] = result
        finally:
            if self.admission is not None and admitted:
                self.admission.release(len(admitted))
        return out

    def _run_round(
        self,
        reqs: list[QueryRequest],
        solvers: list,
        deadline_seconds: float | None,
        started: float,
        size: int,
    ) -> list[LSResult]:
        """Execute the admitted requests of one round on one tier."""
        tier = self.ladder.select(self._tiers())
        supervisor = Supervisor(
            injector=self.fault_injector,
            deadline_seconds=deadline_seconds,
            breaker=self.ladder.breakers.get(tier),
        )
        planned: set[tuple] = set()
        plans: list[_Plan] = []
        tasks: list[SpanTask] = []
        for req, solver in zip(reqs, solvers):
            plan = self._plan(
                req, solver, tier, self.stats.queries + len(plans), size,
                planned, start_id=len(tasks),
            )
            plans.append(plan)
            tasks.extend(plan.tasks)

        results: list[LSResult] = []
        try:
            dispatched = [
                (plan, plan.trace.child("dispatch", mode="pool"))
                for plan in plans if plan.tasks
            ]
            outputs = self._pool.run_batch(tasks, supervisor) if tasks else {}
            for plan, span in dispatched:
                span.finish()
                for task in plan.tasks:
                    span.attach(outputs[task.task_id][2])
            for plan in plans:
                result = self._assemble(plan, outputs, supervisor)
                results.append(self._record(plan, result, started))
        except DeadlineExceeded:
            self._fold_report(supervisor.report)
            # A deadline overrun is a latency-budget decision, not a
            # tier fault — except on an approx-enabled engine, where
            # repeated overruns *are* the signal that walks the ladder
            # onto the approximate floor.
            if self.approx:
                self.ladder.record(tier, ok=False)
                self.stats.breaker_trips = self.ladder.trips
            for plan in plans[len(results):]:
                self._record_failure(plan, supervisor, started)
            raise
        self._fold_report(supervisor.report)
        # Span failures already fed the tier's breaker one by one inside
        # the pool; the round only contributes the *success* signal
        # that resets the consecutive-failure streak / closes a probe.
        report = supervisor.report
        if report.worker_failures == 0 and not report.degraded:
            self.ladder.record(tier, ok=True)
        self.stats.breaker_trips = self.ladder.trips
        return results

    def _tiers(self) -> tuple[str, ...]:
        """The tiers the engine *could* execute on, fastest first."""
        tiers = ("pool", "serial") if self.use_pool else ("serial",)
        return tiers + ("approx",) if self.approx else tiers

    def _apply_parent_faults(self, query_id: int | None) -> int:
        """Consume parent-side faults; returns phantom admission load."""
        phantom = 0
        if self.fault_injector is None:
            return phantom
        for spec in self.fault_injector.parent_faults(query_id):
            if spec.kind == "overload":
                phantom = (
                    self.admission.capacity
                    if self.admission is not None else 0
                )
            elif spec.kind == "memory-pressure":
                self._shrink_caches()
            elif spec.kind == "exact-down":
                self.ladder.trip_exact_tiers()
                self.stats.breaker_trips = self.ladder.trips
        return phantom

    def _plan(
        self,
        req: QueryRequest,
        solver,
        tier: str,
        query_id: int,
        size: int,
        planned: set,
        *,
        admitted: bool = True,
        approx_reason: str | None = None,
        start_id: int = 0,
    ) -> _Plan:
        """Resolve one request through the caches and decide how it
        executes on the round's ``tier`` — the only place that does.

        The pool takes NA (vector kernel), PIN, and PIN-VO's pruning
        phase, when the PF pickles; everything else runs serially.  On
        the approx tier (every exact breaker open) approx-capable
        algorithms are answered from the sketch.  PIN-VO's pruning
        output is looked up here, so hit/miss counts follow request
        order: a key repeated within the round (``planned``) is a hit.
        """
        evictions = self._total_evictions()
        trace = self.tracer.start(
            "query", algorithm=req.algorithm, batch_size=size
        )
        admission = trace.child("admission")
        if req.tenant is not None:
            admission.set(tenant=req.tenant)
        if admitted:
            admission.finish(admitted=True)
        else:
            admission.finish(admitted=False, approx=True)
        plan_span = trace.child("plan")
        pf = req.pf
        if pf is None:
            if self._default_pf is None:
                self._default_pf = PowerLawPF()
            pf = self._default_pf
        tau = float(req.tau)
        trace.set(query=query_id, tau=tau)
        candidates = list(req.candidates)
        plan = _Plan(
            request=req, solver=solver, pf=pf, tau=tau,
            candidates=candidates, cand_xy=self._cand_xy_for(candidates),
            query_id=query_id, batch_size=size, trace=trace,
        )
        if tier == "approx" and req.algorithm in self.APPROX_ALGORITHMS:
            approx_reason = approx_reason or "breakers"
        if approx_reason is not None:
            plan.tier, plan.approx_reason = "approx", approx_reason
        else:
            solver.rtree_factory = self.rtree_for
            if isinstance(solver, PinocchioVO):  # PIN-VO and PIN-VO*
                kind = "vo_prune"
            elif isinstance(solver, Pinocchio):
                kind = "pin"
            elif (
                isinstance(solver, NaiveAlgorithm)
                and solver.kernel == "vector"
            ):
                kind = "na"
            else:
                kind = None
            if kind in ("vo_prune", "pin"):
                plan.table = self.table_for(pf, tau)
            if tier == "pool" and kind is not None and self._poolable(pf):
                plan.tier = "pool"
            if kind == "vo_prune":
                key = (_pf_key(pf), tau, plan.cand_xy.tobytes(),
                       solver.use_pruning)
                plan.pruning_key = key
                if key in self._prunings or key in planned:
                    self.stats.pruning_hits += 1
                    plan.pruning = "cached"
                else:
                    self.stats.pruning_misses += 1
                    planned.add(key)
                    plan.pruning = (
                        "dispatch" if plan.tier == "pool" else "compute"
                    )
            if plan.tier == "pool" and plan.pruning in (None, "dispatch"):
                plan.tasks = self._span_tasks(plan, kind, start_id)
        plan_span.finish(tier=plan.tier)
        trace.set(tier=plan.tier)
        plan.evictions = self._total_evictions() - evictions
        return plan

    def _assemble(
        self, plan: _Plan, outputs: dict, supervisor: Supervisor | None
    ) -> LSResult:
        """One request's result: the sketch estimate, its merged pool
        spans, or its serial phases — plus its supervision counters."""
        evictions = self._total_evictions()
        trace, solver, table = plan.trace, plan.solver, plan.table
        m = plan.cand_xy.shape[0]
        if plan.tier == "approx":
            result = self._run_approx(plan)
        elif plan.pruning is None and not plan.tasks:
            supervisor.check_deadline()
            if table is not None:
                solver.table_factory = lambda _objects, _pf, _tau: table
            with trace.child("dispatch", mode="serial"):
                result = solver.select(
                    self.objects, plan.candidates, plan.pf, plan.tau
                )
        else:
            counters = Instrumentation()
            if table is not None:
                counters.dead_objects = table.dead_objects
                counters.pairs_total = table.live_count * m
            else:
                counters.pairs_total = len(self.objects) * m
            if plan.pruning is None:
                influence = np.zeros(m, dtype=int)
                with trace.child("merge"):
                    for task in plan.tasks:
                        payload, span_counters, _ = outputs[task.task_id]
                        influence[task.lo:task.hi] = payload
                        counters.merge(span_counters)
                result = full_table_result(
                    solver.name, plan.candidates, influence, counters
                )
            else:
                min_inf, vs_indexes = self._pruning_output(
                    plan, outputs, counters, supervisor
                )
                supervisor.check_deadline()
                with trace.child("validate"):
                    result = solver.validation_phase(
                        table, plan.candidates, plan.cand_xy, plan.pf,
                        plan.tau, counters, min_inf, vs_indexes,
                    )
        inst = result.instrumentation
        inst.cache_evictions += (
            plan.evictions + self._total_evictions() - evictions
        )
        if plan.tier == "pool":
            inst.worker_failures += sum(t.failures for t in plan.tasks)
            inst.retries += sum(t.retries for t in plan.tasks)
            inst.degraded += int(any(t.degraded for t in plan.tasks))
            inst.spans_dispatched += sum(1 + t.retries for t in plan.tasks)
            # a respawned worker serves the whole round, so every pooled
            # request reports the round's respawn count
            inst.pool_respawns += supervisor.report.respawns
        return result

    def _pruning_output(
        self,
        plan: _Plan,
        outputs: dict,
        counters: Instrumentation,
        supervisor: Supervisor,
    ) -> tuple[np.ndarray, list]:
        """PIN-VO's pruning output (``minInf``, verification sets) for
        one request: merged from its pool spans, replayed from the
        pruning cache, or computed in the parent.

        The output is a pure function of the object table and the
        candidate coordinates, so it is memoised pristine (validation
        mutates ``minInf``, so both store and hit hand out copies) and
        a hit replays its logical work counters.
        """
        m = plan.cand_xy.shape[0]
        if plan.pruning == "dispatch":
            prune_counters = Instrumentation()
            min_inf = np.zeros(m, dtype=int)
            vs_indexes: list = [None] * m
            with plan.trace.child("merge"):
                for task in plan.tasks:
                    (mi, vs), span_counters, _ = outputs[task.task_id]
                    min_inf[task.lo:task.hi] = mi
                    vs_indexes[task.lo:task.hi] = vs
                    prune_counters.merge(span_counters)
                self._prunings[plan.pruning_key] = (
                    min_inf.copy(), vs_indexes, _counts_only(prune_counters)
                )
            counters.merge(prune_counters)
            return min_inf, vs_indexes
        with plan.trace.child("prune") as prune_span:
            cached = (
                self._prunings.get(plan.pruning_key)
                if plan.pruning == "cached" else None
            )
            if cached is None:
                # a miss — or a tiny pruning budget evicted the entry
                # since planning; correctness never depends on residency
                supervisor.check_deadline()
                prune_counters = Instrumentation()
                with prune_counters.phase("pruning"):
                    min_inf, vs_indexes = plan.solver.pruning_phase(
                        plan.table, plan.cand_xy, prune_counters
                    )
                self._prunings[plan.pruning_key] = (
                    min_inf.copy(), vs_indexes, _counts_only(prune_counters)
                )
                counters.merge(prune_counters)
            else:
                base_min_inf, vs_indexes, snapshot = cached
                min_inf = base_min_inf.copy()
                counters.merge(snapshot)
            prune_span.set(cached=cached is not None)
        return min_inf, vs_indexes

    def _run_approx(self, plan: _Plan) -> LSResult:
        """Answer one query from the influence sketch (the approx tier).

        O(k) work per candidate instead of O(total positions): the
        (cached) sketch's sample runs the exact IA/NIB + Strategy-2
        kernels and the hit counts are scaled to population estimates.
        The result is labelled (``quality="approx"``) and carries the
        sketch's advertised error bound for this query's candidate
        count; its influence table holds the rounded estimates.
        """
        m = plan.cand_xy.shape[0]
        builds_before = self.stats.sketch_misses
        sketch_started = time.perf_counter()
        with plan.trace.child("sketch") as sketch_span:
            sketch = self.sketch_for(plan.pf, plan.tau)
            sketch_span.set(
                k=sketch.k,
                population=sketch.population,
                exact=sketch.exact,
                cached=self.stats.sketch_misses == builds_before,
            )
        sketch_seconds = time.perf_counter() - sketch_started
        counters = Instrumentation()
        counters.pairs_total = sketch.population * m
        bound = sketch.error_bound(m)
        estimate_started = time.perf_counter()
        with plan.trace.child("estimate") as estimate_span:
            estimates = sketch.estimate_many(plan.cand_xy, counters)
            estimate_span.set(bound=bound, sample_size=sketch.k)
        estimate_seconds = time.perf_counter() - estimate_started
        if sketch_seconds:
            self._m_phase.inc(sketch_seconds, phase="sketch")
        if estimate_seconds:
            self._m_phase.inc(estimate_seconds, phase="estimate")
        influence = np.rint(estimates).astype(np.int64)
        result = full_table_result(
            plan.request.algorithm, plan.candidates, influence, counters
        )
        result.quality = "exact" if sketch.exact else "approx"
        result.error_bound = float(bound)
        return result

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _shed(
        self, reason: str, req: QueryRequest, batch_size: int
    ) -> QueryShed:
        """Account one shed query: id, counters, report, JSONL record."""
        query_id = self.stats.queries
        self.stats.queries += 1
        self.stats.queries_shed += 1
        shed = QueryShed(
            query_id=query_id,
            reason=reason,
            policy=self.admission.policy,
            priority=req.priority,
            algorithm=req.algorithm,
            tau=float(req.tau),
            candidates=len(req.candidates),
            tenant=req.tenant,
        )
        self.admission.report.note_shed(shed)
        # shed queries never executed, so they carry no span tree
        self._append_record({
            "schema": 2,
            "trace_id": None,
            "query": query_id,
            "algorithm": req.algorithm,
            "tau": float(req.tau),
            "pf": None,
            "candidates": len(req.candidates),
            "elapsed_seconds": 0.0,
            "shed": True,
            "shed_reason": reason,
            "shed_policy": self.admission.policy,
            "priority": req.priority,
            "tenant": req.tenant,
            "batch_size": batch_size,
            "best_candidate": None,
            "best_influence": None,
        })
        self._m_queries.inc(
            algorithm=req.algorithm, tier="none", status="shed"
        )
        self._m_shed.inc(reason=reason)
        return shed

    def _fold_report(self, report) -> None:
        """Accumulate one supervision report into the session stats."""
        self.stats.worker_failures += report.worker_failures
        self.stats.retries += report.retries
        self.stats.degraded += int(report.degraded)
        self.stats.spans_dispatched += report.spans_dispatched
        self.stats.pool_respawns += report.respawns

    def _record(
        self, plan: _Plan, result: LSResult, started: float
    ) -> LSResult:
        """Account one answered query: stats, JSONL record, metrics,
        and the exported span tree."""
        result.elapsed_seconds = time.perf_counter() - started
        self._sync_cache_stats()
        self.stats.queries += 1
        tier = plan.tier
        if tier == "approx":
            self.stats.approx_queries += 1
        inst = result.instrumentation
        record = {
            "schema": 2,
            "trace_id": plan.trace.trace_id,
            "query": plan.query_id,
            "algorithm": result.algorithm,
            "tau": plan.tau,
            "pf": repr(plan.pf),
            "candidates": len(plan.candidates),
            "workers": self.workers if tier == "pool" else 1,
            "tier": tier,
            "quality": result.quality,
            "error_bound": result.error_bound,
            "approx_reason": plan.approx_reason,
            "shed": False,
            "elapsed_seconds": result.elapsed_seconds,
            "pruning_seconds": inst.pruning_seconds,
            "validation_seconds": inst.validation_seconds,
            "pairs_total": inst.pairs_total,
            "pairs_pruned_ia": inst.pairs_pruned_ia,
            "pairs_pruned_nib": inst.pairs_pruned_nib,
            "pairs_validated": inst.pairs_validated,
            "cache_hits": self.stats.hits,
            "cache_misses": self.stats.misses,
            "table_hits": self.stats.table_hits,
            "table_misses": self.stats.table_misses,
            "candidate_hits": self.stats.candidate_hits,
            "candidate_misses": self.stats.candidate_misses,
            "pruning_hits": self.stats.pruning_hits,
            "pruning_misses": self.stats.pruning_misses,
            "worker_failures": inst.worker_failures,
            "retries": inst.retries,
            "degraded": bool(inst.degraded),
            "deadline_exceeded": False,
            "pool": tier == "pool",
            "batch_size": plan.batch_size,
            "spans_dispatched": inst.spans_dispatched,
            "pool_respawns": inst.pool_respawns,
            "cache_evictions": inst.cache_evictions,
            "best_candidate": result.best_candidate.candidate_id,
            "best_influence": result.best_influence,
        }
        self._append_record(record)
        self._m_queries.inc(
            algorithm=result.algorithm, tier=tier, status="ok"
        )
        self._m_latency.observe(
            result.elapsed_seconds, algorithm=result.algorithm, tier=tier
        )
        if inst.pruning_seconds:
            self._m_phase.inc(inst.pruning_seconds, phase="pruning")
        if inst.validation_seconds:
            self._m_phase.inc(inst.validation_seconds, phase="validation")
        if tier == "approx":
            self._m_approx.inc(reason=plan.approx_reason)
            self._m_approx_latency.observe(
                result.elapsed_seconds, algorithm=result.algorithm
            )
            if result.error_bound is not None:
                self._m_approx_bound.observe(result.error_bound)
        self.tracer.export(plan.trace)
        return result

    def _record_failure(
        self, plan: _Plan, supervisor: Supervisor, started: float
    ) -> None:
        """Account a deadline-exceeded query in stats and metrics.

        The query produced no result, but it still consumed a query id
        and must be visible in the JSONL stream — a serving deployment
        alerts on exactly these records.  The supervision counters are
        the whole round's.
        """
        report = supervisor.report
        self.stats.deadline_exceeded += 1
        self.stats.queries += 1
        self._append_record({
            "schema": 2,
            "trace_id": plan.trace.trace_id,
            "query": plan.query_id,
            "algorithm": plan.request.algorithm,
            "tau": plan.tau,
            "pf": repr(plan.pf),
            "candidates": len(plan.candidates),
            "elapsed_seconds": time.perf_counter() - started,
            "deadline_seconds": supervisor.deadline_seconds,
            "worker_failures": report.worker_failures,
            "retries": report.retries,
            "degraded": report.degraded,
            "deadline_exceeded": True,
            "pool": plan.tier == "pool",
            "batch_size": plan.batch_size,
            "spans_dispatched": report.spans_dispatched,
            "pool_respawns": report.respawns,
            "best_candidate": None,
            "best_influence": None,
        })
        self._m_queries.inc(
            algorithm=plan.request.algorithm, tier="none",
            status="deadline-exceeded",
        )
        plan.trace.set(error="DeadlineExceeded")
        self.tracer.export(plan.trace)

    def _append_record(self, record: dict) -> None:
        self.metrics_log.append(record)
        # The in-memory copy is bounded (oldest records dropped); the
        # JSONL file below stays append-only and is never truncated.
        while len(self.metrics_log) > self.cache_budget.max_records:
            del self.metrics_log[0]
            self.stats.records_dropped += 1
        if self.metrics_path is not None:
            self.metrics_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.metrics_path, "a") as f:
                f.write(json.dumps(record) + "\n")
