"""The serving layer: multi-query sessions over one ingested fleet.

* :mod:`repro.engine.session` — :class:`QueryEngine`, the cross-query
  cache (object tables per ``(PF, τ)``, candidate arrays and R-trees
  per candidate set, PIN-VO pruning output) with hit/miss counters, a
  JSONL metrics log, and batched admission
  (:meth:`QueryEngine.query_batch`),
* :mod:`repro.engine.pool` — the persistent shared-memory worker pool
  (``pool=True``): long-lived workers attach the columnar fleet/table
  exports once and serve candidate-span tasks from a dispatch queue,
  bit-identical to serial execution, supervised (per-span retry with
  bounded backoff, degrade-to-serial, hard deadline kills),
* :mod:`repro.engine.faults` — fault-injection hooks (worker crash,
  injected exception, artificial delay, plus the parent-side
  ``overload``/``memory-pressure`` kinds) and the supervisor policy
  and report types,
* :mod:`repro.engine.admission` — bounded in-flight admission control
  with pluggable shedding policies and typed
  :class:`~repro.engine.admission.QueryShed` outcomes,
* :mod:`repro.engine.breaker` — per-tier circuit breakers and the
  lossless pool → serial degradation ladder (plus the
  ``approx`` sketch-serving floor on ``approx=True`` engines),
* :mod:`repro.engine.cache` — bounded-memory LRU caches and the
  engine-level :class:`~repro.engine.cache.CacheBudget`,
* :mod:`repro.engine.server` — the multi-tenant asyncio HTTP front
  end (``/v1/query``, ``/v1/batch``, ``/v1/subscribe``, ``/v1/ingest``,
  ``/healthz``, ``/metrics``) with per-tenant admission, deadline
  propagation, and graceful drain,
* :mod:`repro.engine.subscriptions` — standing PRIME-LS queries over a
  live fleet: position updates stream in, each subscription's result
  set is maintained incrementally through a safe-region index (cost ∝
  boundary crossings), with versioned snapshots and change events.
"""

from repro.engine.admission import (
    SHED_POLICIES,
    AdmissionController,
    QueryShed,
    QueryShedError,
    ShedReport,
    TenantAdmission,
    TenantBudget,
)
from repro.engine.breaker import (
    EXACT_TIERS,
    TIERS,
    BreakerConfig,
    CircuitBreaker,
    DegradationLadder,
)
from repro.engine.cache import CacheBudget, LRUCache
from repro.engine.faults import (
    DeadlineExceeded,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    SupervisorPolicy,
    SupervisorReport,
)
from repro.engine.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.engine.pool import (
    SEGMENT_PREFIX,
    Supervisor,
    WorkerPool,
    fork_available,
    pool_segments,
)
from repro.engine.server import (
    ApiError,
    BackgroundServer,
    HTTPFrontEnd,
    run_server,
)
from repro.engine.session import EngineStats, QueryEngine, QueryRequest
from repro.engine.subscriptions import (
    SUBSCRIPTION_ALGORITHMS,
    IngestReport,
    SubscriptionEngine,
    SubscriptionEvent,
    SubscriptionSnapshot,
    UpdateShed,
)
from repro.engine.trace import (
    NOOP_SPAN,
    PHASES,
    Span,
    SpanRecord,
    TraceReadError,
    Tracer,
    phase_seconds,
    read_trace_file,
    summarize_traces,
    worker_spans,
)

__all__ = [
    "QueryEngine",
    "QueryRequest",
    "EngineStats",
    "WorkerPool",
    "pool_segments",
    "SEGMENT_PREFIX",
    "fork_available",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "DeadlineExceeded",
    "Supervisor",
    "SupervisorPolicy",
    "SupervisorReport",
    "AdmissionController",
    "QueryShed",
    "QueryShedError",
    "ShedReport",
    "SHED_POLICIES",
    "TenantBudget",
    "TenantAdmission",
    "HTTPFrontEnd",
    "BackgroundServer",
    "ApiError",
    "run_server",
    "BreakerConfig",
    "CircuitBreaker",
    "DegradationLadder",
    "TIERS",
    "EXACT_TIERS",
    "CacheBudget",
    "LRUCache",
    "SubscriptionEngine",
    "SubscriptionSnapshot",
    "SubscriptionEvent",
    "IngestReport",
    "UpdateShed",
    "SUBSCRIPTION_ALGORITHMS",
]
