"""Fault injection and supervision policy for the serving engine.

The serving layer's robustness claims — a crashed, poisoned, or stalled
pool worker never changes a query's answer, and a per-query deadline
is honoured — are only testable if faults can be provoked on demand.
This module supplies that machinery:

* :class:`FaultSpec` / :class:`FaultInjector` — declarative fault
  schedules (worker crash, injected exception, artificial delay) keyed
  by pool worker slot, engine query id, and dispatch attempt.  The
  injector is consulted by :mod:`repro.engine.pool` inside each pool
  worker, immediately before the span task runs; worker faults
  never fire in the parent process, so the retry and degrade-to-serial
  paths are fault-free by construction.  The *parent-side* kinds drive
  the overload-resilience layer instead of workers: ``overload``
  saturates the engine's admission budget with phantom in-flight load
  (forcing typed :class:`~repro.engine.admission.QueryShed` outcomes),
  ``memory-pressure`` trims every engine cache to one entry (forcing
  evictions), and ``exact-down`` force-opens every exact tier's
  breaker (driving an approx-enabled engine onto its approximate
  floor) — see :meth:`FaultInjector.parent_faults`.
* :class:`SupervisorPolicy` — the retry/backoff knobs the worker pool
  (:class:`repro.engine.pool.WorkerPool`) obeys.
* :class:`SupervisorReport` — what actually happened to one round's
  spans (failures, retries, degradation, deadline overrun); the
  engine folds it into :class:`~repro.engine.session.EngineStats`,
  the result's :class:`~repro.core.result.Instrumentation`, and the
  per-query JSONL metrics.
* :class:`DeadlineExceeded` — the clean-timeout error raised when a
  query cannot finish inside ``deadline_seconds``.

Injection only makes sense for testing and chaos drills; production
engines simply leave ``fault_injector=None`` and still get the
supervision (deadline, retry, degrade) for free.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: fault kinds that fire inside worker processes
WORKER_FAULT_KINDS = ("crash", "exception", "delay")

#: fault kinds that fire in the parent, at the engine's admission
#: boundary: "overload" injects phantom in-flight load so admission
#: control sheds real queries, "memory-pressure" trims every engine
#: cache to one entry so eviction paths run on demand, and
#: "exact-down" force-opens every exact tier's circuit breaker (pool
#: and — on an approx-enabled engine — serial) so the chaos
#: drill for the approximate floor is deterministic, and
#: "update-storm" injects phantom pending updates at the subscription
#: engine's ingest-admission boundary so update-burst shedding can be
#: driven deterministically in streaming chaos drills
PARENT_FAULT_KINDS = ("overload", "memory-pressure", "exact-down", "update-storm")

#: every fault kind the injector understands
FAULT_KINDS = WORKER_FAULT_KINDS + PARENT_FAULT_KINDS

#: exit status a crash fault dies with (distinguishable from a clean 0
#: and from the generic task-error exit 1 in worker logs)
CRASH_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """The exception raised inside a worker by an ``exception`` fault."""


class DeadlineExceeded(TimeoutError):
    """A query could not complete within its ``deadline_seconds``.

    Raised by the supervisor with all worker processes already killed
    and joined — no orphans survive the timeout.  Carries the budget
    and the elapsed wall time at the moment the deadline fired.
    """

    def __init__(self, deadline_seconds: float, elapsed_seconds: float):
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        super().__init__(
            f"query exceeded its {deadline_seconds:.3f}s deadline "
            f"(elapsed {elapsed_seconds:.3f}s)"
        )


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``worker``/``query`` restrict where the fault fires (``None`` means
    any worker / any query); ``times`` is how many *dispatch attempts*
    of a matching span it hits, so ``times=1`` fails the first attempt
    and lets the supervisor's retry succeed, while ``times`` larger
    than the retry budget forces the degrade-to-serial path.

    For the parent-side kinds (:data:`PARENT_FAULT_KINDS`) ``worker``
    is ignored — there is no worker yet at admission time — and
    ``times`` counts the *queries* (or batch rounds) the fault fires
    on.
    """

    kind: str                    # one of FAULT_KINDS
    worker: int | None = None    # pool worker slot; None = every worker
    query: int | None = None     # engine query id to hit; None = every query
    delay_seconds: float = 0.05  # sleep length for "delay" faults
    times: int = 1               # number of attempts the fault fires on

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def matches(self, worker: int, query: int | None, attempt: int) -> bool:
        """Whether this fault fires for the given span dispatch."""
        if attempt >= self.times:
            return False
        if self.worker is not None and self.worker != worker:
            return False
        if self.query is not None and query is not None and self.query != query:
            return False
        return True

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``KIND[:WORKER[:QUERY[:SECONDS]]]``.

        ``*`` for ``WORKER``/``QUERY`` means "any", e.g.
        ``crash:1`` (crash worker 1 on every query),
        ``exception:*:0`` (poison every span of query 0),
        ``delay:0:*:0.5`` (stall worker 0 for half a second).
        """
        parts = text.split(":")
        if not 1 <= len(parts) <= 4:
            raise ValueError(
                f"bad fault spec {text!r}; expected "
                "KIND[:WORKER[:QUERY[:SECONDS]]]"
            )

        def _index(token: str, what: str) -> int | None:
            if token in ("*", ""):
                return None
            try:
                return int(token)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {text!r}: {what} must be an "
                    f"integer or '*', got {token!r}"
                ) from None

        kind = parts[0]
        worker = _index(parts[1], "worker") if len(parts) > 1 else None
        query = _index(parts[2], "query") if len(parts) > 2 else None
        kwargs = {}
        if len(parts) > 3:
            try:
                kwargs["delay_seconds"] = float(parts[3])
            except ValueError:
                raise ValueError(
                    f"bad fault spec {text!r}: seconds must be a "
                    f"number, got {parts[3]!r}"
                ) from None
        return cls(kind=kind, worker=worker, query=query, **kwargs)


class FaultInjector:
    """A set of :class:`FaultSpec` consulted by worker processes.

    The injector travels to pool workers with each span message, so
    ``fire`` runs in the worker: a ``delay`` sleeps, an ``exception``
    raises :class:`InjectedFault`, and a ``crash`` hard-exits the
    worker with :data:`CRASH_EXIT_CODE` (no cleanup — modelling a
    SIGKILL'd or OOM-killed process).  Matching is purely a function of
    ``(worker, query, attempt)``, so the parent never needs to see
    child-side state: a retry is a new attempt and naturally escapes
    any fault with exhausted ``times``.
    """

    def __init__(self, faults: "list[FaultSpec] | tuple[FaultSpec, ...]" = ()):
        self.faults: list[FaultSpec] = list(faults)
        #: parent-side fire counts per spec index, so ``times`` bounds
        #: how many queries an overload/memory-pressure fault hits
        self._parent_hits: dict[int, int] = {}

    def add(self, spec: FaultSpec) -> "FaultInjector":
        """Schedule another fault; returns self for chaining."""
        self.faults.append(spec)
        return self

    def matching(
        self, worker: int, query: int | None, attempt: int
    ) -> list[FaultSpec]:
        """The worker faults that would fire for this span dispatch."""
        return [
            f for f in self.faults
            if f.kind in WORKER_FAULT_KINDS
            and f.matches(worker, query, attempt)
        ]

    def fire(self, worker: int, query: int | None, attempt: int) -> None:
        """Trigger every matching worker fault; called inside the worker.

        Parent-side kinds never fire here — the engine consults them
        via :meth:`parent_faults` before dispatching any worker.
        """
        for spec in self.matching(worker, query, attempt):
            if spec.kind == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.kind == "exception":
                raise InjectedFault(
                    f"injected exception in worker {worker} "
                    f"(query {query}, attempt {attempt})"
                )
            elif spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)

    def parent_faults(self, query: int | None) -> list[FaultSpec]:
        """Consume the parent-side faults firing for this query.

        Called by the engine (in the parent, before admission) once per
        query or batch round.  Each matching spec's fire count is
        consumed, so ``times=2`` hits exactly two rounds.  ``worker``
        restrictions do not apply — no worker exists yet.
        """
        fired = []
        for index, spec in enumerate(self.faults):
            if spec.kind not in PARENT_FAULT_KINDS:
                continue
            hits = self._parent_hits.get(index, 0)
            if hits >= spec.times:
                continue
            if (
                spec.query is not None
                and query is not None
                and spec.query != query
            ):
                continue
            self._parent_hits[index] = hits + 1
            fired.append(spec)
        return fired


@dataclass
class SupervisorPolicy:
    """Retry/backoff knobs for the pool's span supervision.

    A failed span is re-dispatched up to ``max_retries`` times with
    exponential backoff (``backoff_seconds * backoff_multiplier**k``,
    capped at ``backoff_cap_seconds`` and by the remaining deadline
    budget); once retries are exhausted the surviving spans run
    serially in the parent so the query still returns.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 1.0

    def backoff_for(self, attempt: int) -> float:
        """Sleep before re-dispatch number ``attempt + 1``."""
        return min(
            self.backoff_seconds * self.backoff_multiplier ** attempt,
            self.backoff_cap_seconds,
        )


@dataclass
class SupervisorReport:
    """What supervision observed while answering one query (or batch)."""

    #: span dispatch attempts that died (crash, error, or EOF)
    worker_failures: int = 0
    #: span re-dispatches performed after a failure
    retries: int = 0
    #: the query fell back to in-parent serial execution
    degraded: bool = False
    #: the query was cut off by its deadline
    deadline_exceeded: bool = False
    #: span tasks handed to the persistent pool, including re-dispatches
    spans_dispatched: int = 0
    #: persistent-pool workers killed and replaced while serving
    #: (crashes and deadline kills alike)
    respawns: int = 0
    #: human-readable trail of what happened, in order
    events: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        """Append one event to the supervision trail."""
        self.events.append(message)
