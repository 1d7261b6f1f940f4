"""Admission control for the serving engine: bounded in-flight work.

PINOCCHIO's own pruning design trades exactness work for cheap filters
so queries stay fast as load grows; this module is the systems-level
analogue at the query-admission boundary.  An unbounded engine accepts
every query and lets latency grow without limit under overload — a
bounded one admits at most ``max_inflight`` executing queries plus
``max_queue_depth`` waiting ones, and *sheds* the excess with a typed
:class:`QueryShed` outcome (never a silent drop: the engine emits a
JSONL record per shed query), so the completed queries keep bounded
latency.

Three shedding policies decide *which* queries go when an admission
round overflows:

* ``reject`` — arrivals beyond capacity are refused (newest lose),
* ``oldest`` — the oldest waiting requests are shed so the freshest
  arrivals run (right when stale answers are worthless),
* ``by-priority`` — the lowest-priority requests are shed, ties broken
  by arrival order (:attr:`QueryRequest.priority`, higher wins).

:class:`AdmissionController` is thread-safe (a lock guards the
in-flight count) and accumulates a :class:`ShedReport` the chaos
drills assert on.  The ``overload`` fault kind
(:mod:`repro.engine.faults`) injects phantom in-flight load so all of
this can be driven deterministically in tests and CI drills.

Every caller admits the same way, through one
:meth:`AdmissionController.admit_batch` round per unit of work: the
engine once per ``query``/``query_batch`` call (a single query is a
round of one), the HTTP front end once per tenant per request, and the
subscription engine once per ingest round.  The caller releases the
admitted slots when that work finishes.

:class:`TenantAdmission` adds the *tenant* dimension the HTTP front
end (:mod:`repro.engine.server`) admits on: one
:class:`AdmissionController` per tenant (budgets from
:class:`TenantBudget`, lazily created per tenant name), so one
tenant's burst exhausts *that tenant's* budget and sheds that tenant —
never the fleet.  The controllers reuse the same shed policies and
typed :class:`QueryShed` outcomes as engine-level admission.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: shedding policies an :class:`AdmissionController` understands
SHED_POLICIES = ("reject", "oldest", "by-priority")


@dataclass(frozen=True)
class QueryShed:
    """The typed outcome of a query refused by admission control.

    Returned in-place by :meth:`QueryEngine.query_batch` (so batch
    results keep request order) and carried by :class:`QueryShedError`
    on the single-query path.  Every shed also emits a JSONL metrics
    record — a serving deployment alerts on exactly these.
    """

    query_id: int          # the engine query id the request consumed
    reason: str            # "queue-full" | "superseded" | "low-priority"
    policy: str            # the shedding policy that made the call
    priority: int          # the request's priority at admission time
    algorithm: str         # what the request would have run
    tau: float
    candidates: int        # size of the request's candidate set
    #: tenant the request was admitted for (``QueryRequest.tenant``;
    #: None when the caller named none)
    tenant: str | None = None


class QueryShedError(RuntimeError):
    """Raised by :meth:`QueryEngine.query` when admission sheds it.

    Carries the :class:`QueryShed` outcome as ``.shed``; callers that
    prefer outcome-style handling can use :meth:`QueryEngine.query_batch`,
    which returns the :class:`QueryShed` in the results list instead.
    """

    def __init__(self, shed: QueryShed):
        self.shed = shed
        super().__init__(
            f"query {shed.query_id} shed by admission control "
            f"({shed.reason}, policy {shed.policy!r})"
        )


@dataclass
class ShedReport:
    """What admission control did over a controller's lifetime."""

    #: queries offered to the controller (admitted + shed)
    offered: int = 0
    #: queries that got an execution or queue slot
    admitted: int = 0
    #: every refused query, in shed order
    shed: list[QueryShed] = field(default_factory=list)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    def note_shed(self, shed: QueryShed) -> None:
        """Record one refused query's typed outcome."""
        self.shed.append(shed)

    def by_reason(self) -> dict[str, int]:
        """Shed counts keyed by reason, feeding
        ``pinls_queries_shed_total{reason=...}``."""
        counts: dict[str, int] = {}
        for shed in self.shed:
            counts[shed.reason] = counts.get(shed.reason, 0) + 1
        return counts


class AdmissionController:
    """A bounded in-flight budget with pluggable shedding.

    ``max_inflight`` bounds concurrently *executing* queries and
    ``max_queue_depth`` the waiting line behind them (default: equal to
    ``max_inflight``); their sum is the admission capacity of one
    :meth:`admit_batch` round.  ``phantom`` load — injected by the
    ``overload`` fault kind — occupies capacity without running
    anything, which is how chaos drills force shedding on demand.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue_depth: int | None = None,
        policy: str = "reject",
    ):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_queue_depth is None:
            max_queue_depth = max_inflight
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; expected one of "
                f"{', '.join(SHED_POLICIES)}"
            )
        self.max_inflight = int(max_inflight)
        self.max_queue_depth = int(max_queue_depth)
        self.policy = policy
        self.report = ShedReport()
        self._lock = threading.Lock()
        self._inflight = 0
        #: release() calls (slot-counts) beyond the slots actually held
        #: — a lifecycle bug upstream; clamped, never phantom capacity
        self.over_releases = 0

    # -- capacity ------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Executing + queued slots one admission round may fill."""
        return self.max_inflight + self.max_queue_depth

    @property
    def inflight(self) -> int:
        return self._inflight

    def free_slots(self, phantom: int = 0) -> int:
        """Capacity left after in-flight and phantom load."""
        with self._lock:
            return max(0, self.capacity - self._inflight - int(phantom))

    def release(self, n: int = 1) -> None:
        """Return ``n`` slots claimed by :meth:`admit_batch`.

        Releasing more slots than are held (a double release) must not
        mint phantom capacity — the in-flight count would go negative
        and the controller would admit ``capacity + |excess|`` queries.
        The excess is clamped and counted in :attr:`over_releases`
        (surfaced by :meth:`snapshot`) so the lifecycle bug is visible
        instead of silently widening the budget.
        """
        if n < 0:
            raise ValueError(f"release() takes n >= 0, got {n}")
        with self._lock:
            n = int(n)
            if n > self._inflight:
                self.over_releases += n - self._inflight
                n = self._inflight
            self._inflight -= n

    # -- admission rounds ----------------------------------------------
    def admit_batch(
        self, priorities: list[int], phantom: int = 0
    ) -> tuple[list[int], list[tuple[int, str]]]:
        """One admission round over a batch of requests.

        ``priorities[i]`` is request ``i``'s priority.  Returns
        ``(admitted_indices, shed)`` where ``shed`` pairs each refused
        index with its reason; both lists are in ascending request
        order, and the admitted slots are already claimed (the caller
        must :meth:`release` them when the batch finishes).  A round
        with no free slot at all sheds every request as ``queue-full``
        under every policy — no request of the round displaced them.
        """
        n = len(priorities)
        with self._lock:
            self.report.offered += n
            free = max(0, self.capacity - self._inflight - int(phantom))
            if n <= free:
                self._inflight += n
                self.report.admitted += n
                return list(range(n)), []
            if self.policy == "reject" or free == 0:
                admitted = list(range(free))
                reason = "queue-full"
            elif self.policy == "oldest":
                admitted = list(range(n - free, n))
                reason = "superseded"
            else:  # by-priority: keep the highest, FIFO among equals
                ranked = sorted(
                    range(n), key=lambda i: (-priorities[i], i)
                )
                admitted = sorted(ranked[:free])
                reason = "low-priority"
            kept = set(admitted)
            shed = [(i, reason) for i in range(n) if i not in kept]
            self._inflight += len(admitted)
            self.report.admitted += len(admitted)
            return admitted, shed

    # -- observability -------------------------------------------------
    def snapshot(self) -> dict:
        """Readiness-probe view: budget, load, lifetime shed counts."""
        with self._lock:
            return {
                "policy": self.policy,
                "max_inflight": self.max_inflight,
                "max_queue_depth": self.max_queue_depth,
                "inflight": self._inflight,
                "free_slots": max(0, self.capacity - self._inflight),
                "offered": self.report.offered,
                "admitted": self.report.admitted,
                "shed": self.report.shed_count,
                "over_releases": self.over_releases,
            }


@dataclass(frozen=True)
class TenantBudget:
    """One tenant's admission budget (the per-tenant PR-4 knobs).

    ``priority`` is the default priority stamped on the tenant's
    requests when a request carries none of its own — it feeds the
    ``by-priority`` shed policy and the shed outcome either way.
    """

    max_inflight: int = 4
    max_queue_depth: int | None = None
    policy: str = "reject"
    priority: int = 0

    def __post_init__(self):
        # Build a throwaway controller so every validation rule lives
        # in exactly one place; a bad budget fails at construction.
        AdmissionController(
            self.max_inflight,
            max_queue_depth=self.max_queue_depth,
            policy=self.policy,
        )

    def controller(self) -> AdmissionController:
        """A fresh controller enforcing this budget."""
        return AdmissionController(
            self.max_inflight,
            max_queue_depth=self.max_queue_depth,
            policy=self.policy,
        )


class TenantAdmission:
    """Per-tenant admission control for the HTTP front end.

    One :class:`AdmissionController` per tenant name, created lazily
    from ``budgets`` (explicit per-tenant budgets) falling back to
    ``default`` for tenants seen for the first time.  Isolation is the
    point: tenant A bursting past its budget sheds tenant A's requests
    while tenant B's stay admitted — the fleet-level budget (if the
    engine has one) only backstops aggregate overload.

    Thread-safe: controller creation is guarded by a lock, and each
    controller guards its own in-flight count.
    """

    def __init__(
        self,
        default: TenantBudget | None = None,
        budgets: dict[str, TenantBudget] | None = None,
    ):
        self.default = default or TenantBudget()
        self.budgets = dict(budgets or {})
        self._controllers: dict[str, AdmissionController] = {}
        self._lock = threading.Lock()

    def controller(self, tenant: str) -> AdmissionController:
        """The (lazily created) controller enforcing ``tenant``'s budget."""
        with self._lock:
            ctrl = self._controllers.get(tenant)
            if ctrl is None:
                budget = self.budgets.get(tenant, self.default)
                ctrl = budget.controller()
                self._controllers[tenant] = ctrl
            return ctrl

    def budget_for(self, tenant: str) -> TenantBudget:
        """The budget ``tenant`` is (or would be) admitted under."""
        return self.budgets.get(tenant, self.default)

    def release(self, tenant: str, n: int = 1) -> None:
        """Return ``n`` of ``tenant``'s slots."""
        self.controller(tenant).release(n)

    def tenants(self) -> list[str]:
        """Every tenant that has been admitted on, sorted."""
        with self._lock:
            return sorted(self._controllers)

    def shed_by_tenant(self) -> dict[str, int]:
        """Lifetime shed counts per tenant (feeds the drain summary
        and ``pinls_http_sheds_total{tenant=...}``)."""
        return {
            tenant: self.controller(tenant).report.shed_count
            for tenant in self.tenants()
        }

    def snapshot(self) -> dict:
        """Per-tenant controller snapshots, for ``/healthz``."""
        return {
            tenant: self.controller(tenant).snapshot()
            for tenant in self.tenants()
        }
