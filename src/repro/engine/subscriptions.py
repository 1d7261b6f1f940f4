"""Standing PRIME-LS queries over a live fleet: the subscription engine.

Every serving path before this module is one-shot: a client asks, the
engine prunes and validates, the connection closes.  PINOCCHIO's
objects *move*, so the natural serving shape is a **subscription**: a
client registers a standing query (candidate set, algorithm, ``PF``,
``τ``), position updates stream in, and the result set — top candidate
plus the full influence table — is maintained incrementally with a
monotonically versioned snapshot and change notifications.

The core is a **safe-region index** over the IA/NIB geometry
(:mod:`repro.core.safe_region`):

* subscriptions sharing ``(PF, τ)`` form a *group*; the group holds
  every subscription's candidates as rows of one columnar coordinate
  array (the same layout as the engine's one-shot classify path),
* per (object, group) we cache a safe region — the reference
  MBR/radius the influence marks were computed at, plus the smallest
  margin (*slack*) to any candidate's guarded IA/NIB boundary, held in
  flat per-slot arrays,
* an update whose deformation stays under the slack is absorbed with
  **zero candidate work** (a *safe-region hit*): every candidate keeps
  a certain IA/OUT verdict, so the marks — and every subscription's
  influence table — are untouched by Lemmas 2-3,
* only a **boundary crossing** recomputes: a round's crossing objects
  in one group go through one vectorised ``(crossers × rows)``
  min/max-distance pass over the group's candidate rows, split with
  the one-shot kernel's guard band (a pair within rounding of
  ``minMaxRadius`` is validated here too), then one exact Strategy-2
  validation of every band pair and one diff of the marks on flat
  ``(crosser, row)`` keys.

Each object's sliding window is a row of one ``(slots, window, 2)``
position block with a fill count, oldest position first, so a round's
appends, its touched MBRs and every validation's position gather are
array operations over that block.

Steady-state maintenance cost is therefore proportional to boundary
*crossings*, not ``n_subscriptions × n_objects``.  Exactness is the
contract: at any instant every snapshot is bit-identical to a
from-scratch one-shot :meth:`repro.engine.session.QueryEngine.query`
over the same fleet state (the Hypothesis property in
``tests/test_subscriptions.py`` drives random interleavings of
ingests/subscribes/unsubscribes against exactly that oracle).

Serving integration mirrors the one-shot engine: bounded ingest
admission with typed :class:`UpdateShed` outcomes (the ``update-storm``
fault kind injects phantom pending updates for chaos drills),
``pinls_sub_*`` metrics, ``ingest``/``recompute`` trace spans, and
JSONL records for recomputations and sheds.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.influence import (
    DEFAULT_CHUNK,
    batch_validate_spans,
    influence_threshold_log,
    span_index,
)
from repro.core.minmax_radius import MinMaxRadiusCache
from repro.core.pruning import CLASSIFY_TILE_ELEMS, classify_span
from repro.core.result import Instrumentation
from repro.core.safe_region import (
    guarded_split,
    margins_span,
    mbr_distances,
    split_margins,
)
from repro.engine.admission import AdmissionController, SHED_POLICIES
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.session import _pf_key
from repro.engine.trace import Tracer
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction

#: algorithms a subscription may register (all maintain the same exact
#: influence table; the name is echoed in snapshots and used by the
#: bit-identity oracle)
SUBSCRIPTION_ALGORITHMS = ("NA", "PIN", "PIN-VO")

#: ``sqrt(2)`` — Lipschitz constant of the IA/NIB distance bounds under
#: an L-infinity move of the four MBR side coordinates
_LIPSCHITZ = float(np.sqrt(2.0))

#: schema stamp on every JSONL record this module writes (2: one
#: ``recompute`` record per group pass, with an ``objects`` count)
RECORD_SCHEMA_VERSION = 2

#: an empty row/index column (no marks)
_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class UpdateShed:
    """The typed outcome of a position update refused by admission.

    The update was *not* applied: the fleet state, every safe region,
    and every snapshot are exactly as if the update never arrived —
    which is what keeps the bit-identity contract trivially true under
    shedding.
    """

    object_id: int
    reason: str      # "queue-full" | "superseded" | "low-priority"
    policy: str      # the shedding policy that made the call


@dataclass(frozen=True)
class SubscriptionEvent:
    """One change notification: a subscription reached a new version."""

    subscription_id: int
    version: int
    best_candidate_id: int
    best_influence: int


@dataclass(frozen=True)
class SubscriptionSnapshot:
    """A consistent, versioned view of one subscription's result set.

    ``influences[j]`` is the exact influence of candidate ``j`` (its
    position in the registration order); the winner tie-break is the
    one-shot engine's (highest influence, lowest index), so snapshots
    compare field-for-field against a fresh
    :meth:`~repro.engine.session.QueryEngine.query`.
    """

    subscription_id: int
    version: int
    algorithm: str
    tau: float
    best_candidate: Candidate
    best_influence: int
    influences: tuple[int, ...]
    objects: int          # live (influenceable) objects at snapshot time

    def to_dict(self) -> dict:
        """A JSON-serialisable form (the HTTP front end's body)."""
        return {
            "subscription_id": self.subscription_id,
            "version": self.version,
            "algorithm": self.algorithm,
            "tau": self.tau,
            "best_candidate": {
                "candidate_id": self.best_candidate.candidate_id,
                "x": self.best_candidate.x,
                "y": self.best_candidate.y,
            },
            "best_influence": self.best_influence,
            "influences": list(self.influences),
            "objects": self.objects,
        }


@dataclass
class IngestReport:
    """What one :meth:`SubscriptionEngine.ingest_batch` round did."""

    offered: int = 0
    applied: int = 0
    shed: list[UpdateShed] = field(default_factory=list)
    #: (object, group) refreshes skipped entirely by a safe region
    safe_region_hits: int = 0
    #: (object, group) slow-path recomputations (boundary crossings)
    crossings: int = 0
    #: exact pair validations performed across the crossings
    validations: int = 0
    #: subscriptions whose result set changed this round
    changed: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0


class _SubState:
    """One standing query inside a group (registration order = row order)."""

    __slots__ = (
        "sub_id", "algorithm", "candidates", "influence", "version",
        "callback", "row_start",
    )

    def __init__(self, sub_id, algorithm, candidates, callback, row_start):
        self.sub_id = sub_id
        self.algorithm = algorithm
        self.candidates: tuple[Candidate, ...] = candidates
        self.influence = np.zeros(len(candidates), dtype=np.int64)
        self.version = 1
        self.callback = callback
        self.row_start = row_start    # first row this sub owns in the group


class _Group:
    """All subscriptions sharing one ``(PF, τ)``, plus the safe-region index.

    Candidate rows from every member subscription are concatenated in
    ``row_xy`` (dead rows from unsubscribes stay as tombstones so row
    indexes remain stable); ``ref_mbrs``/``ref_radii``/``slacks`` are
    indexed by the engine's object *slot* and hold each object's cached
    safe region in columnar form.  ``marks[slot]`` is the ascending
    list of group rows the object currently counts toward — sparse,
    because most objects influence nothing.
    """

    def __init__(self, pf, tau, capacity):
        self.pf = pf
        self.tau = tau
        self.log_threshold = influence_threshold_log(tau)
        self.radius_cache = MinMaxRadiusCache(pf, tau)
        self.subs: dict[int, _SubState] = {}
        self.row_xy = np.empty((0, 2), dtype=float)
        self.row_live = np.empty(0, dtype=bool)
        self.row_sub = np.empty(0, dtype=np.int64)
        self.row_local = np.empty(0, dtype=np.int64)
        # safe-region reference state per object slot
        self.ref_mbrs = np.full((capacity, 4), np.nan)
        self.ref_radii = np.full(capacity, np.nan)
        self.slacks = np.full(capacity, -np.inf)
        self.marks: dict[int, list[int]] = {}

    def grow(self, capacity: int) -> None:
        """Extend the per-slot arrays to the engine's new capacity."""
        extra = capacity - self.ref_radii.shape[0]
        if extra <= 0:
            return
        self.ref_mbrs = np.vstack(
            [self.ref_mbrs, np.full((extra, 4), np.nan)]
        )
        self.ref_radii = np.concatenate(
            [self.ref_radii, np.full(extra, np.nan)]
        )
        self.slacks = np.concatenate(
            [self.slacks, np.full(extra, -np.inf)]
        )

    def append_rows(self, sub_id: int, cand_xy: np.ndarray) -> int:
        """Add one subscription's candidate rows; returns its row start."""
        start = self.row_xy.shape[0]
        m = cand_xy.shape[0]
        self.row_xy = np.vstack([self.row_xy, cand_xy])
        self.row_live = np.concatenate(
            [self.row_live, np.ones(m, dtype=bool)]
        )
        self.row_sub = np.concatenate(
            [self.row_sub, np.full(m, sub_id, dtype=np.int64)]
        )
        self.row_local = np.concatenate(
            [self.row_local, np.arange(m, dtype=np.int64)]
        )
        return start

    @property
    def live_rows(self) -> int:
        return int(self.row_live.sum())


class SubscriptionEngine:
    """Incrementally maintained standing PRIME-LS queries.

    Position updates enter through :meth:`ingest` / :meth:`ingest_batch`
    (each object keeps its most recent ``window`` positions, so a
    whole object is one :meth:`ingest_batch` of its positions when
    ``window`` is at least its length); standing queries enter through
    :meth:`subscribe`.  All public methods are thread-safe behind one
    engine lock (change callbacks fire *outside* the lock, so a
    callback may call back into the engine).

    ``max_updates_per_round`` bounds one :meth:`ingest_batch` round;
    the excess is shed with typed :class:`UpdateShed` outcomes under
    ``shed_policy`` (the PR-4 policies).  A shed update is never
    applied, so exactness is unaffected.  The ``update-storm`` fault
    kind injects phantom pending updates so drills can force sheds.
    """

    def __init__(
        self,
        *,
        window: int = 8,
        default_pf: ProbabilityFunction | None = None,
        max_updates_per_round: int | None = None,
        shed_policy: str = "reject",
        fault_injector: FaultInjector | None = None,
        metrics_path: str | Path | None = None,
        metrics_registry: MetricsRegistry | None = None,
        trace_path: str | Path | None = None,
        tracer: Tracer | None = None,
        max_records: int = 10_000,
        max_events: int = 10_000,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r}; expected one of "
                f"{', '.join(SHED_POLICIES)}"
            )
        self.window = int(window)
        self.default_pf = default_pf
        self.fault_injector = fault_injector
        self.admission = (
            AdmissionController(
                max_updates_per_round, max_queue_depth=0, policy=shed_policy
            )
            if max_updates_per_round is not None
            else None
        )
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.tracer = tracer or Tracer(trace_path)
        self.counters = Instrumentation()
        self.records: list[dict] = []
        self.max_records = int(max_records)
        self._events: deque[SubscriptionEvent] = deque(maxlen=max_events)
        self.events_dropped = 0
        self._lock = threading.RLock()
        # fleet state: object id -> slot (insertion order is the fleet
        # order), and per slot its window (oldest position first), the
        # window's fill count and its MBR
        self._slots: dict[int, int] = {}
        self._slot_oid: list[int] = []
        self._free_slots: list[int] = []
        self._capacity = 0
        self._block = np.empty((0, self.window, 2), dtype=float)
        self._counts = np.zeros(0, dtype=np.int64)
        self._mbrs = np.empty((0, 4), dtype=float)
        self._live_slots_cache: np.ndarray | None = None
        # groups and subscriptions
        self._groups: dict[tuple, _Group] = {}
        self._subs: dict[int, tuple[_Group, _SubState]] = {}
        self._next_sub_id = itertools.count(1)
        self._rounds = 0
        # lifetime stats
        self.updates_applied = 0
        self.updates_shed = 0
        self.safe_region_hits = 0
        self.crossings = 0
        self.validations_total = 0
        self.notifications = 0
        self._init_metrics(metrics_registry)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _init_metrics(self, registry: MetricsRegistry | None) -> None:
        reg = registry or MetricsRegistry()
        self.metrics = reg

        def _series(factory, name, *args, **kwargs):
            return reg.get(name) or factory(name, *args, **kwargs)

        self._m_updates = _series(
            reg.counter, "pinls_sub_updates_total",
            "Position updates offered to the subscription engine by "
            "outcome (result=\"applied\"|\"shed\")",
            labels=("result",),
        )
        self._m_safe_hits = _series(
            reg.counter, "pinls_sub_safe_region_hits_total",
            "(object, group) refreshes absorbed by a safe region with "
            "zero candidate work",
        )
        self._m_crossings = _series(
            reg.counter, "pinls_sub_crossings_total",
            "(object, group) slow-path recomputations triggered by an "
            "IA/NIB boundary crossing",
        )
        self._m_validations = _series(
            reg.counter, "pinls_sub_validations_total",
            "Exact pair validations performed by subscription "
            "recomputations",
        )
        self._m_notifications = _series(
            reg.counter, "pinls_sub_notifications_total",
            "Subscription change notifications emitted (version bumps)",
        )
        self._m_ingest_seconds = _series(
            reg.histogram, "pinls_sub_ingest_seconds",
            "Wall-clock seconds per ingest round (single updates are "
            "rounds of one)",
        )
        self._m_recompute_seconds = _series(
            reg.histogram, "pinls_sub_recompute_seconds",
            "Wall-clock seconds per group pass: one slow-path "
            "recomputation of all of a round's crossing objects in one "
            "(PF, tau) group",
        )
        g_subs = _series(
            reg.gauge, "pinls_sub_subscriptions",
            "Standing subscriptions currently registered",
        )
        g_subs.set_function(lambda: float(len(self._subs)))
        g_objs = _series(
            reg.gauge, "pinls_sub_objects",
            "Objects currently tracked by the subscription engine",
        )
        g_objs.set_function(lambda: float(len(self._slots)))
        g_groups = _series(
            reg.gauge, "pinls_sub_groups",
            "Distinct (PF, tau) subscription groups",
        )
        g_groups.set_function(lambda: float(len(self._groups)))
        g_events = _series(
            reg.gauge, "pinls_sub_pending_events",
            "Change events waiting in the bounded notification queue",
        )
        g_events.set_function(lambda: float(len(self._events)))

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = max(needed, max(16, self._capacity * 2))
        extra = capacity - self._capacity
        self._block = np.concatenate(
            [self._block, np.zeros((extra, self.window, 2))]
        )
        self._mbrs = np.vstack([self._mbrs, np.full((extra, 4), np.nan)])
        self._counts = np.concatenate(
            [self._counts, np.zeros(extra, dtype=np.int64)]
        )
        self._slot_oid.extend([-1] * extra)
        self._capacity = capacity
        for group in self._groups.values():
            group.grow(capacity)

    def _alloc_slot(self, object_id: int) -> int:
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slots)
            self._ensure_capacity(slot + 1)
        self._slots[object_id] = slot
        self._slot_oid[slot] = object_id
        self._live_slots_cache = None
        return slot

    def _live_slot_array(self) -> np.ndarray:
        """Slots currently holding an object (cached between add/removes)."""
        if self._live_slots_cache is None:
            self._live_slots_cache = np.fromiter(
                self._slots.values(), dtype=np.int64, count=len(self._slots)
            )
        return self._live_slots_cache

    def fleet(self) -> list[MovingObject]:
        """The current fleet state as one-shot query inputs.

        Objects are the live sliding windows, in insertion order —
        exactly what the bit-identity oracle feeds a fresh
        :class:`~repro.engine.session.QueryEngine`.
        """
        with self._lock:
            return [
                MovingObject(oid, self._block[slot, : self._counts[slot]])
                for oid, slot in self._slots.items()
            ]

    # ------------------------------------------------------------------
    # Subscribe / unsubscribe
    # ------------------------------------------------------------------
    def subscribe(
        self,
        candidates,
        *,
        tau: float = 0.7,
        pf: ProbabilityFunction | None = None,
        algorithm: str = "PIN-VO",
        callback=None,
    ) -> int:
        """Register a standing query; returns its subscription id.

        ``candidates`` is a sequence of ``(x, y)`` pairs or
        :class:`~repro.model.candidate.Candidate` objects; either way
        the subscription owns candidates numbered ``0..m-1`` in the
        given order.  The initial result set is computed with one
        vectorised IA/NIB pass over the live fleet (the columnar
        one-shot path), so the first snapshot is available immediately
        at version 1.
        """
        if algorithm not in SUBSCRIPTION_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{', '.join(SUBSCRIPTION_ALGORITHMS)}"
            )
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        pf = pf or self.default_pf
        if pf is None:
            raise ValueError("no pf given and the engine has no default_pf")
        cands = tuple(
            c if isinstance(c, Candidate)
            else Candidate(candidate_id=j, x=float(c[0]), y=float(c[1]))
            for j, c in enumerate(candidates)
        )
        if not cands:
            raise ValueError("a subscription needs at least one candidate")
        cand_xy = np.array([(c.x, c.y) for c in cands], dtype=float)
        with self._lock:
            key = (_pf_key(pf), float(tau))
            group = self._groups.get(key)
            created = group is None
            if created:
                group = _Group(pf, float(tau), self._capacity)
                self._groups[key] = group
            sub_id = next(self._next_sub_id)
            row_start = group.append_rows(sub_id, cand_xy)
            sub = _SubState(sub_id, algorithm, cands, callback, row_start)
            group.subs[sub_id] = sub
            self._subs[sub_id] = (group, sub)
            self._score_new_subscription(group, sub, cand_xy, created)
            return sub_id

    def _score_new_subscription(self, group, sub, cand_xy, created) -> None:
        """Initial influence table + safe-region merge, vectorised."""
        live = self._live_slot_array()
        if live.size == 0:
            return
        mbrs = self._mbrs[live]
        counts = self._counts[live]
        uniq, inverse = np.unique(counts, return_inverse=True)
        rad_vals = np.array(
            [
                r if (r := group.radius_cache.radius(int(n))) is not None
                else np.nan
                for n in uniq
            ],
            dtype=float,
        )
        radii = rad_vals[inverse]
        alive = np.isfinite(radii)
        new_min = np.full(live.size, np.inf)
        if alive.any():
            a_idx = np.nonzero(alive)[0]
            a_mbrs = mbrs[a_idx]
            a_radii = radii[a_idx]
            ia, band = classify_span(a_mbrs, a_radii, cand_xy)
            infl = ia.copy()
            bi, bj = np.nonzero(band)
            if bi.size:
                infl[bi, bj] = self._validate(
                    group, live[a_idx[bi]], cand_xy[bj]
                )
            hit = infl.any(axis=1)
            ks, js = np.nonzero(infl[hit])
            self._remark(
                group, live[a_idx[hit]].tolist(), ks, js + sub.row_start,
                first_row=sub.row_start,
            )
            new_min[a_idx] = margins_span(
                a_mbrs, a_radii, cand_xy, ia, band
            ).min(axis=1)
        # Merge the new rows into every object's safe region.  The
        # cached slack was measured at the reference state; the part
        # still unspent at the *current* state (triangle inequality on
        # the deformation metric) is what survives the merge.
        if created:
            remaining = np.full(live.size, np.inf)
        else:
            ref_m = group.ref_mbrs[live]
            ref_r = group.ref_radii[live]
            deformation = (
                _LIPSCHITZ * np.max(np.abs(mbrs - ref_m), axis=1)
                + np.abs(radii - ref_r)
            )
            remaining = group.slacks[live] - deformation
        merged = np.minimum(remaining, new_min)
        group.ref_mbrs[live] = mbrs
        group.ref_radii[live] = radii       # NaN rows mark dead objects
        group.slacks[live] = np.where(alive, merged, -np.inf)

    def unsubscribe(self, subscription_id: int) -> None:
        """Drop a standing query; its candidate rows become tombstones."""
        with self._lock:
            entry = self._subs.pop(subscription_id, None)
            if entry is None:
                raise KeyError(f"unknown subscription {subscription_id}")
            group, sub = entry
            lo = sub.row_start
            hi = lo + len(sub.candidates)
            group.row_live[lo:hi] = False
            del group.subs[subscription_id]
            for slot, rows in list(group.marks.items()):
                i = bisect_left(rows, lo)
                j = bisect_left(rows, hi, i)
                if i == j:
                    continue
                rows = rows[:i] + rows[j:]
                if rows:
                    group.marks[slot] = rows
                else:
                    del group.marks[slot]
            if not group.subs:
                for key, g in list(self._groups.items()):
                    if g is group:
                        del self._groups[key]
            # Tombstoned rows only widen true slacks; the cached
            # (smaller) slacks stay sound, so nothing to invalidate.

    def subscriptions(self) -> list[int]:
        """Registered subscription ids, ascending."""
        with self._lock:
            return sorted(self._subs)

    # ------------------------------------------------------------------
    # Snapshots and events
    # ------------------------------------------------------------------
    def snapshot(self, subscription_id: int) -> SubscriptionSnapshot:
        """The subscription's current versioned result set."""
        with self._lock:
            entry = self._subs.get(subscription_id)
            if entry is None:
                raise KeyError(f"unknown subscription {subscription_id}")
            _, sub = entry
            return self._snapshot_locked(sub)

    def _snapshot_locked(self, sub: _SubState) -> SubscriptionSnapshot:
        influences = tuple(int(v) for v in sub.influence)
        best = max(
            range(len(influences)),
            key=lambda j: (influences[j], -j),
        )
        return SubscriptionSnapshot(
            subscription_id=sub.sub_id,
            version=sub.version,
            algorithm=sub.algorithm,
            tau=self._subs[sub.sub_id][0].tau,
            best_candidate=sub.candidates[best],
            best_influence=influences[best],
            influences=influences,
            objects=len(self._slots),
        )

    def drain_events(self) -> list[SubscriptionEvent]:
        """Consume queued change events (oldest first).

        The queue is bounded (``max_events``); when it overflows the
        oldest events are dropped and counted in
        :attr:`events_dropped` — snapshots never lie, only the
        notification stream thins out.
        """
        with self._lock:
            events = list(self._events)
            self._events.clear()
            return events

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, object_id: int, x: float, y: float) -> IngestReport:
        """Apply one position update (an ingest round of one)."""
        return self.ingest_batch([(object_id, x, y)])

    def ingest_batch(self, updates) -> IngestReport:
        """Apply a batch of ``(object_id, x, y)`` position updates.

        Updates are admitted as one round (bounded by
        ``max_updates_per_round``), appended to their objects' windows
        in order, and each touched object is refreshed once per group
        against its *final* state — exactness only depends on the
        final window contents, so coalescing is free throughput.
        Returns the round's :class:`IngestReport`; change callbacks
        fire after the lock is released.
        """
        updates = list(updates)
        report = IngestReport(offered=len(updates))
        started = time.perf_counter()
        self._rounds += 1
        span = self.tracer.start("ingest", updates=len(updates))
        notify: list[tuple] = []
        with self._lock:
            admitted = updates
            phantom = self._apply_parent_faults()
            if self.admission is not None and updates:
                idx, shed = self.admission.admit_batch(
                    [0] * len(updates), phantom=phantom
                )
                try:
                    admitted = [updates[i] for i in idx]
                    for i, reason in shed:
                        outcome = UpdateShed(
                            object_id=int(updates[i][0]),
                            reason=reason,
                            policy=self.admission.policy,
                        )
                        report.shed.append(outcome)
                        self._record_shed(outcome)
                finally:
                    self.admission.release(len(idx))
            touched = self._apply_updates(admitted)
            report.applied = len(admitted)
            changed_subs = self._refresh_touched(touched, report, span)
            report.changed = self._bump_versions(changed_subs, notify)
            self.updates_applied += report.applied
            self.updates_shed += len(report.shed)
            self._m_updates.inc(report.applied, result="applied")
            if report.shed:
                self._m_updates.inc(len(report.shed), result="shed")
            report.elapsed_seconds = time.perf_counter() - started
            self._m_ingest_seconds.observe(report.elapsed_seconds)
            if self.metrics_path is not None:
                self._record_round(report)
        span.set(
            applied=report.applied, shed=len(report.shed),
            safe_region_hits=report.safe_region_hits,
            crossings=report.crossings,
        )
        self.tracer.export(span)
        for callback, snap in notify:
            callback(snap)
        return report

    def _apply_parent_faults(self) -> int:
        """Consume parent-side faults; returns phantom pending updates."""
        phantom = 0
        if self.fault_injector is None:
            return phantom
        for spec in self.fault_injector.parent_faults(self._rounds):
            if spec.kind == "update-storm" and self.admission is not None:
                phantom = self.admission.capacity
        return phantom

    def _apply_updates(self, updates) -> np.ndarray:
        """Append admitted updates to their windows; returns touched slots.

        One pass over the round: each touched window keeps the last
        ``window`` positions of its old contents followed by its
        updates in arrival order, and its MBR and fill count are
        recomputed from the block.  The touched slots come back
        ascending.
        """
        if not updates:
            return np.empty(0, dtype=np.int64)
        slot_of = self._slots
        order = []
        for object_id, _, _ in updates:
            oid = int(object_id)
            slot = slot_of.get(oid)
            order.append(self._alloc_slot(oid) if slot is None else slot)
        slots = np.array(order, dtype=np.int64)
        xy = np.array([(u[1], u[2]) for u in updates], dtype=float)
        # group the updates by slot, arrival order kept within a slot
        by_slot = np.argsort(slots, kind="stable")
        touched, first, per = np.unique(
            slots[by_slot], return_index=True, return_counts=True
        )
        width = self.window
        fill = self._counts[touched]
        shift = np.maximum(fill + per - width, 0)
        # window position i keeps old position i + shift; the updates
        # land after the kept positions, the oldest ones falling off
        cols = np.minimum(np.arange(width) + shift[:, None], width - 1)
        windows = np.take_along_axis(
            self._block[touched], cols[:, :, None], axis=1
        )
        owner = np.repeat(np.arange(touched.size), per)
        dest = (
            np.repeat(fill - shift, per)
            + np.arange(slots.size) - np.repeat(first, per)
        )
        keep = dest >= 0
        windows[owner[keep], dest[keep]] = xy[by_slot[keep]]
        counts = np.minimum(fill + per, width)
        held = np.arange(width) < counts[:, None]
        xs = windows[:, :, 0]
        ys = windows[:, :, 1]
        self._block[touched] = windows
        self._counts[touched] = counts
        self._mbrs[touched] = np.column_stack((
            np.where(held, xs, np.inf).min(axis=1),
            np.where(held, ys, np.inf).min(axis=1),
            np.where(held, xs, -np.inf).max(axis=1),
            np.where(held, ys, -np.inf).max(axis=1),
        ))
        return touched

    def forget_object(self, object_id: int) -> None:
        """Drop an object, rolling back its contributions everywhere.

        Subscriptions whose influence table changes get a version bump,
        an event and their callback, exactly as after an ingest.
        """
        notify: list[tuple] = []
        with self._lock:
            slot = self._slots.pop(object_id, None)
            if slot is None:
                raise KeyError(f"unknown object {object_id}")
            changed: set[int] = set()
            for group in self._groups.values():
                changed |= self._remark(group, [slot], _NO_ROWS, _NO_ROWS)
                group.ref_radii[slot] = np.nan
                group.slacks[slot] = -np.inf
                group.ref_mbrs[slot] = np.nan
            self._slot_oid[slot] = -1
            self._mbrs[slot] = np.nan
            self._counts[slot] = 0
            self._free_slots.append(slot)
            self._live_slots_cache = None
            self._bump_versions(changed, notify)
        for callback, snap in notify:
            callback(snap)

    def _bump_versions(self, changed, notify: list) -> list[int]:
        """Announce a new version of every subscription in ``changed``.

        Each bump queues one :class:`SubscriptionEvent` and counts one
        notification; ``(callback, snapshot)`` pairs are appended to
        ``notify`` for the caller to fire once the lock is released.
        Returns the bumped subscription ids, ascending.
        """
        bumped = []
        for sub_id in sorted(changed):
            entry = self._subs.get(sub_id)
            if entry is None:
                continue
            _, sub = entry
            sub.version += 1
            snap = self._snapshot_locked(sub)
            if len(self._events) == self._events.maxlen:
                self.events_dropped += 1
            self._events.append(SubscriptionEvent(
                subscription_id=sub_id,
                version=sub.version,
                best_candidate_id=snap.best_candidate.candidate_id,
                best_influence=snap.best_influence,
            ))
            self.notifications += 1
            self._m_notifications.inc()
            if sub.callback is not None:
                notify.append((sub.callback, snap))
            bumped.append(sub_id)
        return bumped

    def _remark(self, group, slots, ks, rows, first_row=0) -> set[int]:
        """Replace the marks of ``slots`` at group rows ``>= first_row``.

        The new marks are pairs ``(ks[i], rows[i])``: object
        ``slots[ks[i]]`` counts toward group row ``rows[i]``, ascending
        in ``ks`` and then in ``rows``, all at or past ``first_row``.
        Old and new marks are compared as flat ``k · R + row`` keys, the
        difference is applied to the subscriptions' influence tables
        in one pass, and the subscriptions whose marks changed for some
        object are returned.
        """
        marks = group.marks
        n_rows = group.row_xy.shape[0]
        kept = [marks.pop(s, []) for s in slots]
        cuts = [bisect_left(m, first_row) for m in kept]
        old = [m[c:] for m, c in zip(kept, cuts)]
        sizes = [len(m) for m in old]
        old_keys = (
            np.repeat(np.arange(len(slots)) * n_rows, sizes)
            + np.fromiter(
                itertools.chain.from_iterable(old), np.int64, sum(sizes)
            )
        )
        new_keys = ks * n_rows + rows
        gained = np.setdiff1d(new_keys, old_keys, assume_unique=True)
        lost = np.setdiff1d(old_keys, new_keys, assume_unique=True)
        ends = np.cumsum(np.bincount(ks, minlength=len(slots))).tolist()
        new_rows = rows.tolist()
        start = 0
        for s, m, c, end in zip(slots, kept, cuts, ends):
            m = m[:c] + new_rows[start:end]
            if m:
                marks[s] = m
            start = end
        if not (gained.size or lost.size):
            return set()
        gained %= n_rows
        lost %= n_rows
        delta = np.bincount(gained, minlength=n_rows) - np.bincount(
            lost, minlength=n_rows
        )
        changed: set[int] = set()
        moved = np.concatenate((gained, lost))
        for sub_id in np.unique(group.row_sub[moved]).tolist():
            sub = group.subs.get(sub_id)
            if sub is None:
                continue
            sub.influence += delta[
                sub.row_start : sub.row_start + len(sub.candidates)
            ]
            changed.add(sub_id)
        return changed

    def _validate(self, group, slots, cand_xy) -> np.ndarray:
        """Exact verdicts of band pairs ``(slots[i], cand_xy[i])``.

        Gathers each distinct object's window once from the position
        block and runs one Strategy-2 pass over every pair, at the
        chunk granularity of the one-pair kernel
        (:func:`repro.core.influence.validate_pair`), so each pair's
        counters are the ones that kernel would count for any window
        up to two chunks long.
        """
        objects, pair_object = np.unique(slots, return_inverse=True)
        counts = self._counts[objects]
        offsets = np.zeros(objects.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cols, _ = span_index(objects * self.window, counts)
        xy = self._block.reshape(-1, 2)[cols].T
        return batch_validate_spans(
            group.pf, xy, offsets, pair_object,
            cand_xy[:, 0], cand_xy[:, 1], group.log_threshold,
            counters=self.counters, head=DEFAULT_CHUNK,
        )

    # ------------------------------------------------------------------
    # The batch refresh
    # ------------------------------------------------------------------
    def _refresh_touched(self, touched, report, span) -> set[int]:
        """Refresh every touched slot against every group.

        Returns the subscription ids whose influence tables changed.
        The fast path is columnar: one vectorised deformation-vs-slack
        pass per (round, group) classifies all touched objects at
        once, so a calm round costs O(groups) numpy calls instead of
        O(touched × groups) Python iterations.  The objects that
        cross a boundary go through one group pass
        (:meth:`_recompute`), and the ones that died roll back their
        marks in one :meth:`_remark`.
        """
        changed: set[int] = set()
        if not touched.size:
            return changed
        mbs = self._mbrs[touched]
        uniq, inverse = np.unique(self._counts[touched], return_inverse=True)
        for group in self._groups.values():
            by_count = np.array([
                r if (r := group.radius_cache.radius(int(n))) is not None
                else np.nan
                for n in uniq
            ], dtype=float)
            radii = by_count[inverse]          # NaN = dead at this tau
            ref_r = group.ref_radii[touched]   # NaN = dead at the ref
            dead_now = np.isnan(radii)
            # NaN refs/radii propagate NaN deformations, which compare
            # False against any slack — exactly "no safe region".
            deformation = (
                _LIPSCHITZ
                * np.abs(mbs - group.ref_mbrs[touched]).max(axis=1)
                + np.abs(radii - ref_r)
            )
            safe = deformation < group.slacks[touched]
            hits = int(np.count_nonzero(safe))
            if hits:
                report.safe_region_hits += hits
                self.safe_region_hits += hits
                self.counters.safe_region_hits += hits
                self._m_safe_hits.inc(hits)
            # dead before and dead now: nothing held, nothing to do
            dying = ~safe & dead_now & ~np.isnan(ref_r)
            if dying.any():
                gone = touched[dying]
                changed |= self._remark(
                    group, gone.tolist(), _NO_ROWS, _NO_ROWS
                )
                group.ref_radii[gone] = np.nan
                group.slacks[gone] = -np.inf
                self.counters.dead_objects += gone.size
            crossing = ~safe & ~dead_now
            if crossing.any():
                changed |= self._recompute(
                    group, touched[crossing], mbs[crossing],
                    radii[crossing], report, span,
                )
        return changed

    def _recompute(self, group, slots, mbs, radii, report, span):
        """Slow path: one pass over a round's crossing objects in a group.

        ``(crossers × rows)`` min/max distances, the guarded split and
        its margins, tiled over the crossers so no temporary exceeds
        :data:`~repro.core.pruning.CLASSIFY_TILE_ELEMS` elements; then
        one exact validation of every live band pair, each crosser's
        slack as its row minimum, and one marks update.
        """
        t0 = time.perf_counter()
        child = span.child("recompute", objects=int(slots.size))
        # a group keeps every row it ever had (tombstones included), so
        # it has at least one
        n_rows = group.row_xy.shape[0]
        live = group.row_live
        tile = max(1, CLASSIFY_TILE_ELEMS // n_rows)
        slacks = np.empty(slots.size)
        ia_keys = []
        band_keys = []
        for lo in range(0, slots.size, tile):
            min_d, max_d = mbr_distances(mbs[lo : lo + tile], group.row_xy)
            r = radii[lo : lo + tile, None]
            ia, band = guarded_split(min_d, max_d, r)
            margins = split_margins(min_d, max_d, r, ia, band)
            margins[:, ~live] = np.inf
            slacks[lo : lo + tile] = margins.min(axis=1)
            ia_keys.append(np.flatnonzero(ia & live) + lo * n_rows)
            band_keys.append(np.flatnonzero(band & live) + lo * n_rows)
        keys = np.concatenate(ia_keys)
        band = np.concatenate(band_keys)
        validations = int(band.size)
        if validations:
            k, row = np.divmod(band, n_rows)
            influenced = self._validate(group, slots[k], group.row_xy[row])
            keys = np.sort(np.concatenate((keys, band[influenced])))
        ks, rows = np.divmod(keys, n_rows)
        changed = self._remark(group, slots.tolist(), ks, rows)
        group.ref_mbrs[slots] = mbs
        group.ref_radii[slots] = radii
        group.slacks[slots] = slacks
        elapsed = time.perf_counter() - t0
        crossings = int(slots.size)
        report.crossings += crossings
        report.validations += validations
        self.crossings += crossings
        self.validations_total += validations
        self._m_crossings.inc(crossings)
        if validations:
            self._m_validations.inc(validations)
        self._m_recompute_seconds.observe(elapsed)
        child.finish(validations=validations, changed=len(changed))
        if self.metrics_path is not None:
            self._append_record({
                "schema": RECORD_SCHEMA_VERSION,
                "kind": "recompute",
                "objects": crossings,
                "tau": group.tau,
                "rows": n_rows,
                "validations": validations,
                "changed_subscriptions": sorted(changed),
                "elapsed_seconds": elapsed,
            })
        return changed

    # ------------------------------------------------------------------
    # Records and stats
    # ------------------------------------------------------------------
    def _record_shed(self, outcome: UpdateShed) -> None:
        if self.metrics_path is None:
            return
        self._append_record({
            "schema": RECORD_SCHEMA_VERSION,
            "kind": "ingest-shed",
            "object": outcome.object_id,
            "reason": outcome.reason,
            "policy": outcome.policy,
        })

    def _record_round(self, report: IngestReport) -> None:
        self._append_record({
            "schema": RECORD_SCHEMA_VERSION,
            "kind": "ingest",
            "offered": report.offered,
            "applied": report.applied,
            "shed": len(report.shed),
            "safe_region_hits": report.safe_region_hits,
            "crossings": report.crossings,
            "validations": report.validations,
            "changed_subscriptions": report.changed,
            "elapsed_seconds": report.elapsed_seconds,
        })

    def _append_record(self, record: dict) -> None:
        self.records.append(record)
        if len(self.records) > self.max_records:
            del self.records[0]
        self.metrics_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.metrics_path, "a") as f:
            f.write(json.dumps(record) + "\n")

    def stats(self) -> dict:
        """Operator view: fleet size, maintenance work, shed counts."""
        with self._lock:
            return {
                "subscriptions": len(self._subs),
                "groups": len(self._groups),
                "objects": len(self._slots),
                "window": self.window,
                "updates_applied": self.updates_applied,
                "updates_shed": self.updates_shed,
                "safe_region_hits": self.safe_region_hits,
                "crossings": self.crossings,
                "validations": self.validations_total,
                "notifications": self.notifications,
                "pending_events": len(self._events),
                "events_dropped": self.events_dropped,
            }

    @property
    def n_objects(self) -> int:
        return len(self._slots)

    @property
    def n_subscriptions(self) -> int:
        return len(self._subs)
