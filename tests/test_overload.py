"""Overload-resilience suite: admission, breakers, bounded caches.

The claims under test, matching ``docs/architecture.md``'s overload
and degradation-ladder semantics:

* admission control bounds in-flight work: at most ``max_inflight +
  max_queue_depth`` queries run per admission round, the excess is
  shed with a typed ``QueryShed`` outcome (never a silent drop — every
  shed emits a JSONL record), and the shedding policy decides *which*
  queries go,
* the pool → serial degradation ladder is *lossless* and
  deterministic: repeated tier failures trip that tier's circuit
  breaker, later queries route to the next tier down, and every
  completed query stays bit-identical to fault-free serial execution —
  property-tested over random fault/overload schedules,
* every engine cache is a bounded LRU: results stay correct at any
  budget, evictions are counted and visible, and the in-memory metrics
  record list is capped while the JSONL file stays append-only,
* ``close()`` is terminal: double-close is a no-op, queries after
  close raise, and ``with`` blocks close the pool even when the body
  raises.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.engine import (
    AdmissionController,
    BreakerConfig,
    CacheBudget,
    CircuitBreaker,
    DegradationLadder,
    FaultInjector,
    FaultSpec,
    LRUCache,
    QueryRequest,
    QueryShed,
    QueryShedError,
    SupervisorPolicy,
    TenantAdmission,
    TenantBudget,
    fork_available,
)
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects, shm_entries
from .test_engine import assert_same_result

fork_only = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)

#: fast retry knobs so the suite doesn't sleep through real backoffs
FAST = SupervisorPolicy(max_retries=2, backoff_seconds=0.01)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(7)
    return make_objects(rng, 18, n_range=(1, 8))


@pytest.fixture(scope="module")
def candidates():
    return make_candidates(np.random.default_rng(8), 8)


@pytest.fixture(scope="module")
def pf():
    return PowerLawPF(rho=0.9, lam=1.0)


@pytest.fixture(scope="module")
def serial_answer(world, candidates, pf):
    return select_location(
        world, candidates, pf=pf, tau=0.7, algorithm="PIN-VO"
    )


# ---------------------------------------------------------------------------
# Admission controller (pure units)
# ---------------------------------------------------------------------------
def _admit_one(ctl, phantom=0) -> bool:
    """A single-request admission round; True when it was admitted."""
    return ctl.admit_batch([0], phantom=phantom)[0] == [0]


class TestAdmissionController:
    def test_queue_depth_defaults_to_inflight(self):
        ctl = AdmissionController(3)
        assert ctl.max_queue_depth == 3
        assert ctl.capacity == 6

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionController(1, policy="drop-everything")

    def test_admit_release_bounds_inflight(self):
        ctl = AdmissionController(1, max_queue_depth=1)
        assert _admit_one(ctl)
        assert _admit_one(ctl)
        assert not _admit_one(ctl)  # capacity 2 reached
        ctl.release()
        assert _admit_one(ctl)
        ctl.release(2)
        assert ctl.inflight == 0
        assert ctl.report.offered == 4
        assert ctl.report.admitted == 3

    def test_phantom_load_occupies_capacity(self):
        ctl = AdmissionController(1, max_queue_depth=0)
        assert not _admit_one(ctl, phantom=1)
        assert ctl.free_slots(phantom=1) == 0
        assert _admit_one(ctl)

    def test_admit_batch_within_capacity_admits_all(self):
        ctl = AdmissionController(2)
        admitted, shed = ctl.admit_batch([0, 0, 0])
        assert admitted == [0, 1, 2] and shed == []
        assert ctl.inflight == 3  # caller owns the slots
        ctl.release(3)

    def test_reject_policy_keeps_the_oldest(self):
        ctl = AdmissionController(1, max_queue_depth=1, policy="reject")
        admitted, shed = ctl.admit_batch([0, 0, 0, 0])
        assert admitted == [0, 1]
        assert shed == [(2, "queue-full"), (3, "queue-full")]

    def test_oldest_policy_keeps_the_freshest(self):
        ctl = AdmissionController(1, max_queue_depth=1, policy="oldest")
        admitted, shed = ctl.admit_batch([0, 0, 0, 0])
        assert admitted == [2, 3]
        assert shed == [(0, "superseded"), (1, "superseded")]
        # no free slot at all: nothing in the round displaced the sheds,
        # so every policy reports them as queue-full
        for policy in ("reject", "oldest", "by-priority"):
            full = AdmissionController(1, max_queue_depth=0, policy=policy)
            assert full.admit_batch([0, 5], phantom=1) == (
                [], [(0, "queue-full"), (1, "queue-full")]
            )

    def test_by_priority_keeps_high_priorities_fifo_ties(self):
        ctl = AdmissionController(1, max_queue_depth=1, policy="by-priority")
        admitted, shed = ctl.admit_batch([1, 9, 1, 9])
        assert admitted == [1, 3]
        assert shed == [(0, "low-priority"), (2, "low-priority")]
        ctl.release(2)
        # FIFO among equal priorities: the earlier request wins
        admitted, _ = ctl.admit_batch([5, 5, 5])
        assert admitted == [0, 1]

    def test_snapshot_shape(self):
        ctl = AdmissionController(2, policy="oldest")
        _admit_one(ctl)
        snap = ctl.snapshot()
        assert snap["policy"] == "oldest"
        assert snap["inflight"] == 1
        assert snap["free_slots"] == 3
        assert snap["offered"] == 1 and snap["admitted"] == 1
        assert snap["over_releases"] == 0

    def test_over_release_is_clamped_and_counted(self):
        # Releasing more slots than are held must not mint phantom
        # capacity: a double release would let the controller admit
        # capacity + excess queries.
        ctl = AdmissionController(1, max_queue_depth=0)
        assert _admit_one(ctl)
        ctl.release()
        ctl.release()            # the lifecycle bug: one release too many
        assert ctl.inflight == 0
        assert ctl.over_releases == 1
        # capacity is still 1 — not widened by the bogus release
        assert _admit_one(ctl)
        assert not _admit_one(ctl)
        ctl.release(5)           # releases 1 held + 4 bogus
        assert ctl.inflight == 0
        assert ctl.over_releases == 5
        assert ctl.snapshot()["over_releases"] == 5
        with pytest.raises(ValueError):
            ctl.release(-1)


class TestTenantAdmission:
    def test_budget_validates_like_a_controller(self):
        with pytest.raises(ValueError):
            TenantBudget(max_inflight=0)
        with pytest.raises(ValueError):
            TenantBudget(max_inflight=1, policy="nope")
        budget = TenantBudget(max_inflight=2, max_queue_depth=1)
        assert budget.controller().capacity == 3

    def test_controllers_are_lazy_and_per_tenant(self):
        tenants = TenantAdmission(
            default=TenantBudget(max_inflight=1, max_queue_depth=0),
            budgets={"big": TenantBudget(max_inflight=8)},
        )
        assert tenants.tenants() == []
        assert tenants.controller("a") is tenants.controller("a")
        assert tenants.controller("big").max_inflight == 8
        assert tenants.controller("a").max_inflight == 1
        assert tenants.tenants() == ["a", "big"]

    def test_one_tenant_overflow_does_not_shed_the_other(self):
        tenants = TenantAdmission(
            default=TenantBudget(max_inflight=1, max_queue_depth=0),
        )
        assert _admit_one(tenants.controller("bulk"))
        assert not _admit_one(tenants.controller("bulk"))  # bulk's is full
        assert _admit_one(tenants.controller("victim"))    # victim's is not
        tenants.release("bulk")
        tenants.release("victim")
        snap = tenants.snapshot()
        assert snap["bulk"]["offered"] == 2
        assert snap["victim"]["offered"] == 1
        assert tenants.budget_for("anyone").max_inflight == 1


# ---------------------------------------------------------------------------
# Circuit breaker and ladder (fake clock — no sleeping)
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker("t", BreakerConfig(failure_threshold=3))
        b.record_failure()
        b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open" and not b.allow()
        assert b.trips == 1

    def test_success_resets_the_streak(self):
        b = CircuitBreaker("t", BreakerConfig(failure_threshold=2))
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_recovery_window_admits_a_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "t",
            BreakerConfig(failure_threshold=1, recovery_seconds=10.0),
            clock=clock,
        )
        b.record_failure()
        assert not b.allow()
        clock.now = 9.9
        assert not b.allow()
        clock.now = 10.0
        assert b.state == "half-open" and b.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "t",
            BreakerConfig(failure_threshold=1, recovery_seconds=1.0),
            clock=clock,
        )
        b.record_failure()
        clock.now = 1.0
        assert b.state == "half-open"
        b.record_failure()
        assert b.state == "open" and b.trips == 2

    def test_half_open_successes_close(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "t",
            BreakerConfig(
                failure_threshold=1, recovery_seconds=1.0,
                half_open_successes=2,
            ),
            clock=clock,
        )
        b.record_failure()
        clock.now = 1.0
        b.record_success()
        assert b.state == "half-open"  # needs two clean probes
        b.record_success()
        assert b.state == "closed"

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(recovery_seconds=-1.0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_successes=0)


class TestDegradationLadder:
    def test_select_walks_down_and_serial_is_floor(self):
        clock = FakeClock()
        ladder = DegradationLadder(
            BreakerConfig(failure_threshold=1, recovery_seconds=100.0),
            clock=clock,
        )
        tiers = ("pool", "serial")
        assert ladder.select(tiers) == "pool"
        ladder.record("pool", ok=False)
        assert ladder.select(tiers) == "serial"
        assert ladder.trips == 1
        # recovery walks back up
        clock.now = 100.0
        assert ladder.select(tiers) == "pool"

    def test_serial_records_are_noops(self):
        ladder = DegradationLadder(BreakerConfig(failure_threshold=1))
        ladder.record("serial", ok=False)
        assert ladder.trips == 0
        assert ladder.select(("serial",)) == "serial"


# ---------------------------------------------------------------------------
# LRU cache (pure units)
# ---------------------------------------------------------------------------
class TestLRUCache:
    def test_entry_budget_evicts_least_recently_used(self):
        c = LRUCache("t", max_entries=2)
        c["a"] = 1
        c["b"] = 2
        assert c.get("a") == 1  # refresh "a": "b" is now coldest
        c["c"] = 3
        assert "b" not in c and "a" in c and "c" in c
        assert c.evictions == 1

    def test_byte_budget_with_sizeof(self):
        c = LRUCache("t", max_bytes=10, sizeof=len)
        c["a"] = b"xxxx"
        c["b"] = b"xxxx"
        assert len(c) == 2 and c.current_bytes == 8
        c["c"] = b"xxxx"  # 12 bytes > 10: evict "a"
        assert "a" not in c and c.current_bytes == 8

    def test_oversized_sole_entry_is_kept(self):
        c = LRUCache("t", max_bytes=4, sizeof=len)
        c["huge"] = b"xxxxxxxx"
        assert "huge" in c and len(c) == 1

    def test_replacement_does_not_evict(self):
        c = LRUCache("t", max_entries=2)
        c["a"] = 1
        c["b"] = 2
        c["a"] = 10
        assert len(c) == 2 and c.evictions == 0 and c["a"] == 10

    def test_trim_and_occupancy(self):
        c = LRUCache("t", max_entries=8)
        for i in range(5):
            c[i] = i
        assert c.trim(max_entries=1) == 4
        occ = c.occupancy()
        assert occ["entries"] == 1 and occ["evictions"] == 4

    def test_mapping_protocol(self):
        c = LRUCache("t", max_entries=2)
        with pytest.raises(KeyError):
            c["missing"]
        assert c.get("missing", "d") == "d"
        c["k"] = None
        assert c.get("k", "d") is None  # cached None is not "missing"

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LRUCache("t", max_entries=0)
        with pytest.raises(ValueError):
            LRUCache("t", max_bytes=8)  # byte budget needs sizeof
        with pytest.raises(ValueError):
            CacheBudget(max_records=0)


# ---------------------------------------------------------------------------
# Bounded caches inside the engine
# ---------------------------------------------------------------------------
class TestBoundedEngineCaches:
    def test_tiny_budget_evicts_but_stays_correct(
        self, world, candidates, pf
    ):
        budget = CacheBudget(max_tables=1, max_prunings=1, max_rtrees=1)
        engine = QueryEngine(world, cache_budget=budget)
        taus = [0.5, 0.7, 0.8, 0.5, 0.7, 0.8]
        for tau in taus:
            got = engine.query(
                candidates, pf=pf, tau=tau, algorithm="PIN-VO"
            )
            want = select_location(
                world, candidates, pf=pf, tau=tau, algorithm="PIN-VO"
            )
            assert_same_result(got, want, counters=True)
        # three tau tenants through one-slot caches: evictions happened
        assert engine.stats.table_evictions > 0
        assert engine.stats.pruning_evictions > 0
        info = engine.cache_info()
        assert info["tables"] == 1 and info["prunings"] == 1
        # and they are visible per query in the JSONL stream
        assert any(
            r["cache_evictions"] > 0 for r in engine.metrics_log
        )

    def test_pruning_byte_budget_is_enforced(self, world, candidates, pf):
        budget = CacheBudget(max_pruning_bytes=1)  # everything oversized
        engine = QueryEngine(world, cache_budget=budget)
        for tau in (0.5, 0.7, 0.8):
            engine.query(candidates, pf=pf, tau=tau, algorithm="PIN-VO")
        # one-entry floor: the sole entry survives, the rest evicted
        assert len(engine._prunings) == 1
        assert engine._prunings.evictions == 2

    def test_record_list_is_capped_but_file_is_not(
        self, world, candidates, pf, tmp_path
    ):
        path = tmp_path / "metrics.jsonl"
        engine = QueryEngine(
            world,
            metrics_path=path,
            cache_budget=CacheBudget(max_records=5),
        )
        for _ in range(8):
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert len(engine.metrics_log) == 5
        assert engine.stats.records_dropped == 3
        # the JSONL file stays append-only: all 8 records, ids intact
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [r["query"] for r in lines] == list(range(8))
        # the in-memory copy holds the newest records
        assert [r["query"] for r in engine.metrics_log] == [3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# close() lifecycle
# ---------------------------------------------------------------------------
class TestCloseLifecycle:
    def test_double_close_is_a_noop(self, world):
        engine = QueryEngine(world)
        engine.close()
        engine.close()
        assert engine.closed

    def test_query_after_close_raises(self, world, candidates, pf):
        engine = QueryEngine(world)
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        with pytest.raises(RuntimeError, match="closed"):
            engine.query_batch([candidates], pf=pf, tau=0.7)

    def test_exit_closes_even_when_body_raises(self, world, candidates, pf):
        with pytest.raises(RuntimeError, match="boom"):
            with QueryEngine(world) as engine:
                engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
                raise RuntimeError("boom")
        assert engine.closed

    @fork_only
    def test_exit_tears_down_pool_when_body_raises(
        self, world, candidates, pf
    ):
        before = shm_entries()
        with pytest.raises(RuntimeError, match="boom"):
            with QueryEngine(world, workers=2, pool=True) as engine:
                engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
                assert engine._pool is not None, "the query started a pool"
                raise RuntimeError("boom")
        assert engine.closed
        assert engine._pool is None
        assert shm_entries() == before


# ---------------------------------------------------------------------------
# Admission inside the engine
# ---------------------------------------------------------------------------
class TestEngineAdmission:
    def test_overload_fault_sheds_single_query(
        self, world, candidates, pf, tmp_path
    ):
        path = tmp_path / "metrics.jsonl"
        engine = QueryEngine(
            world,
            max_inflight=2,
            metrics_path=path,
            fault_injector=FaultInjector(
                [FaultSpec(kind="overload", times=1)]
            ),
        )
        with pytest.raises(QueryShedError) as exc:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        shed = exc.value.shed
        assert isinstance(shed, QueryShed)
        assert shed.reason == "queue-full" and shed.query_id == 0
        assert engine.stats.queries_shed == 1
        assert engine.admission.report.shed_count == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert record["shed"] is True and record["query"] == 0
        # the fault fired once: the next query is admitted and served
        got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert_same_result(got, want, counters=True)
        assert engine.admission.inflight == 0

    def test_batch_sheds_over_capacity_with_typed_outcomes(
        self, world, candidates, pf
    ):
        engine = QueryEngine(world, max_inflight=1, max_queue_depth=1)
        results = engine.query_batch(
            [candidates] * 4, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert len(results) == 4
        shed = [r for r in results if isinstance(r, QueryShed)]
        served = [r for r in results if not isinstance(r, QueryShed)]
        assert len(shed) == 2 and len(served) == 2
        # reject policy: the oldest requests are the ones served
        assert not isinstance(results[0], QueryShed)
        assert not isinstance(results[1], QueryShed)
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        for got in served:
            assert_same_result(got, want, counters=True)
        assert engine.stats.queries_shed == 2
        assert engine.admission.inflight == 0  # slots released
        # every query — served or shed — got a JSONL record
        assert len(engine.metrics_log) == 4

    def test_by_priority_batch_keeps_high_priorities(
        self, world, candidates, pf
    ):
        engine = QueryEngine(
            world, max_inflight=1, max_queue_depth=1,
            shed_policy="by-priority",
        )
        reqs = [
            QueryRequest(candidates, pf, 0.7, "PIN", priority=p)
            for p in (1, 9, 2, 8)
        ]
        results = engine.query_batch(reqs)
        assert isinstance(results[0], QueryShed)
        assert results[0].reason == "low-priority"
        assert isinstance(results[2], QueryShed)
        assert not isinstance(results[1], QueryShed)
        assert not isinstance(results[3], QueryShed)

    def test_oldest_batch_keeps_the_freshest(self, world, candidates, pf):
        engine = QueryEngine(
            world, max_inflight=1, max_queue_depth=0, shed_policy="oldest"
        )
        results = engine.query_batch(
            [candidates] * 3, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert isinstance(results[0], QueryShed)
        assert results[0].reason == "superseded"
        assert isinstance(results[1], QueryShed)
        assert not isinstance(results[2], QueryShed)

    def test_queue_depth_without_inflight_rejects(self, world):
        with pytest.raises(ValueError, match="max_queue_depth"):
            QueryEngine(world, max_queue_depth=4)


# ---------------------------------------------------------------------------
# Parent-side fault kinds
# ---------------------------------------------------------------------------
class TestParentFaults:
    def test_parse_parent_kinds(self):
        assert FaultSpec.parse("overload").kind == "overload"
        assert FaultSpec.parse("memory-pressure").kind == "memory-pressure"

    def test_memory_pressure_trims_every_cache(self, world, candidates, pf):
        engine = QueryEngine(
            world,
            fault_injector=FaultInjector(
                [FaultSpec(kind="memory-pressure", query=3, times=1)]
            ),
        )
        for tau in (0.5, 0.7, 0.8):
            engine.query(candidates, pf=pf, tau=tau, algorithm="PIN-VO")
        assert len(engine._tables) == 3
        assert len(engine._prunings) == 3
        # query 3 arrives under injected memory pressure; it reuses the
        # hottest tenant (tau=0.8, the entry the trim keeps)
        got = engine.query(candidates, pf=pf, tau=0.8, algorithm="PIN-VO")
        want = select_location(
            world, candidates, pf=pf, tau=0.8, algorithm="PIN-VO"
        )
        assert_same_result(got, want, counters=True)
        assert len(engine._tables) == 1
        assert engine.stats.table_evictions >= 2
        assert engine.stats.pruning_evictions >= 2

    def test_times_bounds_parent_fires(self, world, candidates, pf):
        engine = QueryEngine(
            world,
            max_inflight=1,
            fault_injector=FaultInjector(
                [FaultSpec(kind="overload", times=2)]
            ),
        )
        for _ in range(2):
            with pytest.raises(QueryShedError):
                engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        # fault budget spent: admitted again
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert engine.stats.queries_shed == 2


# ---------------------------------------------------------------------------
# health()
# ---------------------------------------------------------------------------
class TestHealth:
    def test_health_shape_and_ok_status(self, world, candidates, pf):
        engine = QueryEngine(world, max_inflight=4)
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        h = engine.health()
        assert h["status"] == "ok" and h["tier"] == "serial"
        assert set(h["breakers"]) == {"pool"}
        assert h["admission"]["max_inflight"] == 4
        assert set(h["caches"]) == {
            "tables", "candidate_sets", "rtrees", "prunings", "sketches"
        }
        assert h["records"]["kept"] == 1
        assert h["queries"] == 1 and h["queries_shed"] == 0

    def test_health_reports_closed(self, world):
        engine = QueryEngine(world)
        engine.close()
        h = engine.health()
        assert h["status"] == "closed"
        assert h["ready"] is False

    def test_open_engine_is_ready_even_when_degraded(self, world):
        # every exact tier down on an approx engine: the sketch floor
        # still answers, so the engine is degraded but *ready*
        engine = QueryEngine(world, approx=True)
        engine.ladder.trip_exact_tiers()
        h = engine.health()
        assert h["status"] == "degraded"
        assert h["tier"] == "approx"
        assert h["ready"] is True
        # a fully healthy engine is ready too
        fresh = QueryEngine(world)
        assert fresh.health()["ready"] is True
        fresh.close()
        engine.close()

    @fork_only
    def test_health_reports_degraded_when_fork_breaker_open(
        self, world, candidates, pf
    ):
        with QueryEngine(
            world,
            pool=True,
            workers=2,
            supervisor_policy=FAST,
            breaker=BreakerConfig(failure_threshold=1),
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", query=0, times=99)]
            ),
        ) as engine:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            h = engine.health()
        assert h["status"] == "degraded"
        assert h["tier"] == "serial"
        assert h["breakers"]["pool"]["state"] == "open"
        assert h["breaker_trips"] >= 1


# ---------------------------------------------------------------------------
# The degradation ladder inside the engine (pool tier)
# ---------------------------------------------------------------------------
@fork_only
class TestEngineLadder:
    def test_tripped_fork_breaker_routes_next_queries_serial(
        self, world, candidates, pf
    ):
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        with QueryEngine(
            world,
            pool=True,
            workers=2,
            supervisor_policy=FAST,
            breaker=BreakerConfig(
                failure_threshold=1, recovery_seconds=1000.0
            ),
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", query=0, times=99)]
            ),
        ) as engine:
            # query 0: persistent crashes trip the pool breaker and the
            # query degrades to serial — bit-identical regardless
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert_same_result(got, want, counters=True)
            assert engine.stats.breaker_trips >= 1
            assert engine.metrics_log[-1]["tier"] == "pool"
            # query 1: the ladder routes it straight to serial — no
            # worker dispatch, no retry cost, same answer
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert_same_result(got, want, counters=True)
            assert engine.metrics_log[-1]["tier"] == "serial"
            assert engine.metrics_log[-1]["worker_failures"] == 0

    def test_breaker_self_heals_through_a_probe(self, world, candidates, pf):
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        with QueryEngine(
            world,
            pool=True,
            workers=2,
            supervisor_policy=FAST,
            breaker=BreakerConfig(
                failure_threshold=1, recovery_seconds=0.0
            ),
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", query=0, times=99)]
            ),
        ) as engine:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.breaker_trips >= 1
            # zero recovery window: the next query probes the pool tier,
            # runs clean (the fault was keyed to query 0), and closes it
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert_same_result(got, want, counters=True)
            assert engine.metrics_log[-1]["tier"] == "pool"
            assert engine.health()["breakers"]["pool"]["state"] == "closed"


# ---------------------------------------------------------------------------
# The lossless-ladder property: random fault/overload schedules
# ---------------------------------------------------------------------------
@fork_only
class TestLosslessLadderProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["crash", "exception", "none"]),
            min_size=3, max_size=3,
        ),
        threshold=st.integers(min_value=1, max_value=3),
        overload_at=st.integers(min_value=-1, max_value=2),
        tiny_caches=st.booleans(),
    )
    def test_completed_queries_bit_identical_under_any_schedule(
        self, world, candidates, pf, serial_answer,
        kinds, threshold, overload_at, tiny_caches,
    ):
        """Any schedule of worker faults, breaker trips, overload sheds
        and cache evictions leaves every *completed* query bit-identical
        to fault-free serial execution, and every shed query typed."""
        faults = [
            FaultSpec(kind=kind, query=q, times=99)
            for q, kind in enumerate(kinds)
            if kind != "none"
        ]
        if overload_at >= 0:
            faults.append(
                FaultSpec(kind="overload", query=overload_at, times=1)
            )
        engine = QueryEngine(
            world,
            pool=True,
            workers=2,
            supervisor_policy=FAST,
            max_inflight=1,
            breaker=BreakerConfig(failure_threshold=threshold),
            cache_budget=(
                CacheBudget(max_tables=1, max_prunings=1, max_rtrees=1)
                if tiny_caches else None
            ),
            fault_injector=FaultInjector(faults),
        )
        completed = 0
        for q in range(3):
            try:
                got = engine.query(
                    candidates, pf=pf, tau=0.7, algorithm="PIN-VO"
                )
            except QueryShedError as exc:
                assert isinstance(exc.shed, QueryShed)
                continue
            completed += 1
            assert_same_result(got, serial_answer, counters=True)
        # the ladder is lossless: whatever was admitted, completed
        assert completed == engine.stats.queries - engine.stats.queries_shed
        assert engine.stats.queries == 3
        engine.close()
