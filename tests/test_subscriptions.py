"""Tests for the standing-query subscription engine.

The load-bearing property is **bit-identity**: after any interleaving
of ingests, subscribes, and unsubscribes, every subscription's
maintained snapshot equals a from-scratch one-shot
:meth:`QueryEngine.query` over the same fleet state.  The Hypothesis
property drives random interleavings against exactly that oracle; the
unit tests pin the serving behaviours around it (admission sheds,
update-storm faults, events, metrics, JSONL records).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.minmax_radius import min_max_radius
from repro.core.naive import NaiveAlgorithm
from repro.core.pruning import CLASSIFY_GUARD, classify_span
from repro.core.safe_region import guarded_split, margins_span
from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.pool import fork_available, pool_segments
from repro.engine.session import QueryEngine
from repro.engine.subscriptions import (
    SUBSCRIPTION_ALGORITHMS,
    SubscriptionEngine,
    SubscriptionEvent,
    SubscriptionSnapshot,
    UpdateShed,
)
from repro.model import Candidate
from repro.prob import LinearPF, PowerLawPF

from tests.helpers import SHIPPED_PFS, boundary_placements
from tests.test_faults import assert_no_orphans


def oracle_influences(engine, cand_pairs, tau, pf):
    """Fresh one-shot full influence table over the engine's fleet."""
    fleet = engine.fleet()
    q = QueryEngine(fleet, workers=1, default_pf=pf)
    res = q.query(
        [Candidate(j, x, y) for j, (x, y) in enumerate(cand_pairs)],
        tau=tau,
        algorithm="PIN",
    )
    return tuple(res.influences[j] for j in range(len(cand_pairs))), res


class TestSubscribeBasics:
    def test_first_snapshot_matches_oracle(self, pf, rng):
        eng = SubscriptionEngine(window=4, default_pf=pf)
        for _ in range(120):
            eng.ingest(int(rng.integers(0, 15)), *rng.uniform(0, 25, 2))
        cands = [tuple(map(float, xy)) for xy in rng.uniform(0, 25, (6, 2))]
        sid = eng.subscribe(cands, tau=0.4)
        snap = eng.snapshot(sid)
        expected, res = oracle_influences(eng, cands, 0.4, pf)
        assert snap.influences == expected
        assert snap.best_candidate.candidate_id == res.best_candidate.candidate_id
        assert snap.best_influence == res.best_influence
        assert snap.version == 1

    def test_maintained_snapshot_matches_oracle(self, pf, rng):
        eng = SubscriptionEngine(window=3, default_pf=pf)
        cands = [tuple(map(float, xy)) for xy in rng.uniform(0, 25, (5, 2))]
        sid = eng.subscribe(cands, tau=0.4)
        for _ in range(300):
            eng.ingest(int(rng.integers(0, 12)), *rng.uniform(0, 25, 2))
        snap = eng.snapshot(sid)
        expected, res = oracle_influences(eng, cands, 0.4, pf)
        assert snap.influences == expected
        assert snap.best_candidate.candidate_id == res.best_candidate.candidate_id

    def test_tie_break_matches_one_shot(self, pf):
        # Two equally influenced candidates: the lower index wins, on
        # both the one-shot and the maintained path.
        eng = SubscriptionEngine(window=2, default_pf=pf)
        cands = [(0.0, 0.0), (0.1, 0.0)]
        sid = eng.subscribe(cands, tau=0.3)
        eng.ingest(0, 0.05, 0.0)
        snap = eng.snapshot(sid)
        expected, res = oracle_influences(eng, cands, 0.3, pf)
        assert snap.influences == expected
        assert snap.best_candidate.candidate_id == res.best_candidate.candidate_id

    def test_validation_errors(self, pf):
        eng = SubscriptionEngine(default_pf=pf)
        with pytest.raises(ValueError, match="tau"):
            eng.subscribe([(0, 0)], tau=1.5)
        with pytest.raises(ValueError, match="algorithm"):
            eng.subscribe([(0, 0)], algorithm="MAGIC")
        with pytest.raises(ValueError, match="at least one candidate"):
            eng.subscribe([])
        with pytest.raises(ValueError, match="window"):
            SubscriptionEngine(window=0, default_pf=pf)
        with pytest.raises(ValueError, match="shed policy"):
            SubscriptionEngine(default_pf=pf, max_updates_per_round=4,
                               shed_policy="nope")
        with pytest.raises(ValueError, match="default_pf"):
            SubscriptionEngine().subscribe([(0, 0)])

    def test_unknown_ids_raise(self, pf):
        eng = SubscriptionEngine(default_pf=pf)
        with pytest.raises(KeyError):
            eng.snapshot(42)
        with pytest.raises(KeyError):
            eng.unsubscribe(42)
        with pytest.raises(KeyError):
            eng.forget_object(42)

    def test_algorithms_all_accepted(self, pf):
        eng = SubscriptionEngine(default_pf=pf)
        eng.ingest(0, 1.0, 1.0)
        for alg in SUBSCRIPTION_ALGORITHMS:
            sid = eng.subscribe([(1.0, 1.0)], tau=0.3, algorithm=alg)
            assert eng.snapshot(sid).algorithm == alg

    def test_groups_shared_by_pf_and_tau(self, pf):
        eng = SubscriptionEngine(default_pf=pf)
        eng.subscribe([(0, 0)], tau=0.3)
        eng.subscribe([(1, 1)], tau=0.3)       # same (pf, tau): same group
        eng.subscribe([(2, 2)], tau=0.5)       # different tau: new group
        eng.subscribe([(3, 3)], tau=0.3, pf=LinearPF())
        assert eng.stats()["groups"] == 3
        assert eng.stats()["subscriptions"] == 4


class TestUnsubscribeAndForget:
    def test_unsubscribe_removes_and_keeps_others_exact(self, pf, rng):
        eng = SubscriptionEngine(window=3, default_pf=pf)
        cands_a = [tuple(map(float, xy)) for xy in rng.uniform(0, 20, (4, 2))]
        cands_b = [tuple(map(float, xy)) for xy in rng.uniform(0, 20, (3, 2))]
        sid_a = eng.subscribe(cands_a, tau=0.4)
        sid_b = eng.subscribe(cands_b, tau=0.4)
        for _ in range(150):
            eng.ingest(int(rng.integers(0, 10)), *rng.uniform(0, 20, 2))
        eng.unsubscribe(sid_b)
        assert eng.subscriptions() == [sid_a]
        for _ in range(150):
            eng.ingest(int(rng.integers(0, 10)), *rng.uniform(0, 20, 2))
        snap = eng.snapshot(sid_a)
        expected, _ = oracle_influences(eng, cands_a, 0.4, pf)
        assert snap.influences == expected

    def test_unsubscribing_last_sub_drops_group(self, pf):
        eng = SubscriptionEngine(default_pf=pf)
        sid = eng.subscribe([(0, 0)], tau=0.3)
        assert eng.stats()["groups"] == 1
        eng.unsubscribe(sid)
        assert eng.stats()["groups"] == 0
        assert eng.stats()["subscriptions"] == 0

    def test_forget_object_rolls_back(self, pf, rng):
        eng = SubscriptionEngine(window=4, default_pf=pf)
        cands = [tuple(map(float, xy)) for xy in rng.uniform(0, 15, (4, 2))]
        sid = eng.subscribe(cands, tau=0.4)
        for _ in range(100):
            eng.ingest(int(rng.integers(0, 8)), *rng.uniform(0, 15, 2))
        for oid in [0, 3, 5]:
            eng.forget_object(oid)
        assert eng.n_objects == 5
        snap = eng.snapshot(sid)
        expected, _ = oracle_influences(eng, cands, 0.4, pf)
        assert snap.influences == expected

    def test_window_eviction_keeps_last_positions(self, pf):
        eng = SubscriptionEngine(window=3, default_pf=pf)
        for i in range(10):
            eng.ingest(0, float(i), 0.0)
        [obj] = eng.fleet()
        np.testing.assert_array_equal(obj.positions[:, 0], [7.0, 8.0, 9.0])
        # A far visit spans the MBR over both candidates; once it is
        # evicted the MBR shrinks to a point and the far candidate
        # loses the object.
        cands = [(0.0, 0.0), (300.0, 300.0)]
        eng = SubscriptionEngine(window=2, default_pf=pf)
        sid = eng.subscribe(cands, tau=0.6)
        eng.ingest(0, 0.0, 0.0)
        eng.ingest(0, 300.0, 300.0)
        eng.ingest(0, 0.0, 0.0)         # far point still in the window
        assert eng.snapshot(sid).influences == (1, 1)
        eng.ingest(0, 0.0, 0.0)         # far point evicted
        [obj] = eng.fleet()
        np.testing.assert_array_equal(obj.positions, [[0.0, 0.0]] * 2)
        expected, _ = oracle_influences(eng, cands, 0.6, pf)
        assert eng.snapshot(sid).influences == expected == (1, 0)

    def test_slot_reuse_after_forget(self, pf, rng):
        eng = SubscriptionEngine(window=2, default_pf=pf)
        sid = eng.subscribe([(5.0, 5.0)], tau=0.3)
        for oid in range(6):
            eng.ingest(oid, *rng.uniform(0, 10, 2))
        eng.forget_object(2)
        eng.ingest(99, 5.0, 5.0)        # reuses object 2's slot
        snap = eng.snapshot(sid)
        expected, _ = oracle_influences(eng, [(5.0, 5.0)], 0.3, pf)
        assert snap.influences == expected


class TestSafeRegions:
    def test_off_boundary_update_touches_zero_candidates(self, pf):
        # The regression the safe-region index exists for: an object
        # far from every candidate absorbs repeat updates with zero
        # candidate work after the first recompute.
        eng = SubscriptionEngine(window=4, default_pf=pf)
        eng.subscribe([(0.0, 0.0)], tau=0.5)
        eng.ingest(0, 500.0, 500.0)
        r = eng.ingest(0, 500.1, 500.1)     # tiny move, far off boundary
        assert r.safe_region_hits == 1
        assert r.crossings == 0
        assert r.validations == 0

    def test_crossing_light_workload_mostly_hits(self, pf, rng):
        eng = SubscriptionEngine(window=4, default_pf=pf)
        # Objects jitter in place, far from the first candidate and on
        # top of the second.
        anchors = rng.uniform(200.0, 300.0, (10, 2))
        cands = [(0.0, 0.0), tuple(map(float, anchors[0]))]
        sid = eng.subscribe(cands, tau=0.5)
        for _ in range(30):
            for oid in range(10):
                x, y = anchors[oid] + rng.normal(0, 0.01, 2)
                eng.ingest(oid, float(x), float(y))
        stats = eng.stats()
        assert stats["safe_region_hits"] > stats["crossings"]
        # the safe-region hits kept the table exact
        expected, _ = oracle_influences(eng, cands, 0.5, pf)
        assert eng.snapshot(sid).influences == expected
        assert expected[1] >= 1

    def test_exact_ia_boundary_never_caches(self, pf):
        # maxDist == radius is IA by Lemma 2 (inclusive), but its
        # margin is 0 — the safe region must not absorb the next
        # update on a slack-0 object.
        from repro.core.minmax_radius import MinMaxRadiusCache

        radius = MinMaxRadiusCache(pf, 0.5).radius(1)
        assert radius is not None
        eng = SubscriptionEngine(window=1, default_pf=pf)
        sid = eng.subscribe([(float(radius), 0.0)], tau=0.5)
        r1 = eng.ingest(7, 0.0, 0.0)        # point MBR exactly on boundary
        assert eng.snapshot(sid).influences == (1,)
        assert r1.crossings == 1
        r2 = eng.ingest(7, 0.0, 0.0)        # same spot: still not safe
        assert r2.safe_region_hits == 0
        assert r2.crossings == 1
        assert eng.snapshot(sid).influences == (1,)

    @pytest.mark.parametrize("subscribe_first", [True, False])
    def test_each_validation_counted_once(self, pf, subscribe_first):
        # One pair at exactly the radius sits in the guard band and is
        # validated once, by the crossing (ingest) or by the new
        # subscription's scoring (subscribe).
        from repro.core.minmax_radius import MinMaxRadiusCache

        cands = [(float(MinMaxRadiusCache(pf, 0.5).radius(1)), 0.0)]
        eng = SubscriptionEngine(window=1, default_pf=pf)
        if subscribe_first:
            eng.subscribe(cands, tau=0.5)
        report = eng.ingest(7, 0.0, 0.0)
        if not subscribe_first:
            eng.subscribe(cands, tau=0.5)
        assert report.validations == int(subscribe_first)
        assert eng.counters.pairs_validated == 1


class TestEventsAndCallbacks:
    def test_versions_and_events(self, pf):
        eng = SubscriptionEngine(window=2, default_pf=pf)
        sid = eng.subscribe([(0.0, 0.0)], tau=0.3)
        assert eng.snapshot(sid).version == 1
        eng.ingest(0, 0.0, 0.0)             # gains influence: version 2
        assert eng.snapshot(sid).version == 2
        events = eng.drain_events()
        assert [e.version for e in events] == [2]
        assert isinstance(events[0], SubscriptionEvent)
        assert events[0].best_influence == 1
        assert eng.drain_events() == []

    def test_no_event_without_change(self, pf):
        eng = SubscriptionEngine(window=4, default_pf=pf)
        sid = eng.subscribe([(0.0, 0.0)], tau=0.5)
        eng.ingest(0, 900.0, 900.0)         # far away: no influence change
        assert eng.snapshot(sid).version == 1
        assert eng.drain_events() == []

    def test_callback_receives_snapshot(self, pf):
        seen: list[SubscriptionSnapshot] = []
        eng = SubscriptionEngine(window=2, default_pf=pf)
        sid = eng.subscribe([(1.0, 1.0)], tau=0.3, callback=seen.append)
        eng.ingest(0, 1.0, 1.0)
        assert len(seen) == 1
        assert seen[0].subscription_id == sid
        assert seen[0].influences == (1,)

    def test_forget_object_notifies(self, pf):
        seen: list[SubscriptionSnapshot] = []
        unlocked: list[bool] = []
        eng = SubscriptionEngine(window=2, default_pf=pf)

        def probe():
            # succeeds only if the caller does not hold the engine lock
            if eng._lock.acquire(timeout=2):
                eng._lock.release()
                unlocked.append(True)
            else:
                unlocked.append(False)

        def callback(snap):
            seen.append(snap)
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()

        sid = eng.subscribe([(0.0, 0.0)], tau=0.3, callback=callback)
        eng.ingest(0, 0.0, 0.0)
        assert [e.version for e in eng.drain_events()] == [2]
        eng.forget_object(0)                # loses its only influence
        snap = eng.snapshot(sid)
        assert snap.version == 3
        assert snap.influences == (0,)
        events = eng.drain_events()
        assert [(e.version, e.best_influence) for e in events] == [(3, 0)]
        assert [s.version for s in seen] == [2, 3]
        assert seen[-1].influences == (0,)
        assert seen[-1].objects == 0
        assert unlocked == [True, True]
        assert eng.stats()["notifications"] == 2
        assert "pinls_sub_notifications_total 2" in eng.metrics.render()

    def test_event_queue_bounded(self, pf):
        eng = SubscriptionEngine(window=1, default_pf=pf, max_events=3)
        eng.subscribe([(0.0, 0.0)], tau=0.3)
        for i in range(6):
            # alternate near/far so every ingest changes the result
            eng.ingest(0, 0.0 if i % 2 == 0 else 900.0, 0.0)
        assert len(eng.drain_events()) == 3
        assert eng.events_dropped == 3


class TestAdmissionAndFaults:
    def test_round_cap_sheds_excess(self, pf):
        eng = SubscriptionEngine(
            window=2, default_pf=pf,
            max_updates_per_round=2, shed_policy="reject",
        )
        sid = eng.subscribe([(0.0, 0.0)], tau=0.3)
        r = eng.ingest_batch([(i, 0.0, 0.0) for i in range(5)])
        assert r.applied == 2
        assert len(r.shed) == 3
        assert all(isinstance(s, UpdateShed) for s in r.shed)
        assert all(s.reason == "queue-full" for s in r.shed)
        # Shed updates were never applied: the fleet has 2 objects and
        # the snapshot stays bit-identical to the oracle over them.
        assert eng.n_objects == 2
        expected, _ = oracle_influences(eng, [(0.0, 0.0)], 0.3, pf)
        assert eng.snapshot(sid).influences == expected

    def test_update_storm_fault_sheds_whole_round(self, pf):
        inj = FaultInjector([FaultSpec(kind="update-storm", times=1)])
        eng = SubscriptionEngine(
            window=2, default_pf=pf,
            max_updates_per_round=8, fault_injector=inj,
        )
        r1 = eng.ingest_batch([(i, 1.0, 1.0) for i in range(4)])
        assert r1.applied == 0 and len(r1.shed) == 4
        r2 = eng.ingest_batch([(i, 1.0, 1.0) for i in range(4)])
        assert r2.applied == 4 and not r2.shed    # storm consumed

    def test_batch_coalesces_per_object(self, pf):
        eng = SubscriptionEngine(window=4, default_pf=pf)
        eng.subscribe([(0.0, 0.0)], tau=0.3)
        r = eng.ingest_batch([(0, 0.0, 0.0), (0, 0.1, 0.0), (0, 0.2, 0.0)])
        assert r.applied == 3
        # one object touched: at most one recompute for it
        assert r.crossings + r.safe_region_hits == 1

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_storm_and_pool_crash_keep_every_snapshot_exact(self, pf):
        # The streaming chaos drill: 12 ingest rounds at 4x the round
        # budget, the first two under an injected update storm, then a
        # pooled one-shot query whose worker crashes in the same
        # process, then 4 more rounds.
        budget, n_objects = 250, 2_000
        rng = np.random.default_rng(23)
        extent = 30.0 * np.sqrt(n_objects / 1_000)
        anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
        storms = FaultInjector()
        eng = SubscriptionEngine(
            window=8, default_pf=pf,
            max_updates_per_round=budget, shed_policy="reject",
            fault_injector=storms,
        )
        for oid, (x, y) in enumerate(anchors.tolist()):
            eng.ingest(oid, x, y)
        subs = []
        for _ in range(40):
            cands = [tuple(xy) for xy in rng.uniform(0, extent, (4, 2))]
            subs.append((eng.subscribe(cands, tau=0.7), cands))

        def ingest_round(size):
            oids = rng.integers(0, n_objects, size=size)
            xy = anchors[oids] + rng.normal(0.0, 0.5, size=(size, 2))
            return eng.ingest_batch(zip(oids.tolist(), *xy.T.tolist()))

        # Armed after seeding, so the storms hit the first two rounds.
        storms.add(FaultSpec(kind="update-storm", times=2))
        reports = [ingest_round(4 * budget) for _ in range(12)]
        assert [r.applied for r in reports[:2]] == [0, 0]
        assert sum(len(r.shed) for r in reports) > 0

        first = subs[0][1]
        with QueryEngine(
            eng.fleet(), pool=True, workers=2, default_pf=pf,
            fault_injector=FaultInjector([FaultSpec(kind="crash", times=1)]),
        ) as crashed:
            mid = crashed.query(
                [Candidate(j, x, y) for j, (x, y) in enumerate(first)],
                tau=0.7,
                algorithm="PIN",
            )
        assert mid.instrumentation.worker_failures > 0
        expected, _ = oracle_influences(eng, first, 0.7, pf)
        assert tuple(mid.influences[j] for j in range(4)) == expected

        for _ in range(4):
            ingest_round(budget // 2)
        # One oracle engine for all 40: its table is built once.
        with QueryEngine(eng.fleet(), default_pf=pf) as oracle:
            for sid, cands in subs:
                res = oracle.query(
                    [Candidate(j, x, y) for j, (x, y) in enumerate(cands)],
                    tau=0.7,
                    algorithm="PIN",
                )
                expected = tuple(res.influences[j] for j in range(4))
                assert eng.snapshot(sid).influences == expected
        assert pool_segments() == []
        assert_no_orphans()


class TestObservability:
    def test_metrics_registered_and_counting(self, pf):
        eng = SubscriptionEngine(window=2, default_pf=pf)
        eng.subscribe([(0.0, 0.0)], tau=0.3)
        eng.ingest(0, 0.0, 0.0)
        reg = eng.metrics
        for name in (
            "pinls_sub_updates_total",
            "pinls_sub_safe_region_hits_total",
            "pinls_sub_crossings_total",
            "pinls_sub_validations_total",
            "pinls_sub_notifications_total",
            "pinls_sub_ingest_seconds",
            "pinls_sub_recompute_seconds",
            "pinls_sub_subscriptions",
            "pinls_sub_objects",
            "pinls_sub_groups",
            "pinls_sub_pending_events",
        ):
            assert reg.get(name) is not None, name
        page = reg.render()
        assert 'pinls_sub_updates_total{result="applied"} 1' in page
        assert "pinls_sub_objects 1" in page

    def test_jsonl_records(self, pf, tmp_path):
        path = tmp_path / "sub.jsonl"
        eng = SubscriptionEngine(window=2, default_pf=pf,
                                 metrics_path=path,
                                 max_updates_per_round=1)
        eng.subscribe([(0.0, 0.0)], tau=0.3)
        eng.ingest_batch([(0, 0.0, 0.0), (1, 5.0, 5.0)])
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert "ingest" in kinds
        assert "recompute" in kinds
        assert "ingest-shed" in kinds
        assert all(l["schema"] == 1 for l in lines)

    def test_trace_spans(self, pf, tmp_path):
        from repro.engine.trace import Tracer

        tracer = Tracer(enabled=True)
        eng = SubscriptionEngine(window=2, default_pf=pf, tracer=tracer)
        eng.subscribe([(0.0, 0.0)], tau=0.3)
        eng.ingest(0, 0.0, 0.0)
        assert tracer.exported == 1
        tree = tracer.traces[0]
        assert tree["name"] == "ingest"
        child_names = [c["name"] for c in tree.get("children", ())]
        assert "recompute" in child_names


# ----------------------------------------------------------------------
# The bit-identity property
# ----------------------------------------------------------------------
coord = st.integers(min_value=0, max_value=12).map(float)
op = st.one_of(
    st.tuples(st.just("ingest"),
              st.integers(min_value=0, max_value=5), coord, coord),
    st.tuples(st.just("subscribe"),
              st.lists(st.tuples(coord, coord), min_size=1, max_size=3),
              st.sampled_from([0.3, 0.6])),
    st.tuples(st.just("unsubscribe")),
    st.tuples(st.just("forget"), st.integers(min_value=0, max_value=5)),
)


#: the property's PFs: under ``LinearPF`` a one-position window is dead
#: at tau 0.6 (cap 0.5) and a longer one alive, so objects cross
#: between dead and alive as their windows fill or are forgotten
PROPERTY_PFS = (PowerLawPF(rho=0.9, lam=1.0), LinearPF(rho=0.5, scale=10.0))


class TestBitIdentityProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(op, min_size=1, max_size=25),
        pf=st.sampled_from(PROPERTY_PFS),
    )
    # one position at distance 2 has P = 0.9 / 3 = tau: exactly on the
    # minMaxRadius boundary, where the crossing recompute must defer to
    # exact validation like the one-shot kernel
    @example(
        ops=[("subscribe", [(0.0, 0.0)], 0.3), ("ingest", 0, 0.0, 2.0)],
        pf=PROPERTY_PFS[0],
    )
    def test_snapshots_match_fresh_one_shot(self, ops, pf):
        eng = SubscriptionEngine(window=3, default_pf=pf)
        live: dict[int, tuple[list, float]] = {}
        for entry in ops:
            if entry[0] == "ingest":
                _, oid, x, y = entry
                eng.ingest(oid, x, y)
            elif entry[0] == "subscribe":
                _, cands, tau = entry
                sid = eng.subscribe(cands, tau=tau)
                live[sid] = (cands, tau)
            elif entry[0] == "unsubscribe" and live:
                sid = next(iter(live))
                eng.unsubscribe(sid)
                del live[sid]
            elif entry[0] == "forget" and eng.n_objects:
                oid = sorted(eng._windows)[0]
                eng.forget_object(oid)
        for sid, (cands, tau) in live.items():
            snap = eng.snapshot(sid)
            if eng.n_objects == 0:
                # the one-shot engine refuses an empty fleet; influence
                # over nothing is zero everywhere
                assert snap.influences == (0,) * len(cands)
                continue
            expected, res = oracle_influences(eng, cands, tau, pf)
            assert snap.influences == expected
            assert snap.best_candidate.candidate_id == \
                res.best_candidate.candidate_id
            assert snap.best_influence == res.best_influence


#: (PF, tau) pairs of the boundary sweep under which some object lives
BOUNDARY_CASES = [
    (name, tau)
    for name in sorted(SHIPPED_PFS)
    for tau in (0.5, 0.7, 0.9)
    if min_max_radius(SHIPPED_PFS[name], tau, 5) is not None
]


class TestRadiusBoundary:
    """Regression: a candidate at exactly ``minMaxRadius`` is decided
    like NA both when a crossing recomputes an object and when a new
    subscription scores the fleet; deciding those pairs with unguarded
    distance tests disagreed with the one-shot engine."""

    @pytest.mark.parametrize("pf_name,tau", BOUNDARY_CASES)
    def test_boundary_placements_agree_with_na(self, pf_name, tau):
        pf = SHIPPED_PFS[pf_name]
        objects, candidates = boundary_placements(pf, tau, 60, seed=23)
        cands = [(c.x, c.y) for c in candidates]
        want = NaiveAlgorithm().select(objects, candidates, pf, tau)
        expected = tuple(want.influences[c.candidate_id] for c in candidates)
        for subscribe_first in (True, False):
            eng = SubscriptionEngine(window=5, default_pf=pf)
            if subscribe_first:
                sid = eng.subscribe(cands, tau=tau)
            for obj in objects:
                for x, y in obj.positions.tolist():
                    eng.ingest(obj.object_id, x, y)
            if not subscribe_first:
                sid = eng.subscribe(cands, tau=tau)
            assert eng.snapshot(sid).influences == expected, subscribe_first


class TestSplitMargins:
    """A deformation under a pair's margin keeps its guarded split, so a
    safe-region hit never keeps a verdict the kernel would now send to
    exact validation."""

    def test_pairs_near_the_guard_keep_their_split(self):
        rng = np.random.default_rng(5)
        n = 20_000
        radii = rng.uniform(0.5, 20.0, n)
        # point objects a few guard widths either side of the boundary,
        # one candidate at the origin
        dist = radii * np.sqrt(
            1.0 + rng.uniform(-4.0, 4.0, n) * CLASSIFY_GUARD
        )
        unit = rng.normal(size=(n, 2))
        unit /= np.hypot(unit[:, 0], unit[:, 1])[:, None]
        origin = np.zeros((1, 2))

        def split(d, r):
            points = unit * d[:, None]
            mbrs = np.hstack([points, points])
            ia, band = classify_span(mbrs, r, origin)
            return mbrs, ia, band

        mbrs, ia, band = split(dist, radii)
        margin = margins_span(mbrs, radii, origin, ia, band)[:, 0]
        # margins well above the kernel's rounding
        keep = margin > 32 * np.finfo(np.float64).eps * radii
        assert keep.sum() > n // 4
        # the worst moves for the side: IA pairs move a quarter margin
        # away while the radius shrinks by a quarter, pruned pairs the
        # reverse; sqrt(2)/4 + 1/4 of the margin in all
        step = np.where(ia[:, 0], 0.25, -0.25) * margin
        _, ia2, band2 = split(dist + step, radii - step)
        np.testing.assert_array_equal(ia2[keep], ia[keep])
        np.testing.assert_array_equal(band2[keep], band[keep])
        # a crossing splits sqrt-form distances the same way, off the
        # guarded boundaries
        for d, r, want_ia, want_band in (
            (dist, radii, ia, band),
            (dist + step, radii - step, ia2, band2),
        ):
            got_ia, got_band = guarded_split(d, d, r)
            np.testing.assert_array_equal(got_ia[keep], want_ia[keep, 0])
            np.testing.assert_array_equal(got_band[keep], want_band[keep, 0])
