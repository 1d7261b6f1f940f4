"""The persistent fork worker pool: identity, lifecycle, faults.

The claims under test, matching ``docs/architecture.md``'s pool
semantics:

* a pool-served query (``QueryEngine(..., pool=True)``) returns the
  bit-identical answer of a fresh serial ``select_location`` call —
  full influence table and logical work counters — for every
  algorithm, and ``query_batch`` is bit-identical to issuing the same
  ``query`` calls sequentially (property-tested over random worlds),
* a worker killed mid-batch — or dead idle between queries — is
  respawned (visible as ``EngineStats.pool_respawns``) and the query
  still completes with bit-identical answers, never a traceback; a
  crash on every worker trips the breaker and degrades to serial, and
  under a batch larger than the admission budget the overflow is shed
  as typed outcomes while the admitted answers stay exact,
* workers read the engine's fleet export through fork and build each
  ``(PF, τ)`` table over it exactly as the parent does, so a pooled
  round of any task kind creates no ``/dev/shm`` entry,
* no orphan worker processes survive any of the above: ``close()``
  joins the workers, and an engine abandoned without ``close()`` is
  cleaned up at interpreter exit.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.core.result import Instrumentation
from repro.engine import (
    BreakerConfig,
    CacheBudget,
    FaultInjector,
    FaultSpec,
    QueryRequest,
    QueryShed,
)
from repro.engine.pool import fork_available
from repro.prob import PowerLawPF

from .helpers import (
    DEAD_ROWS_PF,
    dead_row_fleet,
    make_candidates,
    make_objects,
    shm_entries,
)
from .test_engine import ALGORITHMS, assert_same_result
from .test_faults import assert_no_orphans, fast_policy

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(7)
    return make_objects(rng, 25, n_range=(1, 10))


@pytest.fixture(scope="module")
def candidates():
    # 16 candidates across 4 workers -> 4 shards of 4 columns each.
    return make_candidates(np.random.default_rng(8), 16)


def pooled_engine(objects, faults=(), **kwargs):
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("supervisor_policy", fast_policy())
    injector = FaultInjector(list(faults)) if faults else None
    return QueryEngine(objects, pool=True, fault_injector=injector, **kwargs)


class TestBitIdentity:
    """Pool answers == serial answers, down to the work counters."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pooled_query_matches_fresh_solver(
        self, world, candidates, pf, algorithm
    ):
        with pooled_engine(world) as engine:
            got = engine.query(
                candidates, pf=pf, tau=0.7, algorithm=algorithm
            )
            assert engine.stats.spans_dispatched > 0
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm=algorithm
        )
        assert_same_result(got, want, counters=True)
        assert_no_orphans()

    def test_query_batch_matches_sequential_queries(self, world, pf):
        rng = np.random.default_rng(9)
        requests = [
            QueryRequest(make_candidates(rng, 12), pf, tau, "PIN-VO")
            for tau in (0.5, 0.7, 0.8, 0.7)
        ]
        with pooled_engine(world) as engine:
            batched = engine.query_batch(requests)
            assert [r["batch_size"] for r in engine.metrics_log] == (
                [len(requests)] * len(requests)
            )
        sequential_engine = QueryEngine(world)
        for got, req in zip(batched, requests):
            want = sequential_engine.query(
                req.candidates, pf=req.pf, tau=req.tau,
                algorithm=req.algorithm,
            )
            assert_same_result(got, want, counters=True)
            # four cold PIN-VO requests: each ran whole in one worker,
            # on the serial code path, so every other count matches
            assert got.instrumentation.spans_dispatched == 1
            for fld in fields(Instrumentation):
                if fld.type == "int" and fld.name != "spans_dispatched":
                    assert getattr(got.instrumentation, fld.name) == (
                        getattr(want.instrumentation, fld.name)
                    ), fld.name
        assert_no_orphans()

    def test_batch_repeated_pruning_key_is_a_hit(self, world, candidates, pf):
        # Two requests sharing (candidates, pf, tau) inside one batch:
        # the second must reuse the first's pruning output.
        requests = [
            QueryRequest(candidates, pf, 0.7, "PIN-VO"),
            QueryRequest(candidates, pf, 0.7, "PIN-VO"),
        ]
        with pooled_engine(world) as engine:
            first, second = engine.query_batch(requests)
            assert engine.stats.pruning_hits >= 1
        assert_same_result(second, first, counters=True)
        # Two cold requests on 2 workers go whole to a worker each; the
        # first one's pruning output lands in the cache before the
        # third request, which repeats it, is assembled.
        requests.insert(1, QueryRequest(candidates, pf, 0.6, "PIN-VO"))
        with pooled_engine(world, workers=2) as engine:
            first, _, third = engine.query_batch(requests)
            assert engine.stats.pruning_hits == 1
            assert engine.stats.pruning_misses == 2
        assert first.instrumentation.spans_dispatched == 1
        assert_same_result(third, first, counters=True)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tau=st.sampled_from([0.5, 0.7, 0.9]),
        algorithm=st.sampled_from(["PIN", "PIN-VO"]),
    )
    def test_property_batch_equals_serial(self, seed, tau, algorithm):
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 12, n_range=(1, 6))
        cand_sets = [make_candidates(rng, 9) for _ in range(3)]
        pf = PowerLawPF(rho=0.9, lam=1.0)
        with pooled_engine(objects, workers=2) as engine:
            batched = engine.query_batch(
                [QueryRequest(c, pf, tau, algorithm) for c in cand_sets]
            )
        for got, cands in zip(batched, cand_sets):
            want = select_location(
                objects, cands, pf=pf, tau=tau, algorithm=algorithm
            )
            assert_same_result(got, want, counters=True)


class TestSupervision:
    """Worker death mid-batch: respawn, re-dispatch, same answers."""

    def test_crash_mid_batch_respawns_and_completes(self, world, pf):
        rng = np.random.default_rng(10)
        cand_sets = [make_candidates(rng, 12) for _ in range(3)]
        faults = [FaultSpec(kind="crash", worker=1, times=1)]
        with pooled_engine(world, faults=faults) as engine:
            batched = engine.query_batch(
                [QueryRequest(c, pf, 0.7, "PIN-VO") for c in cand_sets]
            )
            assert engine.stats.pool_respawns >= 1
            assert engine.stats.worker_failures >= 1
        for got, cands in zip(batched, cand_sets):
            want = select_location(
                world, cands, pf=pf, tau=0.7, algorithm="PIN-VO"
            )
            assert_same_result(got, want, counters=True)
        assert_no_orphans()

    @pytest.mark.parametrize("kind", ["exception", "delay"])
    def test_soft_faults_keep_identity(self, world, candidates, pf, kind):
        faults = [FaultSpec(kind=kind, worker=0, times=1)]
        with pooled_engine(world, faults=faults) as engine:
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            if kind == "exception":
                assert engine.stats.worker_failures >= 1
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert_same_result(got, want, counters=True)
        assert_no_orphans()

    def test_worker_dead_between_queries_is_respawned(
        self, world, candidates, pf
    ):
        # Kill a worker while it is idle: the next dispatch's send hits
        # a closed pipe, which must count as a worker death (respawn,
        # re-dispatch) instead of escaping as a BrokenPipeError.
        with pooled_engine(world, workers=2) as engine:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            dead = engine._pool._workers[0].process
            dead.kill()
            dead.join()
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.pool_respawns == 1
            assert engine._pool._workers[0].process is not dead
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert_same_result(got, want, counters=True)
        assert_no_orphans()

    @pytest.mark.parametrize(
        "worker", [0, None], ids=["worker-0", "every-worker"]
    )
    def test_crash_single_query_respawns(self, world, candidates, pf, worker):
        # worker=None crashes every worker on its first span: the
        # breaker trips mid-round and the rest of the round degrades
        # to the parent, so the engine ends on the serial tier.
        faults = [FaultSpec(kind="crash", worker=worker, times=1)]
        before = shm_entries()
        with pooled_engine(world, faults=faults) as engine:
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.pool_respawns >= 1
            if worker is None:
                assert engine.stats.breaker_trips == 1
                assert engine.stats.degraded >= 1
                assert engine.health()["tier"] == "serial"
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN"
        )
        assert_same_result(got, want, counters=True)
        assert shm_entries() == before
        assert_no_orphans()

    def test_crash_under_batch_overload_sheds_and_degrades(self, world, pf):
        # Eight distinct queries in one round against 2 in-flight slots
        # and a 2-deep queue: the last four are shed as typed outcomes.
        # Every worker crashes on its first span, and a 2-failure
        # breaker sends the round to the parent and the engine to
        # serial; the four served answers stay exact.
        rng = np.random.default_rng(11)
        cand_sets = [make_candidates(rng, 12) for _ in range(8)]
        before = shm_entries()
        with pooled_engine(
            world,
            faults=[FaultSpec(kind="crash")],
            workers=2,
            max_inflight=2,
            breaker=BreakerConfig(failure_threshold=2),
        ) as engine:
            out = engine.query_batch(
                [QueryRequest(c, pf, 0.7, "PIN-VO") for c in cand_sets]
            )
            assert engine.stats.queries_shed == 4
            assert engine.stats.breaker_trips == 1
            assert engine.health()["tier"] == "serial"
        shed = [isinstance(r, QueryShed) for r in out]
        assert shed == [False] * 4 + [True] * 4
        for got, cands in zip(out[:4], cand_sets):
            want = select_location(
                world, cands, pf=pf, tau=0.7, algorithm="PIN-VO"
            )
            assert_same_result(got, want, counters=True)
        assert shm_entries() == before
        assert_no_orphans()


class TestWorkerRebuild:
    """The worker-side table is a radius column over the inherited fleet.

    A worker builds ``ObjectTable(fleet, pf, τ)`` from the engine's
    fleet export and the PF it unpickled from the span message.  These
    tests run the exact span code path on such a table and assert the
    unchanged answers, compare its columns with the parent's table, and
    check that a real pooled engine creates nothing in ``/dev/shm``.
    """

    def test_columnar_spans_never_materialise_entries(self, world, candidates, pf):
        from repro.core.base import candidates_to_array
        from repro.core.object_table import ObjectTable
        from repro.core.pinocchio import Pinocchio
        from repro.core.pinocchio_vo import PinocchioVO
        from repro.core.result import Instrumentation

        cand_xy = candidates_to_array(candidates)
        table = ObjectTable(world, pf, 0.7)
        rebuilt = ObjectTable(table.fleet, pickle.loads(pickle.dumps(pf)), 0.7)

        # "pin" span: full influence table on the rebuilt table.
        got_counters, want_counters = Instrumentation(), Instrumentation()
        got = Pinocchio().compute_influence(
            rebuilt, cand_xy, pf, 0.7, got_counters
        )
        want = Pinocchio().compute_influence(
            table, cand_xy, pf, 0.7, want_counters
        )
        np.testing.assert_array_equal(got, want)
        assert got_counters.pairs_validated == want_counters.pairs_validated

        # "vo_prune" span: minInf and verification sets.
        got_counters, want_counters = Instrumentation(), Instrumentation()
        got_inf, got_vs = PinocchioVO().pruning_phase(
            rebuilt, cand_xy, got_counters
        )
        want_inf, want_vs = PinocchioVO().pruning_phase(
            table, cand_xy, want_counters
        )
        np.testing.assert_array_equal(got_inf, want_inf)
        for g, w in zip(got_vs, want_vs):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("dead_at", ["first", "middle", "last"])
    def test_worker_table_equals_the_parent_table(self, dead_at):
        from repro.core.object_table import ObjectTable

        fleet, _live = dead_row_fleet(dead_at)
        engine = QueryEngine(fleet)
        parent = engine.table_for(DEAD_ROWS_PF, 0.7)
        worker_pf = pickle.loads(pickle.dumps(DEAD_ROWS_PF))
        worker = ObjectTable(engine.fleet, worker_pf, 0.7)
        assert worker.fleet is parent.fleet is engine.fleet
        for name in ("rows", "radii", "mbrs"):
            got, want = getattr(worker, name), getattr(parent, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert worker.dead_objects == parent.dead_objects == 2

    def test_worker_table_memo_is_bounded_by_the_table_budget(
        self, world, candidates, pf
    ):
        # Four distinct tau through two workers that may each hold two
        # tables, then the first tau again after it was dropped: every
        # worker span says how many tables its worker holds.
        taus = (0.5, 0.6, 0.7, 0.8, 0.5)
        with pooled_engine(
            world, workers=2, tracing=True,
            cache_budget=CacheBudget(max_tables=2),
        ) as engine:
            for tau in taus:
                got = engine.query(candidates, pf=pf, tau=tau, algorithm="PIN")
                want = select_location(
                    world, candidates, pf=pf, tau=tau, algorithm="PIN"
                )
                assert_same_result(got, want)
            held = [
                span["attrs"]["tables"]
                for trace in engine.tracer.traces
                for dispatch in trace["children"]
                if dispatch["name"] == "dispatch"
                for span in dispatch["children"]
            ]
        assert len(held) == 2 * len(taus)
        assert held[:4] == [1, 1, 2, 2]
        assert set(held[4:]) == {2}
        assert_no_orphans()

    def test_columnar_spans_keep_shm_clean(self, world, candidates, pf):
        before = shm_entries()
        with pooled_engine(world) as engine:
            for algorithm in ("PIN", "PIN-VO"):
                engine.query(
                    candidates, pf=pf, tau=0.7, algorithm=algorithm
                )
            assert engine.stats.spans_dispatched > 0
            assert shm_entries() == before
        assert shm_entries() == before
        assert_no_orphans()


#: one pooled round of every task kind: NA and PIN column spans, a lone
#: cold PIN-VO request's "vo_prune" spans, then two cold PIN-VO
#: requests that each go whole to a worker ("vo")
EVERY_KIND_ROUNDS = textwrap.dedent(
    """
    import os
    import numpy as np
    from repro import QueryEngine
    from repro.engine import QueryRequest
    from repro.model import Candidate, MovingObject
    from repro.prob import PowerLawPF

    def every_kind_rounds(engine):
        rng = np.random.default_rng(3)
        sets = [
            [Candidate(j, float(x), float(y))
             for j, (x, y) in enumerate(rng.uniform(0, 20, size=(8, 2)))]
            for _ in range(3)
        ]
        pf = PowerLawPF()
        for algorithm in ("NA", "PIN", "PIN-VO"):
            engine.query(sets[0], pf=pf, tau=0.7, algorithm=algorithm)
        engine.query_batch([QueryRequest(c, pf, 0.7) for c in sets[1:]])
        return [w.process.pid for w in engine._pool._workers]

    rng = np.random.default_rng(3)
    objects = [
        MovingObject(i, rng.uniform(0, 20, size=(4, 2))) for i in range(10)
    ]
    """
)


class TestLifecycle:
    """Pooled rounds create no ``/dev/shm`` entry, and the workers are
    released on close() and at exit."""

    @pytest.mark.parametrize("ending", ["close", "exit"])
    def test_every_task_kind_creates_no_shm_entry(self, tmp_path, ending):
        # The whole round trip, in a fresh interpreter: rounds of every
        # task kind, then close() or an exit WITHOUT close().
        script = EVERY_KIND_ROUNDS + textwrap.dedent(
            f"""
            from pathlib import Path
            before = set(os.listdir("/dev/shm"))
            engine = QueryEngine(objects, workers=2, pool=True)
            pids = every_kind_rounds(engine)
            assert engine.stats.spans_dispatched >= 8
            assert set(os.listdir("/dev/shm")) == before, "a round made one"
            Path({str(tmp_path / "pids")!r}).write_text(
                " ".join(map(str, pids))
            )
            if {ending!r} == "close":
                engine.close()
                import multiprocessing
                assert multiprocessing.active_children() == []
            """
        )
        before = shm_entries()
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert shm_entries() == before
        for pid in map(int, (tmp_path / "pids").read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_unlinks_segments_and_joins_workers(
        self, world, candidates, pf
    ):
        # Nothing to unlink any more: close() joins the workers, and
        # /dev/shm is as it was.
        before = shm_entries()
        engine = pooled_engine(world)
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        engine.close()
        assert shm_entries() == before
        assert_no_orphans()
        # close() is idempotent, and a closed engine refuses queries
        # instead of silently serving them (see tests/test_overload.py
        # for the full lifecycle contract).
        engine.close()
        assert engine.closed
        with pytest.raises(RuntimeError, match="closed"):
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert shm_entries() == before
        assert_no_orphans()

    def test_interpreter_exit_unlinks_segments(self, tmp_path):
        # An engine abandoned without close(): the pool's finalizer must
        # still kill and join the workers when the process exits, and
        # /dev/shm stays as it was.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro import QueryEngine
            from repro.model import Candidate, MovingObject
            from repro.prob import PowerLawPF

            rng = np.random.default_rng(3)
            objects = [
                MovingObject(i, rng.uniform(0, 20, size=(4, 2)))
                for i in range(10)
            ]
            candidates = [
                Candidate(j, float(x), float(y))
                for j, (x, y) in enumerate(rng.uniform(0, 20, size=(8, 2)))
            ]
            engine = QueryEngine(objects, workers=2, pool=True)
            engine.query(candidates, pf=PowerLawPF(), tau=0.7,
                         algorithm="PIN")
            print(*(w.process.pid for w in engine._pool._workers))
            # exit WITHOUT engine.close()
            """
        )
        before = shm_entries()
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert shm_entries() == before
        for pid in map(int, proc.stdout.split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
