"""Fault-injection suite for the supervised serving engine.

The claims under test, matching ``docs/architecture.md``'s failure
semantics, on a two-worker pool engine:

* any single injected worker fault — crash, exception, or delay —
  leaves ``QueryEngine.query()``'s answer bit-identical to fault-free
  serial execution (retry path, and degrade-to-serial once retries are
  exhausted),
* what happened is visible: ``worker_failures``/``retries``/
  ``degraded`` land in the result's ``Instrumentation``, the engine's
  ``EngineStats``, and the per-query JSONL metrics,
* ``deadline_seconds`` is honoured within a small tolerance, raising
  ``DeadlineExceeded`` with every worker killed and joined,
* no orphan worker processes survive any of the above.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.engine import (
    DeadlineExceeded,
    FaultInjector,
    FaultSpec,
    QueryRequest,
    SupervisorPolicy,
)
from repro.engine.pool import fork_available
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects, shm_entries
from .test_engine import assert_same_result

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)

#: fast retry knobs so the suite doesn't sleep through real backoffs
FAST = dict(max_retries=2, backoff_seconds=0.01)


def fast_policy(**overrides) -> SupervisorPolicy:
    return SupervisorPolicy(**{**FAST, **overrides})


def make_engine(objects, faults, **kwargs):
    kwargs.setdefault("supervisor_policy", fast_policy())
    return QueryEngine(
        objects, pool=True, workers=2,
        fault_injector=FaultInjector(faults), **kwargs
    )


def assert_no_orphans():
    """Every worker the engine started must be joined (or reaped) by now."""
    deadline = time.monotonic() + 2.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(42)
    return make_objects(rng, 25, n_range=(1, 10))


@pytest.fixture(scope="module")
def candidates():
    # 16 candidates across 2 workers -> 2 spans of 8 columns each.
    return make_candidates(np.random.default_rng(43), 16)


@pytest.fixture(scope="module")
def serial_answers(world, candidates):
    pf = PowerLawPF(rho=0.9, lam=1.0)
    return {
        algorithm: select_location(
            world, candidates, pf=pf, tau=0.7, algorithm=algorithm
        )
        for algorithm in ("NA", "PIN", "PIN-VO")
    }


class TestFaultSpec:
    def test_parse_forms(self):
        spec = FaultSpec.parse("crash:1")
        assert (spec.kind, spec.worker, spec.query) == ("crash", 1, None)
        spec = FaultSpec.parse("exception:*:0")
        assert (spec.kind, spec.worker, spec.query) == ("exception", None, 0)
        spec = FaultSpec.parse("delay:0:*:0.5")
        assert spec.kind == "delay" and spec.delay_seconds == 0.5
        assert FaultSpec.parse("crash").worker is None

    @pytest.mark.parametrize(
        "text", ["bogus:1", "crash:x", "delay:0:0:fast", "crash:1:2:3:4"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="sigsegv")
        with pytest.raises(ValueError):
            FaultSpec(kind="delay", delay_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", times=0)

    def test_matching_is_keyed_by_worker_query_attempt(self):
        spec = FaultSpec(kind="crash", worker=1, query=2, times=2)
        assert spec.matches(worker=1, query=2, attempt=0)
        assert spec.matches(worker=1, query=2, attempt=1)
        assert not spec.matches(worker=1, query=2, attempt=2)  # times spent
        assert not spec.matches(worker=0, query=2, attempt=0)  # other worker
        assert not spec.matches(worker=1, query=3, attempt=0)  # other query
        wildcard = FaultSpec(kind="delay")
        assert wildcard.matches(worker=7, query=99, attempt=0)


class TestCrashRecovery:
    """A killed pool worker is respawned and its span retried; the
    answer never changes."""

    @pytest.mark.parametrize("algorithm", ["NA", "PIN", "PIN-VO"])
    def test_single_crash_retried_bit_identical(
        self, world, candidates, pf, serial_answers, algorithm
    ):
        with make_engine(
            world, [FaultSpec(kind="crash", worker=1, times=1)]
        ) as engine:
            got = engine.query(
                candidates, pf=pf, tau=0.7, algorithm=algorithm
            )
        assert_same_result(got, serial_answers[algorithm], counters=True)
        assert engine.stats.worker_failures == 1
        assert engine.stats.retries == 1
        assert engine.stats.degraded == 0
        assert got.instrumentation.worker_failures == 1
        assert got.instrumentation.retries == 1
        assert got.instrumentation.degraded == 0
        assert_no_orphans()

    def test_persistent_crash_degrades_to_serial(
        self, world, candidates, pf, serial_answers
    ):
        # times exceeds the retry budget: attempts 0..2 all die, then
        # the missing span runs serially in the parent -- on the cached
        # table for PIN, on the engine's fleet export for NA.
        for algorithm in ("PIN", "NA"):
            with make_engine(
                world, [FaultSpec(kind="crash", worker=0, times=99)]
            ) as engine:
                got = engine.query(
                    candidates, pf=pf, tau=0.7, algorithm=algorithm
                )
            assert_same_result(got, serial_answers[algorithm], counters=True)
            assert engine.stats.worker_failures == 3  # initial + 2 retries
            assert engine.stats.retries == 2
            assert engine.stats.degraded == 1
            assert got.instrumentation.degraded == 1
            assert_no_orphans()

    def test_fault_keyed_to_query_id_spares_other_queries(
        self, world, candidates, pf
    ):
        with make_engine(
            world, [FaultSpec(kind="crash", worker=0, query=1, times=1)]
        ) as engine:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.worker_failures == 0
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.worker_failures == 1
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            assert engine.stats.worker_failures == 1


class TestInjectedException:
    """A poisoned span (raises instead of dying) takes the same path."""

    @pytest.mark.parametrize("algorithm", ["NA", "PIN", "PIN-VO"])
    def test_exception_retried_bit_identical(
        self, world, candidates, pf, serial_answers, algorithm
    ):
        with make_engine(
            world, [FaultSpec(kind="exception", worker=1, times=1)]
        ) as engine:
            got = engine.query(
                candidates, pf=pf, tau=0.7, algorithm=algorithm
            )
        assert_same_result(got, serial_answers[algorithm], counters=True)
        assert engine.stats.worker_failures == 1
        assert engine.stats.retries == 1
        assert_no_orphans()

    def test_exception_reaches_supervisor_events(self, world, candidates, pf):
        with make_engine(
            world, [FaultSpec(kind="exception", worker=0, times=1)]
        ) as engine:
            engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        record = engine.metrics_log[-1]
        assert record["worker_failures"] == 1
        assert record["retries"] == 1
        assert record["degraded"] is False
        assert record["deadline_exceeded"] is False


class TestDelayAndDeadline:
    def test_small_delay_without_deadline_is_harmless(
        self, world, candidates, pf, serial_answers
    ):
        with make_engine(
            world,
            [FaultSpec(kind="delay", worker=0, delay_seconds=0.05, times=1)],
        ) as engine:
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert_same_result(got, serial_answers["PIN"], counters=True)
        assert engine.stats.worker_failures == 0
        assert engine.stats.deadline_exceeded == 0

    def test_delay_past_deadline_raises_within_tolerance(
        self, world, candidates, pf, tmp_path
    ):
        # A lone PIN query stalls in a column span; a round of two cold
        # PIN-VO requests stalls in a whole-query task, so the hard
        # kill lands on a worker that runs a query's validation too.
        batch = [
            QueryRequest(candidates, pf, tau, "PIN-VO") for tau in (0.6, 0.7)
        ]
        for name, requests, run in (
            ("query", 1, lambda engine: engine.query(
                candidates, pf=pf, tau=0.7, algorithm="PIN",
                deadline_seconds=0.5,
            )),
            ("batch", len(batch), lambda engine: engine.query_batch(
                batch, deadline_seconds=0.5
            )),
        ):
            before = shm_entries()
            path = tmp_path / f"{name}.jsonl"
            with make_engine(
                world,
                [FaultSpec(kind="delay", worker=0, delay_seconds=30.0,
                           times=99)],
                metrics_path=path,
            ) as engine:
                started = time.perf_counter()
                with pytest.raises(DeadlineExceeded) as excinfo:
                    run(engine)
                elapsed = time.perf_counter() - started
            # Clean timeout: raised once the budget expired, nowhere
            # near the 30s stall, and the stalled worker was killed.
            assert 0.45 <= elapsed < 5.0, name
            assert excinfo.value.deadline_seconds == 0.5
            assert engine.stats.deadline_exceeded == requests
            assert_no_orphans()
            assert shm_entries() == before
            # Each failed request is still a JSONL record.
            records = [
                json.loads(line) for line in path.read_text().splitlines()
            ]
            assert len(records) == requests
            for record in records:
                assert record["deadline_exceeded"] is True
                assert record["best_candidate"] is None
                assert record["deadline_seconds"] == 0.5
            assert records == engine.metrics_log

    def test_deadline_met_returns_normally(
        self, world, candidates, pf, serial_answers
    ):
        with make_engine(world, []) as engine:
            got = engine.query(
                candidates, pf=pf, tau=0.7, algorithm="PIN",
                deadline_seconds=60.0,
            )
        assert_same_result(got, serial_answers["PIN"], counters=True)
        assert engine.stats.deadline_exceeded == 0
        record = engine.metrics_log[-1]
        assert record["deadline_exceeded"] is False

    def test_serial_path_checks_deadline_cooperatively(
        self, world, candidates, pf
    ):
        engine = QueryEngine(world, workers=0)
        with pytest.raises(DeadlineExceeded):
            engine.query(
                candidates, pf=pf, tau=0.7, algorithm="PIN",
                deadline_seconds=1e-9,
            )
        assert engine.stats.deadline_exceeded == 1

    def test_rejects_non_positive_deadline(self, world, candidates, pf):
        engine = QueryEngine(world)
        with pytest.raises(ValueError):
            engine.query(candidates, pf=pf, tau=0.7, deadline_seconds=0.0)
        with pytest.raises(ValueError):
            engine.query(candidates, pf=pf, tau=0.7, deadline_seconds=-1.0)


class TestAccounting:
    def test_counters_accumulate_across_queries(self, world, candidates, pf):
        with make_engine(
            world, [FaultSpec(kind="crash", worker=1, times=1)]
        ) as engine:
            engine.query(candidates, pf=pf, tau=0.5, algorithm="PIN")
            engine.query(candidates, pf=pf, tau=0.8, algorithm="PIN")
        assert engine.stats.queries == 2
        assert engine.stats.worker_failures == 2
        assert engine.stats.retries == 2
        stats = engine.stats.as_dict()
        for key in ("worker_failures", "retries", "degraded",
                    "deadline_exceeded"):
            assert key in stats

    def test_fault_free_queries_report_zero(self, world, candidates, pf):
        with make_engine(world, []) as engine:
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert got.instrumentation.worker_failures == 0
        assert got.instrumentation.retries == 0
        assert got.instrumentation.degraded == 0
        record = engine.metrics_log[-1]
        assert record["worker_failures"] == 0
        assert record["degraded"] is False


@given(
    n_objects=st.integers(min_value=2, max_value=10),
    n_candidates=st.integers(min_value=4, max_value=10),
    algorithm=st.sampled_from(["NA", "PIN", "PIN-VO"]),
    kind=st.sampled_from(["crash", "exception", "delay"]),
    worker=st.integers(min_value=0, max_value=1),
    times=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_property_any_single_shard_fault_equals_serial(
    n_objects, n_candidates, algorithm, kind, worker, times, seed
):
    """For any injected single-worker fault schedule, the supervised
    engine's answer equals the fault-free serial answer — through the
    retry path (times <= retry budget) and the degrade-to-serial path
    (times beyond it) alike."""
    rng = np.random.default_rng(seed)
    objects = make_objects(rng, n_objects, n_range=(1, 8))
    candidates = make_candidates(rng, n_candidates)
    pf = PowerLawPF()
    want = select_location(
        objects, candidates, pf=pf, tau=0.7, algorithm=algorithm
    )
    with make_engine(
        objects,
        [FaultSpec(
            kind=kind, worker=worker, times=times, delay_seconds=0.01
        )],
    ) as engine:
        got = engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
        assert_same_result(got, want, counters=True)
        # And once more through the warmed caches, fault schedule
        # unchanged.
        assert_same_result(
            engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm),
            want,
            counters=True,
        )
    assert_no_orphans()
