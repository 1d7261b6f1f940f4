"""Dynamic-scenario extensions (§7 future work): throughput benches.

Measures the subscription engine's incremental maintenance against
from-scratch recomputation — the whole point of the §7 extension is
that updates cost far less than a batch re-solve.
"""

import numpy as np
import pytest

from repro.core.pinocchio_vo import PinocchioVO
from repro.engine import SubscriptionEngine
from repro.experiments.datasets import timing_world
from repro.prob import PowerLawPF

from conftest import run_once

PF = PowerLawPF()
TAU = 0.7


@pytest.fixture(scope="module")
def workload():
    world = timing_world("F")
    ds = world.dataset
    rng = np.random.default_rng(11)
    candidates, _ = ds.sample_candidates(200, rng)
    return ds, candidates


def updates_of(obj):
    """A whole object as one ingest batch of its positions."""
    return [(obj.object_id, x, y) for x, y in obj.positions.tolist()]


def test_incremental_object_churn_vs_recompute(benchmark, record, workload):
    ds, candidates = workload
    # the window holds the longest object, so no position is evicted
    window = max(obj.n_positions for obj in ds.objects)
    engine = SubscriptionEngine(window=window, default_pf=PF)
    for obj in ds.objects:
        engine.ingest_batch(updates_of(obj))
    sid = engine.subscribe(candidates, tau=TAU)
    churn = ds.objects[:20]

    def one_churn_cycle():
        for obj in churn:
            engine.forget_object(obj.object_id)
        for obj in churn:
            engine.ingest_batch(updates_of(obj))
        return engine.snapshot(sid).best_influence

    influence = run_once(benchmark, one_churn_cycle)
    batch = PinocchioVO().select(ds.objects, candidates, PF, TAU)
    assert influence == batch.best_influence
    record(
        "dynamic_incremental",
        f"incremental churn of 20 objects maintained influence "
        f"{influence} == batch PIN-VO {batch.best_influence}",
    )


def test_sliding_window_stream_throughput(benchmark, record, workload):
    ds, candidates = workload
    engine = SubscriptionEngine(window=24, default_pf=PF)
    sid = engine.subscribe(candidates, tau=TAU)
    rng = np.random.default_rng(3)
    events = [
        (int(rng.integers(0, 100)), *rng.uniform([0, 0], [39.22, 27.03]))
        for _ in range(2_000)
    ]

    def replay():
        for oid, x, y in events:
            engine.ingest(oid, x, y)
        return engine.snapshot(sid).best_influence

    influence = run_once(benchmark, replay)
    assert 0 <= influence <= 100
    record(
        "dynamic_streaming",
        f"2,000 streamed positions over 100 objects; optimum reaches "
        f"{influence}/100 windowed objects",
    )
