"""Serving-engine benchmarks: warm-vs-cold queries and worker scaling.

Two workloads over one reused fleet Ω (the serving shape the engine
amortises):

* ``test_bench_serve_warm_vs_cold`` — the acceptance benchmark: a
  stream of repeated ``(candidates, PF, τ)`` queries answered cold
  (stateless ``select_location``, fleet materialised per query) and
  warm (primed :class:`~repro.engine.QueryEngine`).  Warm must win.
* ``test_bench_worker_scaling`` — the same stream served serially and
  from the worker pool at several worker counts, confirming the pooled
  path stays bit-identical while reporting its latency.  On
  single-core runners this measures dispatch overhead, not speedup;
  the identity check is the point.
* ``test_bench_fault_recovery`` — the same stream on a 4-worker pool,
  once fault-free and once with worker 1 crashing on every query's
  first dispatch, recording the cost of supervision (detect + respawn
  + backoff) against the no-fault path.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    FaultSpec,
    SupervisorPolicy,
    fork_available,
    run_serve_bench,
)
from repro.experiments.tables import TextTable

from conftest import run_once


def test_bench_serve_warm_vs_cold(benchmark, record):
    result = run_once(
        benchmark, lambda: run_serve_bench(n_queries=9, workers=0)
    )
    record("engine_serve_warm_vs_cold", result.render())
    assert result.speedup() > 1.0, (
        f"warm engine must beat cold select_location, got "
        f"{result.speedup():.2f}x"
    )
    assert result.cache_hits > 0


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_bench_worker_scaling(benchmark, record):
    def sweep():
        return [
            (workers, run_serve_bench(
                n_queries=6, workers=workers, pool=workers >= 2
            ))
            for workers in (0, 2, 4)
        ]

    results = run_once(benchmark, sweep)
    table = TextTable(
        ["workers", "cold ms", "warm ms", "speedup", "cache hits"]
    )
    baseline = results[0][1]
    for workers, result in results:
        # The pool must never change the answer (also asserted, with
        # full influence tables, in tests/test_engine.py).
        assert result.cache_hits == baseline.cache_hits
        assert result.cache_misses == baseline.cache_misses
        table.add_row(
            [
                workers,
                sum(result.cold_ms),
                sum(result.warm_ms),
                result.speedup(),
                result.cache_hits,
            ],
            float_fmt="{:.2f}",
        )
    record(
        "engine_worker_scaling",
        table.render(title="serve-bench worker scaling (PIN-VO)"),
    )


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_bench_fault_recovery(benchmark, record):
    """Supervision overhead with 1 of 4 workers crashing per query."""
    crash = FaultSpec(kind="crash", worker=1, times=1)

    # PIN dispatches every query (PIN-VO's warm queries could serve the
    # pooled pruning phase from the cache and never dispatch), so the
    # crash fires on each measured query, not just the priming pass.
    def sweep():
        clean = run_serve_bench(
            n_queries=6, workers=4, pool=True, algorithm="PIN"
        )
        faulted = run_serve_bench(
            n_queries=6, workers=4, pool=True, algorithm="PIN",
            faults=[crash],
        )
        return clean, faulted

    clean, faulted = run_once(benchmark, sweep)
    # Recovery must be invisible in the answers: the faulted run does
    # the same logical work, so its cache traffic matches exactly.
    assert faulted.cache_hits == clean.cache_hits
    assert faulted.cache_misses == clean.cache_misses
    assert faulted.worker_failures > 0
    assert faulted.retries == faulted.worker_failures
    assert faulted.degraded == 0 and faulted.deadline_exceeded == 0
    assert clean.worker_failures == 0

    clean_ms = sum(clean.warm_ms)
    faulted_ms = sum(faulted.warm_ms)
    backoff = SupervisorPolicy()
    table = TextTable(
        ["scenario", "warm ms", "failures", "retries", "overhead"]
    )
    table.add_row(["no faults", clean_ms, 0, 0, 1.0], float_fmt="{:.2f}")
    table.add_row(
        [
            "crash 1/4 workers",
            faulted_ms,
            faulted.worker_failures,
            faulted.retries,
            faulted_ms / clean_ms if clean_ms else float("inf"),
        ],
        float_fmt="{:.2f}",
    )
    record(
        "engine_fault_recovery",
        table.render(
            title=(
                "serve-bench fault recovery (PIN, 4 workers, "
                f"{backoff.backoff_seconds * 1000:.0f} ms base backoff)"
            )
        ),
    )
