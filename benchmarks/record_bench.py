"""Machine-readable serving-performance trajectory: ``BENCH_4/5.json``.

Runs the five serving scenarios over one Gowalla-like fleet and a
distinct 24-candidate set per query (so warm PIN-VO traffic really
dispatches work instead of replaying the pruning cache):

* **cold** — stateless ``select_location`` per query (fleet
  materialised each time),
* **warm-serial** — one primed :class:`~repro.engine.QueryEngine`,
  ``workers=0``,
* **warm-pool** — the persistent shared-memory worker pool
  (``pool=True, workers=4``),
* **batched** — all queries admitted through one
  ``QueryEngine.query_batch`` round on the pool,
* **overload** — the same workload offered at 4× the admission budget
  (``max_inflight=1``, three of every four arrivals meet a full queue
  via injected ``overload`` phantom load): the excess is shed with
  typed outcomes and the *completed* queries must keep their latency —
  p99 within 2× of the unloaded warm-serial p99.

A sixth scenario measures the *observability tax*: the warm-pool
workload untraced vs fully traced (``trace_path=`` span export plus a
live metrics endpoint), recorded separately as ``BENCH_5.json``.

Writes per-scenario p50/p95/p99 latency and throughput to
``BENCH_4.json`` at the repo root (the machine-readable artifact
downstream tooling tracks across PRs), the human-readable comparison
table to ``results/engine_pool_vs_fork.txt``, the overload summary
to ``results/engine_overload.txt``, and the tracing-overhead summary
to ``results/engine_observability.txt``.  Run it via
``make bench-record`` or::

    PYTHONPATH=src python benchmarks/record_bench.py

The acceptance ratios — batched admission out-throughputing
sequential pool queries, the overload p99 bound with a non-empty shed
count, and traced pool p50 within 1.05× of untraced — are checked
here and reported in the artifacts.

``--ladder`` switches to the object-count scale ladder instead:
10³ → 10⁶ objects at constant spatial density, measuring the blocked
IA/NIB classification scan against the dense all-pairs scan (with a
block-wise bit-identity gate), warm-serial query latency, a pool
worker sweep, and the process's peak RSS per rung — written to
``BENCH_6.json`` + ``results/engine_scale_ladder.txt``.
``--ladder-smoke`` (the ``make bench-ladder`` CI step) runs only the
two small rungs and exits non-zero on any kernel mismatch.

``--approx`` runs the approximate-tier scenario at the 10⁵-object
rung: the workload offered at 4× admission pressure to an
``approx=True`` engine must shed nothing (over-budget arrivals are
answered from the influence sketch), every approximate answer's
measured error must stay within its advertised bound, and the approx
per-query latency must beat warm-serial exact by ≥ 10× — written to
``BENCH_7.json`` + ``results/engine_approx_tier.txt``.

``--streaming`` runs the standing-subscription rung: 10⁵ objects ×
10³ standing queries on one :class:`SubscriptionEngine`, streaming
10⁵ positions per workload — crossing-light (anchor jitter, safe
regions absorb most refreshes) then crossing-heavy (uniform jumps) —
and recording update throughput, safe-region hit rate, recompute
p50/p99, and bit-identity spot checks against one-shot queries.
Acceptance: ≥ 10⁴ positions/sec crossing-light, a hit-rate contrast
between the two workloads, and exact spot checks — written to
``BENCH_9.json`` + ``results/engine_streaming.txt``.
``--streaming-smoke`` (the ``make bench-streaming`` CI step) drives
an update storm at 4× the round budget with a pool crash mid-stream
and asserts every subscription stays bit-identical with /dev/shm
clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.object_table import ObjectTable
from repro.core.pruning import (
    CLASSIFY_CHUNK,
    classify_span,
    classify_table_chunks,
)
from repro.datasets import gowalla_like
from repro.engine import (
    FaultInjector,
    FaultSpec,
    QueryEngine,
    QueryShedError,
    fork_available,
    run_serve_bench,
)
from repro.engine.bench import TAUS
from repro.experiments.tables import TextTable
from repro.model import Candidate, MovingObject
from repro.prob import PowerLawPF

ROOT = Path(__file__).resolve().parent.parent


def latency_stats(latencies_ms, **extra) -> dict:
    """p50/p95/p99/mean/total latency plus throughput for one scenario."""
    arr = np.asarray(latencies_ms, dtype=float)
    total_s = float(arr.sum()) / 1000.0
    return {
        "queries": int(arr.size),
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p95_ms": round(float(np.percentile(arr, 95)), 3),
        "p99_ms": round(float(np.percentile(arr, 99)), 3),
        "mean_ms": round(float(arr.mean()), 3),
        "total_ms": round(float(arr.sum()), 3),
        "throughput_qps": round(arr.size / total_s, 3) if total_s else None,
        **extra,
    }


def run_overload_scenario(
    n_queries: int = 12,
    algorithm: str = "PIN-VO",
    seed: int = 11,
) -> dict:
    """Serve the workload unloaded, then at 4× admission pressure.

    Both passes run the same primed serial engine configuration and
    time every query individually.  The overloaded pass arms admission
    control (``max_inflight=1``) and injects ``overload`` phantom load
    on three of every four measured queries, so arrivals meet a full
    queue 75% of the time — 4× the admission budget in aggregate.
    Shed queries cost near-zero and are excluded from the completed
    latency distribution by construction (they raise
    :class:`QueryShedError`).
    """
    world = gowalla_like(scale=0.1, seed=seed)
    objects = world.dataset.objects
    rng = np.random.default_rng(seed)
    cand_sets = [
        world.dataset.sample_candidates(24, rng)[0]
        for _ in range(n_queries)
    ]
    pf = PowerLawPF()
    taus = [TAUS[i % len(TAUS)] for i in range(n_queries)]

    def timed_pass(engine):
        latencies, shed = [], 0
        for i in range(n_queries):
            started = time.perf_counter()
            try:
                engine.query(
                    cand_sets[i], pf=pf, tau=taus[i], algorithm=algorithm
                )
            except QueryShedError:
                shed += 1
                continue
            latencies.append((time.perf_counter() - started) * 1000.0)
        return latencies, shed

    engine = QueryEngine(objects)
    try:
        for tau in TAUS:  # unmeasured priming pass (query ids 0-2)
            engine.query(cand_sets[0], pf=pf, tau=tau, algorithm=algorithm)
        unloaded, _ = timed_pass(engine)
    finally:
        engine.close()

    # The priming pass consumes query ids 0-2; phantom load hits the
    # measured ids 3.. except every fourth, which completes.
    faults = [
        FaultSpec(kind="overload", query=3 + i, times=1)
        for i in range(n_queries)
        if i % 4 != 0
    ]
    engine = QueryEngine(
        objects,
        max_inflight=1,
        fault_injector=FaultInjector(faults),
    )
    try:
        for tau in TAUS:
            engine.query(cand_sets[0], pf=pf, tau=tau, algorithm=algorithm)
        completed, shed = timed_pass(engine)
        report = engine.admission.report
        return {
            "unloaded": latency_stats(unloaded),
            "completed": latency_stats(completed),
            "offered": n_queries,
            "shed": shed,
            "shed_reasons": sorted({s.reason for s in report.shed}),
            "pressure": "4x",
        }
    finally:
        engine.close()


def run_observability_scenario(
    n_queries: int = 12,
    workers: int = 4,
    algorithm: str = "PIN-VO",
    seed: int = 11,
    rounds: int = 3,
) -> dict:
    """Warm-pool latency untraced vs fully traced: the observability tax.

    Runs the pool scenario ``rounds`` times per arm — untraced, then
    traced with span export to a JSONL file *and* a live metrics
    endpoint — alternating arms so machine drift hits both equally,
    and keeps each arm's best (lowest) p50.  Returns the
    ``BENCH_5.json`` payload; the acceptance ratio is
    ``traced_p50 / untraced_p50 <= 1.05``.
    """
    common = dict(
        n_queries=n_queries,
        workers=workers,
        algorithm=algorithm,
        seed=seed,
        distinct_candidates=True,
        pool=True,
    )
    untraced_runs, traced_runs = [], []
    traces_exported = 0
    with tempfile.TemporaryDirectory(prefix="pinls_bench5_") as tmp:
        for i in range(rounds):
            untraced_runs.append(run_serve_bench(**common))
            traced = run_serve_bench(
                trace_path=str(Path(tmp) / f"traces_{i}.jsonl"),
                metrics_port=0,
                **common,
            )
            traces_exported = traced.traces_exported
            traced_runs.append(traced)

    def best(runs):
        stats = [latency_stats(r.warm_ms) for r in runs]
        return min(stats, key=lambda s: s["p50_ms"])

    untraced, traced = best(untraced_runs), best(traced_runs)
    return {
        "bench": "observability",
        "workload": {
            "n_queries": n_queries,
            "workers": workers,
            "algorithm": algorithm,
            "seed": seed,
            "rounds": rounds,
            "pool": True,
        },
        "scenarios": {"untraced": untraced, "traced": traced},
        "traces_exported_per_run": traces_exported,
        "comparisons": {
            "traced_vs_untraced_p50": round(
                traced["p50_ms"] / untraced["p50_ms"], 3
            ),
        },
    }


def run_scenarios(
    n_queries: int = 12,
    workers: int = 4,
    algorithm: str = "PIN-VO",
    seed: int = 11,
) -> dict:
    """Run all five scenarios; returns the ``BENCH_4.json`` payload."""
    common = dict(
        n_queries=n_queries,
        algorithm=algorithm,
        seed=seed,
        distinct_candidates=True,
    )
    serial = run_serve_bench(workers=0, **common)
    scenarios = {
        "cold": latency_stats(serial.cold_ms),
        "warm-serial": latency_stats(serial.warm_ms),
    }
    if fork_available():
        pool = run_serve_bench(workers=workers, pool=True, **common)
        batch = run_serve_bench(
            workers=workers, pool=True, batch=True, **common
        )
        scenarios["warm-pool"] = latency_stats(
            pool.warm_ms,
            spans_dispatched=pool.spans_dispatched,
            pool_respawns=pool.pool_respawns,
        )
        scenarios["batched"] = latency_stats(
            batch.warm_ms,
            spans_dispatched=batch.spans_dispatched,
            pool_respawns=batch.pool_respawns,
        )
    overload = run_overload_scenario(
        n_queries=n_queries, algorithm=algorithm, seed=seed
    )
    scenarios["overload"] = overload
    comparisons = {}
    if "warm-pool" in scenarios:
        comparisons["batch_vs_pool_throughput"] = round(
            scenarios["batched"]["throughput_qps"]
            / scenarios["warm-pool"]["throughput_qps"],
            3,
        )
    comparisons["overload_p99_vs_unloaded"] = round(
        overload["completed"]["p99_ms"] / overload["unloaded"]["p99_ms"],
        3,
    )
    return {
        "bench": "serving",
        "workload": {
            "n_queries": n_queries,
            "workers": workers,
            "algorithm": algorithm,
            "seed": seed,
            "n_objects": serial.n_objects,
            "n_candidates": serial.n_candidates,
            "distinct_candidates": True,
        },
        "scenarios": scenarios,
        "comparisons": comparisons,
    }


# ----------------------------------------------------------------------
# Scale ladder (BENCH_6.json)
# ----------------------------------------------------------------------

LADDER_SEED = 17
LADDER_ALGORITHM = "PIN-VO"
LADDER_TAU = 0.7

#: ``(n_objects, n_candidates, n_queries)`` per rung.  The spatial
#: extent grows with sqrt(n_objects) so object density — and with it
#: per-candidate band sizes — stays roughly constant up the ladder;
#: what changes is the sheer number of object-candidate pairs.
LADDER_RUNGS = [
    (1_000, 100, 8),
    (10_000, 100, 6),
    (100_000, 1_000, 4),
    (1_000_000, 100, 3),
]

#: CI smoke: the two cheap rungs, few queries, capped wall time.
SMOKE_RUNGS = [
    (1_000, 64, 3),
    (10_000, 64, 3),
]

LADDER_WORKERS = (2, 4)


def ladder_extent(n_objects: int) -> float:
    return 30.0 * math.sqrt(n_objects / 1_000.0)


def make_ladder_fleet(n_objects: int, seed: int) -> list[MovingObject]:
    """Deterministic synthetic fleet for one ladder rung.

    All positions are drawn in one vectorised pass (a per-object
    Python-loop draw would dominate the 10^6 rung) and wrapped into
    :class:`MovingObject` instances afterwards — 4–16 positions per
    object, clustered around a uniform anchor.
    """
    extent = ladder_extent(n_objects)
    rng = np.random.default_rng(seed)
    counts = rng.integers(4, 17, size=n_objects)
    offsets = np.zeros(n_objects + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    positions = np.repeat(anchors, counts, axis=0) + rng.normal(
        0.0, 1.5, size=(int(offsets[-1]), 2)
    )
    return [
        MovingObject(i, positions[offsets[i] : offsets[i + 1]])
        for i in range(n_objects)
    ]


def make_ladder_candidates(
    rng: np.random.Generator, extent: float, m: int, n_sets: int
) -> list[list[Candidate]]:
    """``n_sets`` distinct candidate sets (so pruning caches miss)."""
    return [
        [
            Candidate(j, float(x), float(y))
            for j, (x, y) in enumerate(
                rng.uniform(0.0, extent, size=(m, 2))
            )
        ]
        for _ in range(n_sets)
    ]


def classification_microbench(
    table: ObjectTable,
    cand_xy: np.ndarray,
    reps: int = 3,
) -> dict:
    """Blocked vs dense full-table classification, per query.

    The blocked pass is the hot path, :func:`classify_table_chunks`:
    STR chunks, each classified only against the candidates inside its
    NIB box.  The dense pass is :func:`classify_span` over every
    object x candidate pair, in ``CLASSIFY_CHUNK`` row slices.  Before
    timing, every block is scattered back into its rows' dense
    ``(rows, m)`` matrices and checked bit for bit against dense
    ``classify_span`` on those rows, and every row must be covered
    exactly once.
    """
    mbrs, radii = table.mbr_radius_arrays()
    count, m = mbrs.shape[0], cand_xy.shape[0]
    covered = np.zeros(count, dtype=int)
    identical = True
    for rows, cols, ia, band in classify_table_chunks(table, cand_xy):
        covered[rows] += 1
        dense_ia, dense_band = classify_span(mbrs[rows], radii[rows], cand_xy)
        got_ia = np.zeros((rows.size, m), dtype=bool)
        got_band = np.zeros((rows.size, m), dtype=bool)
        got_ia[:, cols] = ia
        got_band[:, cols] = band
        if not (
            np.array_equal(got_ia, dense_ia)
            and np.array_equal(got_band, dense_band)
        ):
            identical = False
    identical = identical and bool(np.all(covered == 1))

    def blocked_pass():
        pairs = 0
        for _, _, ia, band in classify_table_chunks(table, cand_xy):
            pairs += int(np.count_nonzero(ia)) + int(np.count_nonzero(band))
        return pairs

    def dense_pass():
        pairs = 0
        for start in range(0, count, CLASSIFY_CHUNK):
            stop = start + CLASSIFY_CHUNK
            ia, band = classify_span(
                mbrs[start:stop], radii[start:stop], cand_xy
            )
            pairs += int(np.count_nonzero(ia)) + int(np.count_nonzero(band))
        return pairs

    def best_of(fn):
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    blocked_s = best_of(blocked_pass)
    dense_s = best_of(dense_pass)
    pairs = count * m
    return {
        "bit_identical": identical,
        "blocked_ms_per_query": round(blocked_s * 1000.0, 3),
        "dense_ms_per_query": round(dense_s * 1000.0, 3),
        "speedup": round(dense_s / blocked_s, 2) if blocked_s else None,
        "pairs_per_second_blocked": (
            round(pairs / blocked_s) if blocked_s else None
        ),
    }


def timed_query_pass(engine, cand_sets, pf, tau, algorithm) -> list[float]:
    latencies = []
    for cands in cand_sets:
        started = time.perf_counter()
        engine.query(cands, pf=pf, tau=tau, algorithm=algorithm)
        latencies.append((time.perf_counter() - started) * 1000.0)
    return latencies


def peak_rss_mb() -> float:
    """The process's lifetime peak resident set size, in MiB.

    ``ru_maxrss`` is kilobytes on Linux; the value is monotone over the
    process lifetime, so per-rung readings show which rung first pushed
    the high-water mark up.
    """
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )


def run_ladder_rung(
    n_objects: int,
    n_candidates: int,
    n_queries: int,
    seed: int = LADDER_SEED,
    workers_sweep: tuple[int, ...] = LADDER_WORKERS,
    algorithm: str = LADDER_ALGORITHM,
) -> dict:
    """One rung: fleet build, kernel microbench, serial + pool sweep."""
    extent = ladder_extent(n_objects)
    pf = PowerLawPF()
    started = time.perf_counter()
    objects = make_ladder_fleet(n_objects, seed)
    fleet_s = time.perf_counter() - started

    rng = np.random.default_rng(seed + 1)
    prime_set = make_ladder_candidates(rng, extent, n_candidates, 1)[0]
    cand_sets = make_ladder_candidates(rng, extent, n_candidates, n_queries)

    started = time.perf_counter()
    table = ObjectTable(objects, pf, LADDER_TAU)
    table_build_s = time.perf_counter() - started
    cand_xy = np.array([(c.x, c.y) for c in prime_set])
    micro = classification_microbench(
        table, cand_xy, reps=3 if n_objects <= 100_000 else 2
    )

    scenarios = {}
    engine = QueryEngine(objects)
    try:
        engine.query(prime_set, pf=pf, tau=LADDER_TAU, algorithm=algorithm)
        scenarios["warm-serial"] = latency_stats(
            timed_query_pass(engine, cand_sets, pf, LADDER_TAU, algorithm)
        )
    finally:
        engine.close()

    if fork_available():
        for w in workers_sweep:
            engine = QueryEngine(objects, pool=True, workers=w)
            try:
                engine.query(
                    prime_set, pf=pf, tau=LADDER_TAU, algorithm=algorithm
                )
                scenarios[f"pool-w{w}"] = latency_stats(
                    timed_query_pass(
                        engine, cand_sets, pf, LADDER_TAU, algorithm
                    )
                )
            finally:
                engine.close()

    pool_p50s = {
        name: s["p50_ms"]
        for name, s in scenarios.items()
        if name.startswith("pool-")
    }
    comparisons = {}
    if pool_p50s:
        best_pool = min(pool_p50s, key=pool_p50s.get)
        comparisons["best_pool"] = best_pool
        comparisons["pool_vs_serial_p50"] = round(
            scenarios["warm-serial"]["p50_ms"] / pool_p50s[best_pool], 3
        )
    return {
        "n_objects": n_objects,
        "n_candidates": n_candidates,
        "n_queries": n_queries,
        "n_positions_total": int(
            sum(o.n_positions for o in objects)
        ),
        "extent_km": round(extent, 1),
        "fleet_build_s": round(fleet_s, 3),
        "table_build_s": round(table_build_s, 3),
        "peak_rss_mb": peak_rss_mb(),
        "classification": micro,
        "scenarios": scenarios,
        "comparisons": comparisons,
    }


def run_scale_ladder(
    rungs=None,
    seed: int = LADDER_SEED,
    workers_sweep: tuple[int, ...] = LADDER_WORKERS,
    algorithm: str = LADDER_ALGORITHM,
) -> dict:
    """The full ladder; returns the ``BENCH_6.json`` payload."""
    if rungs is None:
        rungs = LADDER_RUNGS
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    results = []
    for n_objects, n_candidates, n_queries in rungs:
        print(
            f"ladder rung: {n_objects} objects x {n_candidates} "
            f"candidates, {n_queries} queries...",
            flush=True,
        )
        results.append(
            run_ladder_rung(
                n_objects, n_candidates, n_queries,
                seed=seed, workers_sweep=workers_sweep,
                algorithm=algorithm,
            )
        )
    top = results[-1]
    identical = all(r["classification"]["bit_identical"] for r in results)
    headline = {
        "top_rung_objects": top["n_objects"],
        "blocked_vs_dense_classification": top["classification"][
            "speedup"
        ],
        "pool_vs_serial_p50": top["comparisons"].get("pool_vs_serial_p50"),
    }
    ratio = headline["pool_vs_serial_p50"]
    return {
        "bench": "scale-ladder",
        "algorithm": algorithm,
        "tau": LADDER_TAU,
        "seed": seed,
        "cpus": cpus,
        "workers_sweep": list(workers_sweep),
        "rungs": results,
        "headline": headline,
        "targets": {
            "pool_vs_serial_p50_target": 2.0,
            "pool_vs_serial_p50_met": (
                ratio is not None and ratio >= 2.0
            ),
            "bit_identical": identical,
            "note": (
                "the >=2x pool target assumes multiple CPU cores; this "
                f"host exposes {cpus} (pool gains come from keeping the "
                "shared columnar table resident, not from parallelism, "
                "so the measured ratio is reported as-is)"
            ),
        },
    }


def render_ladder(payload: dict) -> str:
    """The ladder table archived to ``results/engine_scale_ladder.txt``."""
    table = TextTable(
        [
            "objects", "cands", "blocked ms", "dense ms", "kernel x",
            "serial p50", "pool p50", "pool x", "peak rss MB",
        ]
    )
    for r in payload["rungs"]:
        micro = r["classification"]
        best = r["comparisons"].get("best_pool")
        pool_p50 = r["scenarios"][best]["p50_ms"] if best else None
        table.add_row(
            [
                r["n_objects"], r["n_candidates"],
                micro["blocked_ms_per_query"],
                micro["dense_ms_per_query"],
                micro["speedup"],
                r["scenarios"]["warm-serial"]["p50_ms"],
                pool_p50,
                r["comparisons"].get("pool_vs_serial_p50"),
                r.get("peak_rss_mb"),
            ],
            float_fmt="{:.2f}",
        )
    t = payload["targets"]
    lines = [
        table.render(
            title=(
                f"scale ladder: {payload['algorithm']}, tau="
                f"{payload['tau']}, cpus={payload['cpus']}, workers swept "
                f"over {payload['workers_sweep']}"
            )
        ),
        (
            "blocked and dense classification bit-identical on every "
            f"rung: {t['bit_identical']}"
        ),
        (
            f"top-rung pool vs warm-serial p50: "
            f"{payload['headline']['pool_vs_serial_p50']}x "
            f"(target {t['pool_vs_serial_p50_target']}x, met: "
            f"{t['pool_vs_serial_p50_met']})"
        ),
        f"note: {t['note']}",
    ]
    return "\n".join(lines)


def main_ladder(args) -> int:
    """Run the scale ladder (full or CI smoke) and write artifacts."""
    if args.ladder_smoke:
        payload = run_scale_ladder(
            rungs=SMOKE_RUNGS, workers_sweep=(2,)
        )
        print(render_ladder(payload))
        if not payload["targets"]["bit_identical"]:
            print(
                "blocked/dense classification mismatch on the smoke rungs",
                file=sys.stderr,
            )
            return 1
        return 0
    payload = run_scale_ladder()
    text = render_ladder(payload)
    print(text)
    Path(args.out_ladder).write_text(json.dumps(payload, indent=2) + "\n")
    results_dir = ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_scale_ladder.txt").write_text(text + "\n")
    print(f"\nJSON written to {args.out_ladder}")
    print(
        f"ladder table archived to "
        f"{results_dir / 'engine_scale_ladder.txt'}"
    )
    return 0 if payload["targets"]["bit_identical"] else 1


# ----------------------------------------------------------------------
# Approximate tier (BENCH_7.json)
# ----------------------------------------------------------------------

APPROX_N_OBJECTS = 100_000
APPROX_N_CANDIDATES = 1_000
APPROX_N_QUERIES = 8


def run_approx_scenario(
    n_objects: int = APPROX_N_OBJECTS,
    n_candidates: int = APPROX_N_CANDIDATES,
    n_queries: int = APPROX_N_QUERIES,
    seed: int = LADDER_SEED,
) -> dict:
    """The approximate tier under 4× admission pressure at the 10⁵ rung.

    Two passes over the same fleet and distinct candidate sets, both
    with the full-influence-table ``PIN`` algorithm (so every query
    reports per-candidate influence, giving the error check its ground
    truth for free):

    * **exact** — a plain warm engine; its per-query latency is the
      warm-serial baseline and its influence tables are the exact
      reference,
    * **approx** — an ``approx=True`` engine with ``max_inflight=1``
      and injected ``overload`` phantom load on three of every four
      queries (4× the admission budget in aggregate): the overloaded
      arrivals must be answered from the sketch instead of shed.

    Acceptance: zero sheds, every approximate answer's measured error
    within its advertised bound, and approx p50 ≥ 10× below the exact
    warm-serial p50.
    """
    algorithm = "PIN"
    tau = LADDER_TAU
    pf = PowerLawPF()
    objects = make_ladder_fleet(n_objects, seed)
    extent = ladder_extent(n_objects)
    rng = np.random.default_rng(seed + 1)
    prime_set = make_ladder_candidates(rng, extent, n_candidates, 1)[0]
    cand_sets = make_ladder_candidates(
        rng, extent, n_candidates, n_queries
    )

    exact_latencies, exact_tables = [], []
    engine = QueryEngine(objects)
    try:
        engine.query(prime_set, pf=pf, tau=tau, algorithm=algorithm)
        for cands in cand_sets:
            started = time.perf_counter()
            res = engine.query(cands, pf=pf, tau=tau, algorithm=algorithm)
            exact_latencies.append(
                (time.perf_counter() - started) * 1000.0
            )
            exact_tables.append(res.influences)
    finally:
        engine.close()

    # The priming query consumes id 0; phantom overload hits the
    # measured ids 1.. except every fourth, which runs exact.
    faults = [
        FaultSpec(kind="overload", query=1 + i, times=1)
        for i in range(n_queries)
        if i % 4 != 0
    ]
    approx_latencies, exact_tier_latencies = [], []
    errors, bounds, sketch_builds = [], [], 0
    shed = 0
    engine = QueryEngine(
        objects,
        approx=True,
        max_inflight=1,
        fault_injector=FaultInjector(faults),
    )
    try:
        engine.query(prime_set, pf=pf, tau=tau, algorithm=algorithm)
        for i, cands in enumerate(cand_sets):
            started = time.perf_counter()
            try:
                res = engine.query(
                    cands, pf=pf, tau=tau, algorithm=algorithm
                )
            except QueryShedError:
                shed += 1
                continue
            latency = (time.perf_counter() - started) * 1000.0
            record = engine.metrics_log[-1]
            if record["tier"] == "approx":
                approx_latencies.append(latency)
                err = max(
                    abs(res.influences[j] - exact_tables[i][j])
                    for j in range(n_candidates)
                )
                errors.append(int(err))
                bounds.append(float(res.error_bound))
            else:
                exact_tier_latencies.append(latency)
        shed += engine.stats.queries_shed
        sketch_builds = engine.stats.sketch_misses
        k = engine.approx_k
        delta = engine.approx_delta
    finally:
        engine.close()

    exact = latency_stats(exact_latencies)
    approx = latency_stats(approx_latencies)
    speedup = (
        round(exact["p50_ms"] / approx["p50_ms"], 1)
        if approx["p50_ms"] else None
    )
    within = [e <= b for e, b in zip(errors, bounds)]
    return {
        "bench": "approx-tier",
        "workload": {
            "n_objects": n_objects,
            "n_candidates": n_candidates,
            "n_queries": n_queries,
            "algorithm": algorithm,
            "tau": tau,
            "seed": seed,
            "sketch_k": k,
            "sketch_delta": delta,
            "pressure": "4x",
        },
        "scenarios": {
            "warm-serial-exact": exact,
            "approx": approx,
        },
        "approx": {
            "offered": n_queries,
            "answered_approx": len(approx_latencies),
            "answered_exact": len(exact_tier_latencies),
            "shed": shed,
            "sketch_builds": sketch_builds,
            "max_error": max(errors) if errors else None,
            "mean_error": (
                round(float(np.mean(errors)), 1) if errors else None
            ),
            "advertised_bound": round(max(bounds), 1) if bounds else None,
            "errors_within_bound": all(within) if within else None,
        },
        "comparisons": {
            "approx_vs_exact_p50": speedup,
        },
        "targets": {
            "zero_sheds": shed == 0,
            "errors_within_bound": bool(within) and all(within),
            "speedup_target": 10.0,
            "speedup_met": speedup is not None and speedup >= 10.0,
        },
    }


def render_approx(payload: dict) -> str:
    """The approx summary archived to ``results/engine_approx_tier.txt``."""
    s = payload["scenarios"]
    a = payload["approx"]
    w = payload["workload"]
    t = payload["targets"]
    table = TextTable(["pass", "queries", "p50 ms", "p95 ms", "mean ms"])
    for name in ("warm-serial-exact", "approx"):
        table.add_row(
            [name, s[name]["queries"], s[name]["p50_ms"],
             s[name]["p95_ms"], s[name]["mean_ms"]],
            float_fmt="{:.2f}",
        )
    return "\n".join([
        table.render(
            title=(
                f"approx tier: {w['n_objects']} objects x "
                f"{w['n_candidates']} candidates, {w['algorithm']}, "
                f"k={w['sketch_k']}, {w['pressure']} admission pressure"
            )
        ),
        (
            f"pressure: {a['offered']} offered, "
            f"{a['answered_approx']} answered approximately, "
            f"{a['answered_exact']} exactly, {a['shed']} shed "
            f"(target 0: {t['zero_sheds']})"
        ),
        (
            f"accuracy: max measured error {a['max_error']} objects "
            f"(mean {a['mean_error']}) vs advertised bound "
            f"{a['advertised_bound']} — within bound on every answer: "
            f"{t['errors_within_bound']}"
        ),
        (
            f"latency: approx p50 "
            f"{payload['comparisons']['approx_vs_exact_p50']}x below "
            f"warm-serial exact (target >= {t['speedup_target']}x, met: "
            f"{t['speedup_met']})"
        ),
    ])


def main_approx(args) -> int:
    """Run the approximate-tier scenario and write its artifacts."""
    payload = run_approx_scenario()
    text = render_approx(payload)
    print(text)
    Path(args.out_approx).write_text(json.dumps(payload, indent=2) + "\n")
    results_dir = ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_approx_tier.txt").write_text(text + "\n")
    print(f"\nJSON written to {args.out_approx}")
    print(
        f"approx summary archived to "
        f"{results_dir / 'engine_approx_tier.txt'}"
    )
    t = payload["targets"]
    ok = t["zero_sheds"] and t["errors_within_bound"] and t["speedup_met"]
    if not ok:
        print("approx-tier acceptance missed", file=sys.stderr)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# HTTP front end (BENCH_8.json)
# ----------------------------------------------------------------------

def run_http_scenario(
    duration: float = 6.0,
    multipliers: tuple = (1, 2, 4),
    max_inflight: int = 2,
    seed: int = 11,
    scale: float = 0.2,
    n_candidates: int = 48,
    victim_qps: float = 4.0,
    approx_k: int = 16,
) -> dict:
    """Overload curves through the HTTP front end; the BENCH_8 payload.

    Two tenants share one engine behind the front end: ``victim``
    offers a light fixed rate, ``bulk`` sweeps its offered rate across
    multiples of the *sustainable* rate.  Open-loop Poisson arrivals
    per tenant.  Run once on an exact engine (over-budget bulk
    requests are shed with 429) and once with the approximate floor
    armed (over-budget bulk requests are answered from a small
    influence sketch instead — zero sheds).

    On a single-core host the engine serializes on the GIL, so the
    sustainable rate is one query's worth of CPU per second
    (``1 / service_time``) no matter how many budget slots a tenant
    holds, and a victim sharing the core with *any* admitted bulk work
    necessarily runs slower than it does solo.  What admission control
    guarantees — and what the targets check — is that bulk's *offered*
    rate stops mattering once its budget saturates: the victim's p99
    at 4x the sustainable rate stays within 1.2x of its p99 at 1x
    (the loaded-but-not-overloaded baseline), the victim is never
    shed, and only the overloading tenant is shed (exact engine) or
    approx-answered (approx floor).  The solo-victim p99 is recorded
    alongside for reference.
    """
    from repro.engine import (
        TenantAdmission,
        TenantBudget,
        TenantLoad,
        build_serving_engine,
        run_load_sync,
    )
    from repro.engine.server import BackgroundServer

    payload = {
        "schema": 2,
        "scenario": "http-front-end",
        "duration_seconds": duration,
        "max_inflight": max_inflight,
        "scale": scale,
        "n_candidates": n_candidates,
        "approx_k": approx_k,
        "modes": {},
    }
    for mode in ("exact", "approx"):
        engine, sample_candidates = build_serving_engine(
            scale=scale,
            seed=7,
            approx=(mode == "approx"),
            approx_k=(approx_k if mode == "approx" else None),
        )
        candidates = sample_candidates(n_candidates, seed)
        coords = [[float(c.x), float(c.y)] for c in candidates]
        body = {"candidates": coords, "tau": 0.7}

        engine.query(candidates, tau=0.7)  # warm the (pf, tau) caches
        if mode == "approx":
            engine.query_approx(candidates, tau=0.7)  # warm the sketch
        started = time.perf_counter()
        reps = 5
        for _ in range(reps):
            engine.query(candidates, tau=0.7)
        service_s = (time.perf_counter() - started) / reps
        # single-core capacity: one query's worth of CPU per second
        sustainable_qps = 1.0 / service_s

        # bulk sheds the moment its slots fill; the victim rides out
        # scheduling jitter in a short queue instead of shedding
        tenants = TenantAdmission(
            default=TenantBudget(
                max_inflight=max_inflight, max_queue_depth=0
            ),
            budgets={
                "victim": TenantBudget(
                    max_inflight=max_inflight,
                    max_queue_depth=3 * max_inflight,
                )
            },
        )
        server = BackgroundServer(
            engine, tenants=tenants, engine_threads=8
        )
        try:
            base = run_load_sync(
                [TenantLoad("victim", victim_qps, body)],
                host="127.0.0.1",
                port=server.port,
                duration=duration,
                seed=seed,
            )
            solo = base.tenants["victim"].to_dict()
            rungs = []
            for mult in multipliers:
                report = run_load_sync(
                    [
                        TenantLoad("bulk", mult * sustainable_qps, body),
                        TenantLoad("victim", victim_qps, body),
                    ],
                    host="127.0.0.1",
                    port=server.port,
                    duration=duration,
                    seed=seed + mult,
                )
                rungs.append({
                    "offered_multiple": mult,
                    "bulk_offered_qps": round(mult * sustainable_qps, 2),
                    "bulk": report.tenants["bulk"].to_dict(),
                    "victim": report.tenants["victim"].to_dict(),
                })
        finally:
            drain = server.stop()
        payload["modes"][mode] = {
            "service_ms": round(service_s * 1000.0, 3),
            "sustainable_qps": round(sustainable_qps, 2),
            "victim_qps": round(victim_qps, 2),
            "solo_victim": solo,
            "rungs": rungs,
            "drain": {
                name: {
                    k: snap[k] for k in ("offered", "admitted", "shed")
                }
                for name, snap in drain["tenants"].items()
            },
        }

    exact = payload["modes"]["exact"]
    approx = payload["modes"]["approx"]
    top_exact = exact["rungs"][-1]
    top_approx = approx["rungs"][-1]
    base_p99 = exact["rungs"][0]["victim"]["p99_ms"]
    loaded_p99 = top_exact["victim"]["p99_ms"]
    solo_p99 = exact["solo_victim"]["p99_ms"]
    payload["targets"] = {
        # overload beyond the budget must not hurt the victim further:
        # p99 at 4x sustainable vs the 1x (loaded) baseline
        "victim_p99_ratio": (
            round(loaded_p99 / base_p99, 3) if base_p99 else None
        ),
        "victim_p99_bounded": bool(
            base_p99 and loaded_p99 <= 1.2 * base_p99
        ),
        # reference only: single-core GIL sharing makes some solo ->
        # loaded inflation unavoidable; not a pass/fail target
        "victim_p99_vs_solo": (
            round(loaded_p99 / solo_p99, 3) if solo_p99 else None
        ),
        # isolation: only the overloading tenant is ever shed
        "victim_never_shed": all(
            r["victim"]["shed"] == 0
            for r in exact["rungs"] + approx["rungs"]
        ),
        "bulk_shed_under_overload": top_exact["bulk"]["shed"] > 0,
        # the approx floor absorbs the same overload with zero sheds
        "approx_zero_sheds": all(
            r["bulk"]["shed"] == 0 and r["victim"]["shed"] == 0
            for r in approx["rungs"]
        ),
        "approx_absorbed": top_approx["bulk"]["approx"] > 0,
    }
    return payload


def render_http(payload: dict) -> str:
    """The front-end summary for ``results/engine_http_frontend.txt``."""
    lines = [
        "HTTP front end: per-tenant isolation under open-loop overload",
        f"(duration {payload['duration_seconds']}s per rung, per-tenant "
        f"max_inflight {payload['max_inflight']}; bulk queue depth 0, "
        "victim queue depth 6, policy reject; single-core host, so "
        "sustainable = 1/service and the 1x rung is the loaded "
        "baseline)",
        "",
    ]
    for mode, data in payload["modes"].items():
        lines.append(
            f"[{mode}] service {data['service_ms']}ms -> sustainable "
            f"{data['sustainable_qps']} qps; victim offers "
            f"{data['victim_qps']} qps (solo p99 "
            f"{data['solo_victim']['p99_ms']}ms)"
        )
        table = TextTable([
            "x-sustainable", "bulk qps", "bulk shed", "bulk approx",
            "bulk p99 ms", "victim p99 ms", "victim shed",
        ])
        for rung in data["rungs"]:
            bulk, victim = rung["bulk"], rung["victim"]
            table.add_row([
                rung["offered_multiple"],
                rung["bulk_offered_qps"],
                f"{bulk['shed']}/{bulk['sent']}",
                bulk["approx"],
                bulk["p99_ms"],
                victim["p99_ms"],
                victim["shed"],
            ])
        lines.append(table.render())
        lines.append("")
    t = payload["targets"]
    lines.append(
        f"victim p99 at 4x vs 1x sustainable: {t['victim_p99_ratio']}x "
        f"(target <= 1.2x: {'MET' if t['victim_p99_bounded'] else 'MISSED'}; "
        f"vs solo, for reference: {t['victim_p99_vs_solo']}x)"
    )
    lines.append(
        "victim never shed: "
        + ("MET" if t["victim_never_shed"] else "MISSED")
    )
    lines.append(
        "bulk shed under exact overload: "
        + ("MET" if t["bulk_shed_under_overload"] else "MISSED")
    )
    lines.append(
        "approx floor absorbs overload with zero sheds: "
        + ("MET" if t["approx_zero_sheds"] and t["approx_absorbed"]
           else "MISSED")
    )
    return "\n".join(lines)


def main_http(args) -> int:
    """Run the HTTP front-end scenario and write its artifacts."""
    payload = run_http_scenario()
    text = render_http(payload)
    print(text)
    Path(args.out_http).write_text(json.dumps(payload, indent=2) + "\n")
    results_dir = ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_http_frontend.txt").write_text(text + "\n")
    print(f"\nJSON written to {args.out_http}")
    print(
        f"front-end summary archived to "
        f"{results_dir / 'engine_http_frontend.txt'}"
    )
    t = payload["targets"]
    ok = (
        t["victim_p99_bounded"]
        and t["victim_never_shed"]
        and t["bulk_shed_under_overload"]
        and t["approx_zero_sheds"]
        and t["approx_absorbed"]
    )
    if not ok:
        print("http front-end acceptance missed", file=sys.stderr)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Streaming subscriptions (BENCH_9.json)
# ----------------------------------------------------------------------

STREAMING_SEED = 23
STREAMING_TAU = 0.7
#: the standing queries are spread across a tau portfolio — one
#: maintenance group per tau, like a real mix of subscribers with
#: different confidence requirements
STREAMING_TAUS = (0.6, 0.7, 0.8, 0.9)
STREAMING_WINDOW = 8
#: per-update positional jitter of the crossing-light workload
STREAMING_JITTER = 0.04
#: per-update jitter of the crossing-heavy workload: large enough to
#: deform nearly every window past its slack, small enough that the
#: windows stay compact (teleporting objects would make every window
#: span the whole extent and measure validation cost, not crossings)
STREAMING_HEAVY_JITTER = 2.0
#: candidates per standing query
STREAMING_CANDS_PER_SUB = 4
#: positions streamed per measured phase
STREAMING_PHASE_POSITIONS = 100_000
STREAMING_BATCH = 2_000
#: subscriptions spot-checked bit-identically against a one-shot query
STREAMING_SPOT_CHECKS = 3


def build_streaming_engine(
    n_objects: int,
    n_subs: int,
    seed: int,
    pf,
    records_path=None,
    **engine_kwargs,
):
    """Seed a fleet, then register the standing queries.

    Returns ``(engine, anchors, sub_cands, extent)``.  Objects are
    seeded *before* any subscription exists — seeding is then pure
    window bookkeeping (no groups to refresh), exactly how a serving
    deployment would warm up.  Every window is seeded *full* (count
    changes alter ``minMaxRadius``, which deforms past any slack) and
    with the same jitter scale the crossing-light workload streams, so
    the reference states scored at subscribe time are representative.
    """
    from repro.engine.subscriptions import SubscriptionEngine

    extent = ladder_extent(n_objects)
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    eng = SubscriptionEngine(
        window=STREAMING_WINDOW,
        default_pf=pf,
        metrics_path=records_path,
        max_records=250_000,
        **engine_kwargs,
    )
    for _ in range(STREAMING_WINDOW):
        jitter = rng.normal(0.0, STREAMING_JITTER, size=(n_objects, 2))
        seed_xy = anchors + jitter
        for lo in range(0, n_objects, 50_000):
            hi = min(lo + 50_000, n_objects)
            eng.ingest_batch(
                (oid, float(seed_xy[oid, 0]), float(seed_xy[oid, 1]))
                for oid in range(lo, hi)
            )
    subs = []
    for i in range(n_subs):
        cands = [
            (float(x), float(y))
            for x, y in rng.uniform(
                0.0, extent, size=(STREAMING_CANDS_PER_SUB, 2)
            )
        ]
        tau = STREAMING_TAUS[i % len(STREAMING_TAUS)]
        eng.subscribe(cands, tau=tau)
        subs.append((cands, tau))
    return eng, anchors, subs, extent


def run_streaming_phase(
    eng, anchors, extent, rng, positions: int, sigma: float | None
) -> dict:
    """Stream ``positions`` updates; returns the phase's measurements.

    ``sigma`` is the per-update jitter around each object's anchor —
    small keeps deformations inside the safe regions (crossing-light),
    large deforms nearly every window past its slack (crossing-heavy).
    ``None`` draws positions uniformly over the extent instead.
    """
    n_objects = anchors.shape[0]
    before = len(eng.records)
    hits = crossings = validations = applied = 0
    elapsed = 0.0
    for lo in range(0, positions, STREAMING_BATCH):
        count = min(STREAMING_BATCH, positions - lo)
        oids = rng.integers(0, n_objects, size=count)
        if sigma is None:
            xy = rng.uniform(0.0, extent, size=(count, 2))
        else:
            xy = anchors[oids] + rng.normal(0.0, sigma, size=(count, 2))
        batch = [
            (int(oids[i]), float(xy[i, 0]), float(xy[i, 1]))
            for i in range(count)
        ]
        t0 = time.perf_counter()
        report = eng.ingest_batch(batch)
        elapsed += time.perf_counter() - t0
        hits += report.safe_region_hits
        crossings += report.crossings
        validations += report.validations
        applied += report.applied
    recompute_ms = [
        r["elapsed_seconds"] * 1000.0
        for r in eng.records[before:]
        if r["kind"] == "recompute"
    ]
    refreshes = hits + crossings
    return {
        "positions": applied,
        "elapsed_s": round(elapsed, 3),
        "positions_per_sec": round(applied / elapsed, 1) if elapsed else None,
        "safe_region_hits": hits,
        "crossings": crossings,
        "validations": validations,
        "safe_region_hit_rate": (
            round(hits / refreshes, 4) if refreshes else None
        ),
        "recompute_p50_ms": (
            round(float(np.percentile(recompute_ms, 50)), 4)
            if recompute_ms else None
        ),
        "recompute_p99_ms": (
            round(float(np.percentile(recompute_ms, 99)), 4)
            if recompute_ms else None
        ),
    }


def check_streaming_identity(eng, subs, rng, checks: int) -> bool:
    """Spot-check maintained snapshots against fresh one-shot queries."""
    sub_ids = eng.subscriptions()
    picks = rng.choice(len(sub_ids), size=min(checks, len(sub_ids)),
                       replace=False)
    fleet = eng.fleet()
    oracle = QueryEngine(fleet, workers=1, default_pf=eng.default_pf)
    ok = True
    for k in picks:
        sid = sub_ids[int(k)]
        cands, tau = subs[int(k)]
        snap = eng.snapshot(sid)
        res = oracle.query(
            [Candidate(j, x, y) for j, (x, y) in enumerate(cands)],
            tau=tau,
            algorithm="PIN",
        )
        expected = tuple(res.influences[j] for j in range(len(cands)))
        if snap.influences != expected:
            ok = False
            print(
                f"bit-identity MISMATCH for subscription {sid}: "
                f"maintained {snap.influences} vs one-shot {expected}",
                file=sys.stderr,
            )
    oracle.close()
    return ok


def run_streaming_scenario(
    n_objects: int = 100_000,
    n_subs: int = 1_000,
    seed: int = STREAMING_SEED,
) -> dict:
    """Update throughput and safe-region effectiveness: BENCH_9."""
    pf = PowerLawPF()
    rng = np.random.default_rng(seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        eng, anchors, subs, extent = build_streaming_engine(
            n_objects, n_subs, seed, pf,
            records_path=Path(tmp) / "sub.jsonl",
        )
        setup_s = time.perf_counter() - t0
        print(
            f"seeded {n_objects} objects + {n_subs} subscriptions "
            f"in {setup_s:.1f}s"
        )
        light = run_streaming_phase(
            eng, anchors, extent, rng,
            STREAMING_PHASE_POSITIONS, sigma=STREAMING_JITTER,
        )
        print(f"crossing-light: {light['positions_per_sec']} pos/s")
        heavy = run_streaming_phase(
            eng, anchors, extent, rng,
            STREAMING_PHASE_POSITIONS, sigma=STREAMING_HEAVY_JITTER,
        )
        print(f"crossing-heavy: {heavy['positions_per_sec']} pos/s")
        identical = check_streaming_identity(
            eng, subs, rng, STREAMING_SPOT_CHECKS
        )
        stats = eng.stats()
    return {
        "bench": "subscription-streaming",
        "schema_version": 1,
        "seed": seed,
        "config": {
            "n_objects": n_objects,
            "n_subscriptions": n_subs,
            "candidates_per_subscription": STREAMING_CANDS_PER_SUB,
            "window": STREAMING_WINDOW,
            "taus": list(STREAMING_TAUS),
            "light_jitter": STREAMING_JITTER,
            "heavy_jitter": STREAMING_HEAVY_JITTER,
            "phase_positions": STREAMING_PHASE_POSITIONS,
        },
        "setup_seconds": round(setup_s, 3),
        "phases": {"crossing_light": light, "crossing_heavy": heavy},
        "bit_identity_spot_checks": {
            "checked": STREAMING_SPOT_CHECKS,
            "identical": identical,
        },
        "engine_stats": stats,
        "targets": {
            # the ISSUE's floor: >= 10^4 positions/sec at 10^5 x 10^3
            "throughput_light_ok": (
                (light["positions_per_sec"] or 0.0) >= 10_000.0
            ),
            # maintenance work must track crossings, not fleet size:
            # the light workload skips most refreshes, the heavy one
            # crosses on most
            "hit_rate_contrast_ok": (
                (light["safe_region_hit_rate"] or 0.0)
                > (heavy["safe_region_hit_rate"] or 0.0)
            ),
            "crossings_scale_ok": (
                heavy["crossings"] > light["crossings"]
            ),
            "bit_identity_ok": identical,
        },
    }


def render_streaming(payload: dict) -> str:
    """The archived results/engine_streaming.txt table."""
    cfg = payload["config"]
    table = TextTable([
        "workload", "positions", "pos/s", "hit rate", "crossings",
        "validations", "recompute p50 ms", "recompute p99 ms",
    ])
    for name, phase in payload["phases"].items():
        table.add_row([
            name.replace("_", "-"),
            phase["positions"],
            phase["positions_per_sec"],
            phase["safe_region_hit_rate"],
            phase["crossings"],
            phase["validations"],
            phase["recompute_p50_ms"],
            phase["recompute_p99_ms"],
        ])
    lines = [
        table.render(
            title=(
                f"streaming subscriptions: {cfg['n_objects']} objects x "
                f"{cfg['n_subscriptions']} standing queries "
                f"(window {cfg['window']}, taus {cfg['taus']})"
            )
        ),
        f"setup: {payload['setup_seconds']}s "
        f"(seed + initial subscription scoring)",
        f"bit-identity spot checks: "
        f"{'ok' if payload['bit_identity_spot_checks']['identical'] else 'FAILED'}",
    ]
    return "\n".join(lines)


def main_streaming(args) -> int:
    """Run the streaming scenario (full or CI smoke); write artifacts."""
    if args.streaming_smoke:
        return main_streaming_smoke(args)
    payload = run_streaming_scenario(
        n_objects=args.streaming_objects,
        n_subs=args.streaming_subs,
    )
    text = render_streaming(payload)
    print()
    print(text)
    Path(args.out_streaming).write_text(json.dumps(payload, indent=2) + "\n")
    results_dir = ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_streaming.txt").write_text(text + "\n")
    print(f"\nJSON written to {args.out_streaming}")
    print(
        f"streaming summary archived to "
        f"{results_dir / 'engine_streaming.txt'}"
    )
    ok = all(payload["targets"].values())
    if not ok:
        missed = [k for k, v in payload["targets"].items() if not v]
        print(
            f"streaming acceptance missed: {', '.join(missed)}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main_streaming_smoke(args) -> int:
    """CI chaos smoke: update storm at 4x the round budget, a pool
    crash mid-stream, then bit-identity over every subscription.

    Grep-able lines (the CI step asserts on these):

    * ``streaming-smoke: sheds=N`` — the storm + overflow rounds shed,
    * ``streaming-smoke: bit-identity ok (K subscriptions)``,
    * ``streaming-smoke: shm clean`` — no pool segment survived close.
    """
    from repro.engine import pool_segments
    from repro.engine.subscriptions import SubscriptionEngine

    pf = PowerLawPF()
    n_objects, n_subs, budget = 2_000, 40, 250
    rng = np.random.default_rng(STREAMING_SEED)
    extent = ladder_extent(n_objects)
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    injector = FaultInjector([
        FaultSpec(kind="update-storm", times=2),
    ])
    eng = SubscriptionEngine(
        window=STREAMING_WINDOW,
        default_pf=pf,
        max_updates_per_round=budget,
        shed_policy="reject",
        fault_injector=injector,
    )
    for oid in range(n_objects):
        eng.ingest(oid, float(anchors[oid, 0]), float(anchors[oid, 1]))
    sub_cands = []
    for _ in range(n_subs):
        cands = [
            (float(x), float(y))
            for x, y in rng.uniform(
                0.0, extent, size=(STREAMING_CANDS_PER_SUB, 2)
            )
        ]
        eng.subscribe(cands, tau=STREAMING_TAU)
        sub_cands.append(cands)

    # 12 rounds at 4x the sustainable per-round budget; the first two
    # also carry the injected storm (phantom load = full capacity, so
    # the whole round sheds).
    sheds = 0
    for _ in range(12):
        oids = rng.integers(0, n_objects, size=4 * budget)
        xy = anchors[oids] + rng.normal(0.0, 0.5, size=(4 * budget, 2))
        report = eng.ingest_batch([
            (int(oids[i]), float(xy[i, 0]), float(xy[i, 1]))
            for i in range(4 * budget)
        ])
        sheds += len(report.shed)
    print(f"streaming-smoke: sheds={sheds}")

    # A pool-backed one-shot engine crashes a worker mid-stream; the
    # supervised retry answers anyway and close() must leave /dev/shm
    # clean — the streaming tier and the crash share one process.
    crashed = QueryEngine(
        eng.fleet(),
        workers=2,
        pool=True,
        default_pf=pf,
        fault_injector=FaultInjector([FaultSpec(kind="crash", times=1)]),
    )
    mid = crashed.query(
        [Candidate(j, x, y) for j, (x, y) in enumerate(sub_cands[0])],
        tau=STREAMING_TAU,
        algorithm="PIN",
    )
    crashed.close()

    # More updates after the crash, then the full bit-identity sweep.
    for _ in range(4):
        oids = rng.integers(0, n_objects, size=budget // 2)
        xy = anchors[oids] + rng.normal(0.0, 0.5, size=(budget // 2, 2))
        eng.ingest_batch([
            (int(oids[i]), float(xy[i, 0]), float(xy[i, 1]))
            for i in range(budget // 2)
        ])
    oracle = QueryEngine(eng.fleet(), workers=1, default_pf=pf)
    mismatches = 0
    for k, sid in enumerate(eng.subscriptions()):
        snap = eng.snapshot(sid)
        res = oracle.query(
            [Candidate(j, x, y) for j, (x, y) in enumerate(sub_cands[k])],
            tau=STREAMING_TAU,
            algorithm="PIN",
        )
        expected = tuple(
            res.influences[j] for j in range(len(sub_cands[k]))
        )
        if snap.influences != expected:
            mismatches += 1
            print(
                f"streaming-smoke: MISMATCH subscription {sid}: "
                f"{snap.influences} vs {expected}",
                file=sys.stderr,
            )
    oracle.close()
    segments = pool_segments()
    ok = (
        sheds > 0
        and mismatches == 0
        and not segments
        and mid.best_influence >= 0
    )
    if mismatches == 0:
        print(
            f"streaming-smoke: bit-identity ok "
            f"({n_subs} subscriptions)"
        )
    if not segments:
        print("streaming-smoke: shm clean")
    else:
        print(
            f"streaming-smoke: LEAKED segments {segments}",
            file=sys.stderr,
        )
    if not ok:
        print("streaming smoke acceptance missed", file=sys.stderr)
    return 0 if ok else 1


def render(payload: dict) -> str:
    """The human-readable scenario table archived under results/."""
    table = TextTable(
        ["scenario", "p50 ms", "p95 ms", "mean ms", "qps"]
    )
    for name, s in payload["scenarios"].items():
        if name == "overload":  # different shape: see render_overload()
            continue
        table.add_row(
            [name, s["p50_ms"], s["p95_ms"], s["mean_ms"],
             s["throughput_qps"]],
            float_fmt="{:.2f}",
        )
    w = payload["workload"]
    lines = [
        table.render(
            title=(
                f"serving scenarios: {w['algorithm']}, "
                f"{w['n_objects']} objects x {w['n_candidates']} "
                f"candidates, {w['n_queries']} queries, "
                f"workers={w['workers']}"
            )
        )
    ]
    c = payload["comparisons"]
    if "batch_vs_pool_throughput" in c:
        lines.append(
            f"batched vs sequential-pool throughput: "
            f"{c['batch_vs_pool_throughput']:.2f}x (target > 1x)"
        )
    return "\n".join(lines)


def render_overload(payload: dict) -> str:
    """The overload summary archived to ``results/engine_overload.txt``."""
    o = payload["scenarios"]["overload"]
    ratio = payload["comparisons"]["overload_p99_vs_unloaded"]
    table = TextTable(["pass", "queries", "p50 ms", "p95 ms", "p99 ms"])
    table.add_row(
        ["unloaded", o["unloaded"]["queries"], o["unloaded"]["p50_ms"],
         o["unloaded"]["p95_ms"], o["unloaded"]["p99_ms"]],
        float_fmt="{:.2f}",
    )
    table.add_row(
        ["overloaded (completed)", o["completed"]["queries"],
         o["completed"]["p50_ms"], o["completed"]["p95_ms"],
         o["completed"]["p99_ms"]],
        float_fmt="{:.2f}",
    )
    return "\n".join([
        table.render(
            title=(
                f"overload scenario: {o['offered']} queries offered at "
                f"{o['pressure']} admission pressure"
            )
        ),
        (
            f"shed: {o['shed']} of {o['offered']} queries "
            f"(reasons: {', '.join(o['shed_reasons'])}) — every shed is "
            f"a typed QueryShed outcome with a JSONL record"
        ),
        (
            f"completed-query p99 vs unloaded p99: {ratio:.2f}x "
            f"(target <= 2x)"
        ),
    ])


def render_observability(payload: dict) -> str:
    """The tracing-overhead summary for ``results/engine_observability.txt``."""
    s = payload["scenarios"]
    ratio = payload["comparisons"]["traced_vs_untraced_p50"]
    w = payload["workload"]
    table = TextTable(["arm", "p50 ms", "p95 ms", "mean ms", "qps"])
    for name in ("untraced", "traced"):
        table.add_row(
            [name, s[name]["p50_ms"], s[name]["p95_ms"], s[name]["mean_ms"],
             s[name]["throughput_qps"]],
            float_fmt="{:.2f}",
        )
    return "\n".join([
        table.render(
            title=(
                f"observability tax: warm pool, {w['algorithm']}, "
                f"{w['n_queries']} queries, workers={w['workers']}, "
                f"best of {w['rounds']} rounds per arm"
            )
        ),
        (
            f"traced arm exports {payload['traces_exported_per_run']} span "
            f"trees per run and serves a live /metrics endpoint"
        ),
        f"traced vs untraced p50: {ratio:.2f}x (target <= 1.05x)",
    ])


def main(argv=None) -> int:
    """Run the scenarios and write both artifacts; 1 on a missed target."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--algorithm", default="PIN-VO")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--out", default=str(ROOT / "BENCH_4.json"),
        help="where to write the serving-trajectory JSON payload",
    )
    parser.add_argument(
        "--out-observability", default=str(ROOT / "BENCH_5.json"),
        help="where to write the observability-overhead JSON payload",
    )
    parser.add_argument(
        "--ladder", action="store_true",
        help="run the object-count scale ladder instead of the serving "
        "scenarios and write BENCH_6.json",
    )
    parser.add_argument(
        "--ladder-smoke", action="store_true",
        help="CI smoke: the two small ladder rungs, asserting the "
        "columnar and legacy kernels agree bit-identically",
    )
    parser.add_argument(
        "--out-ladder", default=str(ROOT / "BENCH_6.json"),
        help="where to write the scale-ladder JSON payload",
    )
    parser.add_argument(
        "--approx", action="store_true",
        help="run the approximate-tier scenario at the 10^5-object "
        "rung instead and write BENCH_7.json",
    )
    parser.add_argument(
        "--out-approx", default=str(ROOT / "BENCH_7.json"),
        help="where to write the approximate-tier JSON payload",
    )
    parser.add_argument(
        "--http", action="store_true",
        help="run the HTTP front-end overload scenario instead and "
        "write BENCH_8.json",
    )
    parser.add_argument(
        "--out-http", default=str(ROOT / "BENCH_8.json"),
        help="where to write the HTTP front-end JSON payload",
    )
    parser.add_argument(
        "--streaming", action="store_true",
        help="run the standing-subscription streaming scenario instead "
        "and write BENCH_9.json",
    )
    parser.add_argument(
        "--streaming-smoke", action="store_true",
        help="CI chaos smoke: update storm at 4x the round budget plus "
        "a pool crash mid-stream, asserting bit-identity and clean shm",
    )
    parser.add_argument(
        "--streaming-objects", type=int, default=100_000,
        help="fleet size for the --streaming scenario",
    )
    parser.add_argument(
        "--streaming-subs", type=int, default=1_000,
        help="standing-query count for the --streaming scenario",
    )
    parser.add_argument(
        "--out-streaming", default=str(ROOT / "BENCH_9.json"),
        help="where to write the streaming-subscription JSON payload",
    )
    args = parser.parse_args(argv)

    if args.ladder or args.ladder_smoke:
        return main_ladder(args)
    if args.approx:
        return main_approx(args)
    if args.http:
        return main_http(args)
    if args.streaming or args.streaming_smoke:
        return main_streaming(args)

    payload = run_scenarios(
        n_queries=args.queries,
        workers=args.workers,
        algorithm=args.algorithm,
        seed=args.seed,
    )
    text = render(payload)
    overload_text = render_overload(payload)
    print(text)
    print()
    print(overload_text)

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    results_dir = ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_pool_vs_fork.txt").write_text(text + "\n")
    (results_dir / "engine_overload.txt").write_text(overload_text + "\n")
    print(f"\nJSON written to {args.out}")
    print(f"table archived to {results_dir / 'engine_pool_vs_fork.txt'}")
    print(
        f"overload summary archived to "
        f"{results_dir / 'engine_overload.txt'}"
    )

    obs_ok = True
    if fork_available():
        obs = run_observability_scenario(
            n_queries=args.queries,
            workers=args.workers,
            algorithm=args.algorithm,
            seed=args.seed,
        )
        obs_text = render_observability(obs)
        print()
        print(obs_text)
        Path(args.out_observability).write_text(
            json.dumps(obs, indent=2) + "\n"
        )
        (results_dir / "engine_observability.txt").write_text(
            obs_text + "\n"
        )
        print(f"\nJSON written to {args.out_observability}")
        print(
            f"observability summary archived to "
            f"{results_dir / 'engine_observability.txt'}"
        )
        obs_ok = obs["comparisons"]["traced_vs_untraced_p50"] <= 1.05
        if not obs_ok:
            print("observability overhead target missed", file=sys.stderr)

    c = payload["comparisons"]
    o = payload["scenarios"]["overload"]
    overload_ok = (
        c["overload_p99_vs_unloaded"] <= 2.0 and o["shed"] > 0
    )
    if not overload_ok:
        print("overload acceptance missed", file=sys.stderr)
    if "batch_vs_pool_throughput" not in c:
        print("fork unavailable: pool scenarios skipped", file=sys.stderr)
        return 0 if overload_ok else 1
    ok = (
        c["batch_vs_pool_throughput"] > 1.0
        and overload_ok
        and obs_ok
    )
    if not ok:
        print("performance targets missed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
