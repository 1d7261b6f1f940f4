"""The four benchmark workloads.

Each workload object is built by its constructor (that is its set-up:
input generation, engine or server build, warm-up), then measured by
``measure(seconds)``, checked against a reference by ``check()`` and
released by ``close()``.  A traced run calls ``start_tracing`` between
an untraced and a traced window and ``trace_inputs`` after the traced
one.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import worlds
from httpload import ServerProcess, open_loop, post_sync
from ledger import PREFIX_OPS, Ledger, compact_traces
from probe import SpeedProbe
from repro import QueryEngine, select_location
from repro.engine.session import QueryRequest
from repro.engine.subscriptions import SubscriptionEngine
from repro.model.candidate import Candidate
from repro.prob import PowerLawPF

#: queries of the query workloads checked against the NA reference
CHECKED_QUERIES = 4
#: HTTP answers slower than this (from their due time) are not goodput
GOODPUT_LIMIT_S = 0.250
#: an in-process workload's peak RSS is read after this many measured
#: operations (or at the end of a shorter window): a closed loop runs
#: more operations on a faster host and the pruning cache grows with
#: them, so a peak read at the end would move with host speed
RSS_OPS = 64


@dataclass
class Window:
    """One measured window of a workload.

    Times are scaled to the probe's reference speed (``probe.py``)
    except ``busy_s``, the raw base of the per-layer shares.
    """

    #: seconds per primary operation; for HTTP, from the request's due
    #: time, so a stall also charges the requests queued behind it
    latencies: list[float]
    #: units of work done (queries, good answers, applied updates)
    work: float
    #: the seconds that work took
    seconds: float
    attempted: int
    failed: int
    started_wall: float
    #: summed raw wall time of the operations as the engine's caller
    #: saw them (for HTTP, from send)
    busy_s: float
    #: how much slower than the probe's reference the host ran
    slowdown: float
    #: HTTP only: raw per-request seconds in the front end (``frontend_s``,
    #: answered requests), before the generator fired (``late_s``) and
    #: waiting for a free socket (``socket_wait_s``)
    http: dict = field(default_factory=dict)


def _tables(engine: QueryEngine, pf) -> float:
    started = time.perf_counter()
    for tau in worlds.QUERY_TAUS:
        engine.table_for(pf, tau)
    return time.perf_counter() - started


def _check_query(objects, cands, tau, pf, result) -> str | None:
    """``None`` when ``result`` agrees with the exhaustive NA answer."""
    ref = select_location(objects, cands, pf, tau, algorithm="NA")
    best = result.best_candidate.candidate_id
    wrong = [j for j, v in result.influences.items()
             if ref.influences[j] != v]
    if (result.best_influence != ref.best_influence
            or ref.influences[best] != result.best_influence or wrong):
        return (f"tau={tau}: best {best}/{result.best_influence}, "
                f"NA {ref.best_candidate.candidate_id}/{ref.best_influence}, "
                f"{len(wrong)} influence(s) differ")
    return None


class _InProcess:
    """Closed loop over an engine that runs in this interpreter."""

    name = ""
    engine = None
    table_build_s = 0.0

    def _op(self) -> int:
        """One primary operation; returns the units of work it did."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Window:
        probe = SpeedProbe()
        spans = []
        work = 0
        started_wall = time.time()
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(spans) < PREFIX_OPS):
            probe.sample()
            t0 = time.perf_counter()
            work += self._op()
            spans.append((t0, time.perf_counter()))
            if len(spans) <= RSS_OPS:
                self.rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0)
        probe.sample()
        scaled = [(b - a) * probe.scale(a, b) for a, b in spans]
        return Window(
            latencies=scaled, work=work, seconds=sum(scaled),
            attempted=len(spans), failed=0, started_wall=started_wall,
            busy_s=sum(b - a for a, b in spans), slowdown=probe.slowdown(),
        )

    def start_tracing(self, ledger: Ledger, out: Path | None) -> None:
        ledger.install()
        self.engine.tracer.enabled = True

    def trace_inputs(self, window: Window, ledger: Ledger) -> dict:
        ledger.uninstall()
        self.engine.tracer.enabled = False
        traces = [t for t in self.engine.tracer.traces
                  if t["start"] >= window.started_wall]
        return {
            "rows": ledger.rows_since(window.started_wall),
            "spans": compact_traces(traces),
        }

    def write_spans(self, out: Path, seed: int) -> None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{self.name}-seed{seed}.jsonl", "w") as f:
            for tree in self.engine.tracer.traces:
                f.write(json.dumps(tree) + "\n")

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        self.engine.close()


class PruneHeavy(_InProcess):
    """Serial engine, one closed-loop client, a fresh candidate set per
    query so every query misses the pruning cache."""

    name = "prune-heavy"
    OBJECTS = 30_000
    CANDIDATES = 128

    def __init__(self, seed: int, smoke: bool, env: dict):
        div = worlds.SMOKE_DIVISOR if smoke else 1
        self.objects = worlds.uniform_fleet(seed, self.OBJECTS // div)
        self.extent = worlds.extent_km(len(self.objects))
        self.pf = PowerLawPF()
        self.engine = self._engine()
        self.table_build_s = _tables(self.engine, self.pf)
        self.rng = worlds.stream(seed, worlds.CANDIDATES)
        self.issued = 0
        self.sample: list[tuple] = []
        self._warm()

    def _engine(self) -> QueryEngine:
        return QueryEngine(self.objects, default_pf=self.pf)

    def _next(self) -> tuple[list[Candidate], float]:
        tau = worlds.QUERY_TAUS[self.issued % len(worlds.QUERY_TAUS)]
        self.issued += 1
        cands = worlds.candidate_set(self.rng, self.CANDIDATES, self.extent)
        return cands, tau

    def _warm(self) -> None:
        # first use of each table builds its position block; pay it here
        for _ in worlds.QUERY_TAUS:
            cands, tau = self._next()
            self.engine.query(cands, tau=tau)

    def _op(self) -> int:
        cands, tau = self._next()
        result = self.engine.query(cands, tau=tau)
        if len(self.sample) < CHECKED_QUERIES:
            self.sample.append((cands, tau, result))
        return 1

    def check(self) -> list[str]:
        failures = []
        for cands, tau, result in self.sample:
            problem = _check_query(self.objects, cands, tau, self.pf, result)
            if problem:
                failures.append(f"{self.name}: {problem}")
        return failures


class PoolBatch(PruneHeavy):
    """Closed loop of ``query_batch`` rounds through the worker pool,
    each round holding four distinct cold queries."""

    name = "pool-batch"
    OBJECTS = 20_000
    CANDIDATES = 64
    ROUND = 4
    WORKERS = 2

    def _engine(self) -> QueryEngine:
        return QueryEngine(self.objects, default_pf=self.pf, pool=True,
                           workers=self.WORKERS)

    def _warm(self) -> None:
        # starts the pool and publishes one table segment per tau
        self.engine.query_batch([
            QueryRequest(cands, self.pf, tau)
            for cands, tau in (self._next() for _ in worlds.QUERY_TAUS)
        ])

    def _op(self) -> int:
        batch = [self._next() for _ in range(self.ROUND)]
        results = self.engine.query_batch([
            QueryRequest(cands, self.pf, tau) for cands, tau in batch
        ])
        for (cands, tau), result in zip(batch, results):
            if len(self.sample) < CHECKED_QUERIES:
                self.sample.append((cands, tau, result))
        return self.ROUND

    def close(self) -> None:
        self.engine.close()
        # The pool started multiprocessing's resource tracker; stop it so
        # the run leaves no child process behind.
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if hasattr(tracker, "_stop"):
            tracker._stop()


class IngestMixed(_InProcess):
    """Standing queries over a live fleet: closed-loop ingest rounds of
    calm (80%) and jumpy (20%) position updates."""

    name = "ingest-mixed"
    OBJECTS = 20_000
    SUBSCRIPTIONS = 200
    CHECKED = 3

    def __init__(self, seed: int, smoke: bool, env: dict):
        div = worlds.SMOKE_DIVISOR if smoke else 1
        self.world = worlds.stream_world(
            seed, self.OBJECTS // div, self.SUBSCRIPTIONS // div
        )
        self.pf = PowerLawPF()
        self.engine = SubscriptionEngine(
            window=worlds.WINDOW, default_pf=self.pf
        )
        for batch in worlds.seed_rounds(self.world, seed):
            self.engine.ingest_batch(batch)
        self.sub_ids = [
            self.engine.subscribe(cands, tau=tau)
            for cands, tau in self.world.subscriptions
        ]
        self.rounds = worlds.update_rounds(self.world, seed)
        self.refused = 0

    def _op(self) -> int:
        report = self.engine.ingest_batch(next(self.rounds))
        self.refused += report.offered - report.applied
        return report.applied

    def check(self) -> list[str]:
        failures = []
        if self.refused:
            failures.append(f"{self.name}: {self.refused} update(s) shed")
        fleet = self.engine.fleet()
        n = len(self.sub_ids)
        for k in sorted({0, n // 2, n - 1})[:self.CHECKED]:
            snap = self.engine.snapshot(self.sub_ids[k])
            cands, tau = self.world.subscriptions[k]
            ref = select_location(
                fleet,
                [Candidate(j, x, y) for j, (x, y) in enumerate(cands)],
                self.pf, tau, algorithm="NA",
            )
            expected = tuple(ref.influences[j] for j in range(len(cands)))
            if (snap.influences != expected or snap.best_candidate.candidate_id
                    != ref.best_candidate.candidate_id):
                failures.append(
                    f"{self.name}: subscription {self.sub_ids[k]} holds "
                    f"{snap.influences}, one-shot NA gives {expected}"
                )
        return failures

    def close(self) -> None:
        pass  # a subscription engine holds no processes or segments


class HttpSteady:
    """Open-loop Poisson arrivals at a fixed rate against the HTTP front
    end over a serial engine in its own interpreter; recurring candidate
    sets, warmed before the window, so every query hits the pruning
    cache."""

    name = "http-steady"
    OBJECTS = 2_000
    #: 32 sets x 3 taus = 96 pruning keys, inside the engine's default
    #: pruning-cache budget (128 entries), so every query is a hit
    SETS = 32
    CANDIDATES = 16
    RATE = 20.0

    def __init__(self, seed: int, smoke: bool, env: dict):
        div = worlds.SMOKE_DIVISOR if smoke else 1
        self.seed = seed
        self.objects_n = self.OBJECTS // div
        self.env = env
        rng = worlds.stream(seed, worlds.CANDIDATES)
        extent = worlds.extent_km(self.objects_n)
        self.pairs = []
        for _ in range(self.SETS):
            cands = worlds.candidate_set(rng, self.CANDIDATES, extent)
            self.pairs.extend((cands, tau) for tau in worlds.QUERY_TAUS)
        self.bodies = [
            json.dumps({
                "candidates": [[c.x, c.y] for c in cands], "tau": tau,
            }).encode()
            for cands, tau in self.pairs
        ]
        cpus = sorted(os.sched_getaffinity(0))
        self.sockets = len(cpus)
        # The server and the load generator each get a CPU of their own
        # (when there are two), so the scheduler cannot stack them on one
        # CPU in some runs and not in others.
        self.server_cpu = cpus[-1]
        self.client_cpus = set(cpus[:-1]) or {cpus[-1]}
        #: (window, pair index, answer body, counted as goodput)
        self.answers: list[tuple[Window, int, dict, bool]] = []
        self.server: ServerProcess | None = None
        self._start(trace=False)

    def _start(self, trace: bool, out: Path | None = None) -> None:
        argv = ["--seed", str(self.seed), "--objects", str(self.objects_n),
                "--trace", str(int(trace)), "--cpu", str(self.server_cpu)]
        if out is not None:
            argv += ["--out", str(out)]
        self.server = ServerProcess(argv, self.env)
        self.table_build_s = self.server.setup["table_build_s"]
        for body in self.bodies:
            status, payload = post_sync(self.server.port, body)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: "
                                   f"{payload}")

    def measure(self, seconds: float) -> Window:
        schedule = worlds.poisson_schedule(self.seed, self.RATE, seconds)
        bodies = [self.bodies[i % len(self.bodies)]
                  for i in range(len(schedule))]
        probe = SpeedProbe()
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.client_cpus)
        try:
            started_wall, start, reqs = open_loop(
                self.server.port, schedule, bodies, self.sockets, probe
            )
        finally:
            os.sched_setaffinity(0, cpus)
        latencies = [(r.done - r.due) * probe.scale(r.due, r.done)
                     for r in reqs]
        window = Window(
            latencies=latencies, work=0,
            seconds=max(r.done for r in reqs) - start,
            attempted=len(reqs), failed=0, started_wall=started_wall,
            busy_s=sum(r.done - r.sent for r in reqs),
            slowdown=probe.slowdown(),
            http={
                "frontend_s": [],
                "late_s": [r.ready - r.due for r in reqs],
                "socket_wait_s": [r.sent - r.ready for r in reqs],
            },
        )
        for req, latency in zip(reqs, latencies):
            if req.error is not None or req.status != 200:
                window.failed += 1
                continue
            window.http["frontend_s"].append(
                req.done - req.sent - req.payload["elapsed_ms"] / 1000.0
            )
            good = latency <= GOODPUT_LIMIT_S
            window.work += good
            self.answers.append(
                (window, req.index % len(self.pairs), req.payload, good)
            )
        return window

    def check(self) -> list[str]:
        """Every answer of every window against a one-shot query."""
        objects = worlds.checkin_fleet(self.seed, self.objects_n)
        pf = PowerLawPF()
        expected = []
        for cands, tau in self.pairs:
            ref = select_location(objects, cands, pf, tau)
            expected.append((
                ref.best_candidate.candidate_id, ref.best_influence,
                {str(k): v for k, v in ref.influences.items()},
            ))
        failures = []
        for window, pair, payload, good in self.answers:
            got = (payload["best_candidate"]["id"],
                   payload["best_influence"], payload["influences"])
            if got != expected[pair]:
                failures.append(f"{self.name}: wrong answer for pair {pair}")
                window.work -= good  # a wrong answer is not goodput
        return failures

    def start_tracing(self, ledger: Ledger, out: Path | None) -> None:
        # tracing lives in the server process: replace the server with a
        # traced one, which installs the ledger wrappers itself
        self.server.stop()
        self._start(trace=True, out=out)

    def trace_inputs(self, window: Window, ledger: Ledger) -> dict:
        lines = self.server.stop()
        self.server = None
        data = next(json.loads(line[len("ledger "):])
                    for line in lines if line.startswith("ledger "))
        rows = sorted((r for r in data["rows"]
                       if r["t"] >= window.started_wall),
                      key=lambda r: r["t"])
        spans = [s for s in data["spans"] if s[0] >= window.started_wall]
        return {"rows": rows, "spans": spans, **window.http}

    def write_spans(self, out: Path, seed: int) -> None:
        pass  # the traced server wrote its own span file to ``out``

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (PruneHeavy, HttpSteady, PoolBatch, IngestMixed)
}
