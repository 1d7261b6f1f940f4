"""Open-loop Poisson load generation against the HTTP front end.

A *closed-loop* client (issue, wait, issue again) cannot see overload:
when the server slows down the client slows down with it, offered load
collapses to whatever the server sustains, and the latency curve looks
flat right up to the cliff that production traffic — which does not
politely wait — falls off.  This module drives the front end
*open-loop*: each tenant fires requests on a Poisson schedule
(exponential inter-arrival gaps at its offered qps) regardless of how
many are still outstanding, which is the arrival process a shared
service actually faces and the only one under which "p99 vs offered
qps" and "shed rate vs offered qps" mean anything.

``run_load`` speaks plain HTTP/1.1 over ``asyncio.open_connection``
(one connection per request, matching the server's
``Connection: close``), records every completed request's latency and
status per tenant, and summarises into a :class:`LoadReport`:
percentiles over *completed* (HTTP 200) requests, shed counts (429),
approx-vs-exact answer split, and error tallies.  ``serve-bench
--server`` (see :mod:`repro.cli`) runs it against an in-process
:class:`~repro.engine.server.BackgroundServer` or, with
``--server-url``, any already-running front end.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

#: per-request connect/write/read timeout, in seconds
REQUEST_TIMEOUT = 30.0
#: ``run_server_bench``'s ``bulk`` tenant offers this multiple of the
#: per-tenant ``offered_qps``
BURST_FACTOR = 4.0
#: ``run_server_bench``'s seed for the world, its candidate draw and
#: every tenant's arrival stream
SERVER_BENCH_SEED = 7


def _percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class TenantLoad:
    """One tenant's offered traffic for a load run."""

    tenant: str
    offered_qps: float
    #: request body template (candidates/tau/algorithm/timeout_ms...);
    #: ``tenant`` is stamped on each request from :attr:`tenant`
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.offered_qps <= 0:
            raise ValueError(
                f"offered_qps must be > 0, got {self.offered_qps}"
            )


@dataclass
class TenantStats:
    """What one tenant's offered traffic got back."""

    tenant: str
    offered_qps: float
    sent: int = 0
    completed: int = 0          # HTTP 200
    shed: int = 0               # HTTP 429
    approx: int = 0             # HTTP 200 with quality == "approx"
    errors: dict[str, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)

    def note_error(self, key: str) -> None:
        """Tally one failed request under *key* (a code or ``transport``)."""
        self.errors[key] = self.errors.get(key, 0) + 1

    @property
    def shed_rate(self) -> float:
        """Sheds per offered request (0..1)."""
        return self.shed / self.sent if self.sent else 0.0

    def percentile_ms(self, q: float) -> float:
        """Latency quantile over *completed* requests only."""
        return _percentile(self.latencies_ms, q)

    def to_dict(self) -> dict:
        """JSON-ready summary: counts, shed rate, p50/p99 latency."""
        return {
            "tenant": self.tenant,
            "offered_qps": self.offered_qps,
            "sent": self.sent,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "approx": self.approx,
            "errors": dict(self.errors),
            "p50_ms": round(self.percentile_ms(0.50), 3),
            "p99_ms": round(self.percentile_ms(0.99), 3),
        }


@dataclass
class LoadReport:
    """The outcome of one open-loop run across all tenants."""

    duration_seconds: float
    tenants: dict[str, TenantStats]

    @property
    def total_sent(self) -> int:
        return sum(t.sent for t in self.tenants.values())

    @property
    def total_shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    def to_dict(self) -> dict:
        """JSON-ready report: the run duration plus per-tenant stats."""
        return {
            "duration_seconds": round(self.duration_seconds, 3),
            "total_sent": self.total_sent,
            "total_shed": self.total_shed,
            "tenants": {
                name: stats.to_dict()
                for name, stats in sorted(self.tenants.items())
            },
        }

    def summary_lines(self) -> list[str]:
        """Grep-able per-tenant lines for bench logs and CI."""
        lines = []
        for name, t in sorted(self.tenants.items()):
            lines.append(
                f"loadgen tenant {name}: offered={t.offered_qps:g}qps "
                f"sent={t.sent} completed={t.completed} shed={t.shed} "
                f"(rate {t.shed_rate:.1%}) approx={t.approx} "
                f"p50={t.percentile_ms(0.5):.1f}ms "
                f"p99={t.percentile_ms(0.99):.1f}ms"
            )
        return lines


async def _post_query(
    host: str, port: int, body: bytes
) -> tuple[int, dict | None]:
    """One ``POST /v1/query`` over its own connection.

    Returns ``(status, parsed_body)``; transport failures surface as
    exceptions for the caller to tally.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), REQUEST_TIMEOUT
    )
    try:
        head = (
            f"POST /v1/query HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await asyncio.wait_for(writer.drain(), REQUEST_TIMEOUT)
        raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    status_line = head_part.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    try:
        status = int(status_line.split(" ", 2)[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"malformed response line {status_line!r}")
    try:
        parsed = json.loads(body_part.decode("utf-8")) if body_part else None
    except (UnicodeDecodeError, json.JSONDecodeError):
        parsed = None
    return status, parsed


async def _drive_tenant(
    load: TenantLoad,
    host: str,
    port: int,
    duration: float,
    rng: random.Random,
    stats: TenantStats,
) -> None:
    """Fire one tenant's Poisson arrivals, open-loop, for ``duration``."""
    payload = dict(load.payload)
    payload["tenant"] = load.tenant
    body = json.dumps(payload).encode("utf-8")
    tasks: set[asyncio.Task] = set()
    started = time.monotonic()
    deadline = started + duration

    async def one_request() -> None:
        sent_at = time.perf_counter()
        stats.sent += 1
        try:
            status, parsed = await _post_query(host, port, body)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            stats.note_error("transport")
            return
        elapsed_ms = (time.perf_counter() - sent_at) * 1000.0
        if status == 200:
            stats.completed += 1
            stats.latencies_ms.append(elapsed_ms)
            if parsed and parsed.get("quality") == "approx":
                stats.approx += 1
        elif status == 429:
            stats.shed += 1
        else:
            stats.note_error(str(status))

    while True:
        now = time.monotonic()
        if now >= deadline:
            break
        # open loop: fire on schedule no matter how many are pending
        task = asyncio.ensure_future(one_request())
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        gap = rng.expovariate(load.offered_qps)
        await asyncio.sleep(min(gap, max(0.0, deadline - now)))
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


async def run_load(
    loads: list[TenantLoad],
    *,
    host: str,
    port: int,
    duration: float = 5.0,
    seed: int = 0,
) -> LoadReport:
    """Drive every tenant's schedule concurrently; gather the report.

    Deterministic per ``seed``: each tenant gets its own
    ``random.Random`` stream so adding a tenant never perturbs the
    others' arrival times.
    """
    if not loads:
        raise ValueError("run_load needs at least one TenantLoad")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    stats = {
        load.tenant: TenantStats(load.tenant, load.offered_qps)
        for load in loads
    }
    if len(stats) != len(loads):
        raise ValueError("tenant names must be unique per run")
    started = time.monotonic()
    await asyncio.gather(*(
        _drive_tenant(
            load,
            host,
            port,
            duration,
            random.Random(f"{seed}:{load.tenant}"),
            stats[load.tenant],
        )
        for load in loads
    ))
    return LoadReport(
        duration_seconds=time.monotonic() - started, tenants=stats
    )


def run_load_sync(loads: list[TenantLoad], **kwargs) -> LoadReport:
    """Blocking wrapper over :func:`run_load` (its own event loop)."""
    return asyncio.run(run_load(loads, **kwargs))


def build_serving_engine(
    *,
    scale: float = 0.05,
    seed: int = 7,
    workers: int = 0,
    pool: bool = False,
    approx: bool = False,
    approx_k: int | None = None,
    faults=None,
):
    """A Gowalla-like engine plus a candidate sampler for serving.

    The same world ``serve-bench`` measures (``gowalla_like``), wrapped
    for the HTTP paths: returns ``(engine, sample_candidates)`` where
    ``sample_candidates(n, seed)`` draws a venue-anchored candidate
    set.  Engine-level admission is deliberately left off — the HTTP
    front end admits per tenant; the engine's own budget would
    double-count.

    ``approx_k`` caps the influence-sketch sample size; fleets smaller
    than the default sketch size are sampled exhaustively, so without
    a cap small worlds answer "approx" queries exactly (quality
    ``"exact"``) at full cost.
    """
    import numpy as np

    from repro.datasets import gowalla_like
    from repro.engine.faults import FaultInjector
    from repro.engine.session import QueryEngine

    world = gowalla_like(scale=scale, seed=seed)
    extra = {} if approx_k is None else {"approx_k": approx_k}
    engine = QueryEngine(
        world.dataset.objects,
        workers=workers,
        pool=pool,
        approx=approx,
        fault_injector=FaultInjector(list(faults)) if faults else None,
        **extra,
    )

    def sample_candidates(n: int = 24, sample_seed: int = 0):
        rng = np.random.default_rng(sample_seed)
        return world.dataset.sample_candidates(n, rng)[0]

    return engine, sample_candidates


def run_server_bench(
    *,
    offered_qps: float = 10.0,
    duration: float = 3.0,
    tenants: int = 2,
    workers: int = 0,
    pool: bool = False,
    approx: bool = False,
    max_inflight: int = 2,
    shed_policy: str = "reject",
    server_url: str | None = None,
) -> dict:
    """One open-loop run against the HTTP front end.

    Drives ``tenants`` tenants for ``duration`` seconds: tenant
    ``bulk`` offers :data:`BURST_FACTOR` times ``offered_qps`` (the
    overloader), every other tenant (``victim``, ``victim2``, ...)
    offers ``offered_qps``.  Without ``server_url`` an in-process
    :class:`~repro.engine.server.BackgroundServer` is started over a
    fresh Gowalla-like engine, each tenant bounded by ``max_inflight``
    slots and a queue as deep under ``shed_policy``, and drained at the
    end; with it, an already-running front end is driven instead (its
    admission configuration is whatever the server was started with).

    Returns a JSON-ready dict: the :class:`LoadReport` plus the run's
    configuration and (in-process only) the drain summary.
    """
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")

    def _loads(sample_candidates) -> list[TenantLoad]:
        candidates = [
            [float(c.x), float(c.y)]
            for c in sample_candidates(24, SERVER_BENCH_SEED)
        ]
        payload = {"candidates": candidates, "tau": 0.7}
        loads = [TenantLoad("bulk", BURST_FACTOR * offered_qps, payload)]
        for i in range(1, tenants):
            name = "victim" if i == 1 else f"victim{i}"
            loads.append(TenantLoad(name, offered_qps, payload))
        return loads

    config = {
        "offered_qps": offered_qps,
        "burst_factor": BURST_FACTOR,
        "duration": duration,
        "tenants": tenants,
        "workers": workers,
        "pool": pool,
        "approx": approx,
        "max_inflight": max_inflight,
        "shed_policy": shed_policy,
    }
    if server_url is not None:
        from urllib.parse import urlparse

        parsed = urlparse(server_url)
        if not parsed.hostname or not parsed.port:
            raise ValueError(
                f"server_url must look like http://host:port, got "
                f"{server_url!r}"
            )
        engine, sample_candidates = build_serving_engine(
            seed=SERVER_BENCH_SEED
        )
        # only the candidate sampler is needed; the engine under test
        # is the remote one
        engine.close()
        report = run_load_sync(
            _loads(sample_candidates),
            host=parsed.hostname,
            port=parsed.port,
            duration=duration,
            seed=SERVER_BENCH_SEED,
        )
        return {
            "config": config,
            "report": report.to_dict(),
            "summary_lines": report.summary_lines(),
        }

    from repro.engine.admission import TenantAdmission, TenantBudget
    from repro.engine.server import BackgroundServer

    engine, sample_candidates = build_serving_engine(
        seed=SERVER_BENCH_SEED, workers=workers, pool=pool, approx=approx
    )
    admission = TenantAdmission(
        default=TenantBudget(max_inflight=max_inflight, policy=shed_policy)
    )
    server = BackgroundServer(engine, tenants=admission)
    try:
        report = run_load_sync(
            _loads(sample_candidates),
            host="127.0.0.1",
            port=server.port,
            duration=duration,
            seed=SERVER_BENCH_SEED,
        )
    finally:
        drain = server.stop()
    return {
        "config": config,
        "report": report.to_dict(),
        "summary_lines": report.summary_lines(),
        "drain": drain,
    }
