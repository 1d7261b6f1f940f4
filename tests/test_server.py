"""The HTTP front end: routing, admission, deadlines, drain, chaos."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import select_location
from repro.datasets import gowalla_like
from repro.engine import (
    QueryEngine,
    TenantAdmission,
    TenantBudget,
)
from repro.engine.metrics import CONTENT_TYPE
from repro.engine.pool import SEGMENT_PREFIX
from repro.engine.server import BackgroundServer

from .helpers import make_candidates, make_objects
from .test_observability import assert_valid_exposition


@pytest.fixture(scope="module")
def world():
    return make_objects(np.random.default_rng(7), 18, n_range=(1, 8))


@pytest.fixture(scope="module")
def candidates():
    return make_candidates(np.random.default_rng(8), 6)


def _coords(candidates):
    return [[float(c.x), float(c.y)] for c in candidates]


def _request(port, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP exchange; returns (status, parsed-or-text body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    text = raw.decode("utf-8", "replace")
    if resp.headers.get("Content-Type", "").startswith("application/json"):
        return resp.status, json.loads(text)
    return resp.status, text


def _raw_exchange(port, data: bytes, timeout=10.0) -> bytes:
    """Write raw bytes, read the full response (for malformed HTTP)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(data)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Round-trip correctness
# ---------------------------------------------------------------------------
class TestQueryRoundtrip:
    @pytest.fixture(scope="class")
    def server(self, world):
        with BackgroundServer(QueryEngine(world)) as server:
            yield server

    def test_query_matches_direct_selection(self, server, world, candidates):
        status, out = _request(
            server.port, "POST", "/v1/query",
            {"candidates": _coords(candidates), "tau": 0.7,
             "algorithm": "PIN-VO", "tenant": "acme"},
        )
        want = select_location(
            world, candidates, tau=0.7, algorithm="PIN-VO"
        )
        assert status == 200
        assert out["tenant"] == "acme"
        assert out["quality"] == "exact"
        assert out["best_influence"] == want.best_influence
        best = out["best_candidate"]
        assert (best["x"], best["y"]) == (
            want.best_candidate.x, want.best_candidate.y
        )

    def test_pf_and_candidate_objects_accepted(self, server, candidates):
        status, out = _request(
            server.port, "POST", "/v1/query",
            {
                "candidates": [
                    {"x": c.x, "y": c.y, "id": c.candidate_id}
                    for c in candidates
                ],
                "pf": {"name": "powerlaw", "rho": 0.8},
            },
        )
        assert status == 200 and out["tenant"] == "default"

    def test_tenant_header_applies_when_body_has_none(
        self, server, candidates
    ):
        status, out = _request(
            server.port, "POST", "/v1/query",
            {"candidates": _coords(candidates)},
            headers={"X-Tenant": "from-header"},
        )
        assert status == 200 and out["tenant"] == "from-header"

    def test_batch_preserves_order_and_tenants(
        self, server, world, candidates
    ):
        status, out = _request(
            server.port, "POST", "/v1/batch",
            {"queries": [
                {"candidates": _coords(candidates), "tenant": "a"},
                {"candidates": _coords(candidates[:3]), "tenant": "b"},
            ]},
        )
        assert status == 200
        results = out["results"]
        assert [r["tenant"] for r in results] == ["a", "b"]
        want = select_location(world, candidates, tau=0.7)
        assert results[0]["best_influence"] == want.best_influence

    def test_healthz_ok_and_shape(self, server):
        status, h = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert h["ready"] is True and h["status"] in ("ok", "degraded")
        assert "tenants" in h and h["http"]["draining"] is False

    def test_metrics_page_has_http_series(self, server, candidates):
        _request(
            server.port, "POST", "/v1/query",
            {"candidates": _coords(candidates), "tenant": "metered"},
        )
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            status, text = resp.status, resp.read().decode("utf-8")
        finally:
            conn.close()
        assert status == 200
        assert resp.headers["Content-Type"] == CONTENT_TYPE
        assert_valid_exposition(text)
        assert "# TYPE pinls_http_requests_total counter" in text
        assert 'tenant="metered"' in text
        assert "pinls_http_request_seconds_bucket" in text
        # the scrape itself is in flight while the gauge is sampled
        assert "pinls_http_inflight_requests 1" in text


# ---------------------------------------------------------------------------
# Typed errors — malformed input never produces a traceback
# ---------------------------------------------------------------------------
class TestTypedErrors:
    @pytest.fixture(scope="class")
    def server(self, world):
        with BackgroundServer(
            QueryEngine(world), max_body_bytes=4096
        ) as server:
            yield server

    def _error(self, server, *args, **kwargs):
        status, out = _request(server.port, *args, **kwargs)
        assert isinstance(out, dict) and "error" in out, out
        err = out["error"]
        assert err["status"] == status
        return status, err["code"]

    def test_malformed_json_is_400(self, server):
        assert self._error(
            server, "POST", "/v1/query", b"{not json"
        ) == (400, "bad-json")

    def test_non_object_json_is_400(self, server):
        assert self._error(
            server, "POST", "/v1/query", b"[1, 2]"
        ) == (400, "bad-json")

    def test_missing_candidates_is_400(self, server):
        assert self._error(
            server, "POST", "/v1/query", {"tau": 0.5}
        ) == (400, "bad-candidates")

    def test_bad_tau_and_timeout_are_400(self, server, candidates):
        body = {"candidates": _coords(candidates), "tau": 1.5}
        assert self._error(server, "POST", "/v1/query", body) == (
            400, "bad-tau",
        )
        body = {"candidates": _coords(candidates), "timeout_ms": -1}
        assert self._error(server, "POST", "/v1/query", body) == (
            400, "bad-timeout",
        )

    def test_unknown_algorithm_is_400(self, server, candidates):
        status, code = self._error(
            server, "POST", "/v1/query",
            {"candidates": _coords(candidates), "algorithm": "MAGIC"},
        )
        assert (status, code) == (400, "bad-query")

    def test_unknown_pf_is_400(self, server, candidates):
        assert self._error(
            server, "POST", "/v1/query",
            {"candidates": _coords(candidates), "pf": {"name": "cauchy"}},
        ) == (400, "bad-pf")

    def test_unknown_route_is_404_and_wrong_method_is_405(self, server):
        assert self._error(server, "GET", "/nope") == (404, "not-found")
        assert self._error(server, "GET", "/v1/query") == (
            405, "method-not-allowed",
        )
        assert self._error(server, "POST", "/healthz") == (
            405, "method-not-allowed",
        )

    def test_oversized_body_is_413(self, server):
        big = b"x" * 8192
        status, code = self._error(server, "POST", "/v1/query", big)
        assert (status, code) == (413, "body-too-large")

    def test_missing_content_length_is_411(self, server):
        raw = _raw_exchange(
            server.port,
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 411")
        assert b"length-required" in raw

    def test_chunked_encoding_is_411(self, server):
        raw = _raw_exchange(
            server.port,
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 411")

    def test_malformed_request_line_is_400(self, server):
        raw = _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_tiny_deadline_is_504(self, server, candidates):
        status, code = self._error(
            server, "POST", "/v1/query",
            {"candidates": _coords(candidates), "timeout_ms": 0.0001},
        )
        assert (status, code) == (504, "deadline-exceeded")

    def test_deadline_header_applies(self, server, candidates):
        status, code = self._error(
            server, "POST", "/v1/query",
            {"candidates": _coords(candidates)},
            headers={"X-Timeout-Ms": "0.0001"},
        )
        assert (status, code) == (504, "deadline-exceeded")

    def test_batch_member_timeout_is_400(self, server, candidates):
        # one deadline bounds the whole batch, so a member's own is
        # refused rather than ignored
        status, out = _request(
            server.port, "POST", "/v1/batch",
            {"queries": [
                {"candidates": _coords(candidates), "timeout_ms": 0.0001},
            ]},
        )
        assert (status, out["error"]["code"]) == (400, "bad-timeout")
        assert "set timeout_ms on the batch" in out["error"]["message"]


# ---------------------------------------------------------------------------
# Per-tenant admission
# ---------------------------------------------------------------------------
def _gated_engine(world, gate: threading.Event, gated_tenant="bulk", **kwargs):
    """An engine whose queries for one tenant block until ``gate`` is set.

    Deterministic overload: a gated in-flight request holds its
    tenant's budget slot for exactly as long as the test wants.
    """
    engine = QueryEngine(world, **kwargs)
    original = engine.query_batch

    def query_batch(requests, *args, **kw):
        if any(r.tenant == gated_tenant for r in requests):
            assert gate.wait(timeout=30.0), "gate never opened"
        return original(requests, *args, **kw)

    engine.query_batch = query_batch
    return engine


class TestTenantIsolation:
    def test_burst_sheds_the_bursting_tenant_only(self, world, candidates):
        gate = threading.Event()
        engine = _gated_engine(world, gate)
        tenants = TenantAdmission(
            budgets={"bulk": TenantBudget(max_inflight=1, max_queue_depth=0)},
        )
        body = {"candidates": _coords(candidates), "tenant": "bulk"}
        with BackgroundServer(engine, tenants=tenants) as server:
            results = {}

            def fire(name, payload):
                results[name] = _request(
                    server.port, "POST", "/v1/query", payload
                )

            holder = threading.Thread(target=fire, args=("holder", body))
            holder.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if tenants.controller("bulk").inflight == 1:
                    break
                time.sleep(0.005)
            assert tenants.controller("bulk").inflight == 1

            # bulk's only slot is held: a second bulk request sheds...
            status, out = _request(server.port, "POST", "/v1/query", body)
            assert status == 429
            assert out["error"]["code"] == "shed"
            assert out["shed"]["tenant"] == "bulk"
            assert out["shed"]["reason"] == "queue-full"
            # ...while the victim tenant still gets served
            status, out = _request(
                server.port, "POST", "/v1/query",
                {"candidates": _coords(candidates), "tenant": "victim"},
            )
            assert status == 200 and out["tenant"] == "victim"

            gate.set()
            holder.join(timeout=30.0)
            assert results["holder"][0] == 200
            assert tenants.shed_by_tenant() == {"bulk": 1, "victim": 0}
            status, h = _request(server.port, "GET", "/healthz")
            assert h["tenants"]["bulk"]["shed"] == 1
            assert h["tenants"]["victim"]["shed"] == 0

    def test_approx_floor_absorbs_over_budget_requests(
        self, world, candidates
    ):
        gate = threading.Event()
        # approx_k below the fleet size so sketch answers are genuine
        # estimates (an exhaustive sample would be labelled "exact")
        engine = _gated_engine(world, gate, approx=True, approx_k=4)
        tenants = TenantAdmission(
            budgets={"bulk": TenantBudget(max_inflight=1, max_queue_depth=0)},
        )
        body = {"candidates": _coords(candidates), "tenant": "bulk"}
        with BackgroundServer(engine, tenants=tenants) as server:
            results = {}

            def fire():
                results["holder"] = _request(
                    server.port, "POST", "/v1/query", body
                )

            holder = threading.Thread(target=fire)
            holder.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if tenants.controller("bulk").inflight == 1:
                    break
                time.sleep(0.005)

            # over budget on an approx engine: answered, not shed
            status, out = _request(server.port, "POST", "/v1/query", body)
            assert status == 200
            assert out["quality"] == "approx"
            assert out["error_bound"] is not None
            gate.set()
            holder.join(timeout=30.0)
            assert results["holder"][0] == 200
            assert results["holder"][1]["quality"] == "exact"
            assert tenants.shed_by_tenant()["bulk"] == 0

    @pytest.mark.parametrize("policy", ["oldest", "by-priority"])
    def test_lone_over_budget_query_sheds_as_queue_full(
        self, world, candidates, policy
    ):
        tenants = TenantAdmission(
            budgets={"bulk": TenantBudget(
                max_inflight=1, max_queue_depth=0, policy=policy,
            )},
        )
        # hold bulk's only slot: no request of the next round displaces
        # another, so the shed reason is the one a full budget gives
        assert tenants.controller("bulk").admit_batch([0]) == ([0], [])
        with BackgroundServer(QueryEngine(world), tenants=tenants) as server:
            status, out = _request(
                server.port, "POST", "/v1/query",
                {"candidates": _coords(candidates), "tenant": "bulk"},
            )
        tenants.release("bulk")
        assert status == 429
        assert out["shed"]["reason"] == "queue-full"
        assert out["shed"]["policy"] == policy

    def test_batch_overflow_is_answered_from_the_sketch(
        self, world, candidates
    ):
        engine = QueryEngine(world, approx=True, approx_k=4)
        tenants = TenantAdmission(
            budgets={"bulk": TenantBudget(max_inflight=1, max_queue_depth=0)},
        )
        member = {"candidates": _coords(candidates), "tenant": "bulk"}
        with BackgroundServer(engine, tenants=tenants) as server:
            status, out = _request(
                server.port, "POST", "/v1/batch",
                {"queries": [member, member, member]},
            )
            _, page = _request(server.port, "GET", "/metrics")
        assert status == 200
        first, *overflow = out["results"]
        assert first["quality"] == "exact"
        assert [r["quality"] for r in overflow] == ["approx", "approx"]
        assert all(r["error_bound"] is not None for r in overflow)
        assert tenants.shed_by_tenant()["bulk"] == 0
        assert 'pinls_http_approx_answers_total{tenant="bulk"} 2\n' in page

    def test_batch_member_tenant_tags_its_admission_span(
        self, world, candidates
    ):
        engine = QueryEngine(world, tracing=True)
        coords = _coords(candidates)
        with BackgroundServer(engine) as server:
            status, _ = _request(
                server.port, "POST", "/v1/batch",
                {"queries": [
                    {"candidates": coords, "tenant": "a"},
                    {"candidates": coords, "tenant": "b"},
                ]},
            )
        assert status == 200
        admission = [
            child for trace in engine.tracer.traces
            for child in trace["children"] if child["name"] == "admission"
        ]
        assert [span["attrs"]["tenant"] for span in admission] == ["a", "b"]

    def test_batch_admission_is_per_tenant(self, world, candidates):
        engine = QueryEngine(world)
        tenants = TenantAdmission(
            budgets={"small": TenantBudget(max_inflight=1, max_queue_depth=0)},
        )
        coords = _coords(candidates)
        with BackgroundServer(engine, tenants=tenants) as server:
            status, out = _request(
                server.port, "POST", "/v1/batch",
                {"queries": [
                    {"candidates": coords, "tenant": "small"},
                    {"candidates": coords, "tenant": "small"},
                    {"candidates": coords, "tenant": "roomy"},
                ]},
            )
            assert status == 200
            small_a, small_b, roomy = out["results"]
            assert "best_candidate" in small_a
            assert small_b["error"]["code"] == "shed"
            assert small_b["shed"]["tenant"] == "small"
            assert "best_candidate" in roomy
            # slots were released: the next round admits again
            status, out = _request(
                server.port, "POST", "/v1/batch",
                {"queries": [{"candidates": coords, "tenant": "small"}]},
            )
            assert "best_candidate" in out["results"][0]


# ---------------------------------------------------------------------------
# /healthz across ladder states
# ---------------------------------------------------------------------------
class TestHealthzLadderStates:
    def test_exact_tiers_down_with_approx_is_degraded_but_ready(
        self, world
    ):
        engine = QueryEngine(world, approx=True)
        engine.ladder.trip_exact_tiers()
        with BackgroundServer(engine) as server:
            status, h = _request(server.port, "GET", "/healthz")
            assert status == 200
            assert h["status"] == "degraded"
            assert h["tier"] == "approx"
            assert h["ready"] is True

    def test_closed_engine_is_503(self, world):
        engine = QueryEngine(world)
        with BackgroundServer(engine) as server:
            engine.close()
            status, h = _request(server.port, "GET", "/healthz")
            assert status == 503
            assert h["status"] == "closed" and h["ready"] is False
            # and a query against the closed engine is a typed 503
            status, out = _request(
                server.port, "POST", "/v1/query",
                {"candidates": [[0.0, 0.0]]},
            )
            assert status == 503
            assert out["error"]["code"] == "engine-closed"


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, world, candidates):
        gate = threading.Event()
        engine = _gated_engine(world, gate)
        server = BackgroundServer(engine, drain_seconds=10.0)
        port = server.port
        results = {}

        def fire():
            results["held"] = _request(
                port, "POST", "/v1/query",
                {"candidates": _coords(candidates), "tenant": "bulk"},
            )

        holder = threading.Thread(target=fire)
        holder.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.front._inflight >= 1:
                break
            time.sleep(0.005)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.05)
        gate.set()
        stopper.join(timeout=30.0)
        holder.join(timeout=30.0)
        # the in-flight request completed during the drain window
        assert results["held"][0] == 200
        assert server.front.draining
        # the listener is gone: new connections are refused
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0)
        # the engine was closed by the drain
        assert engine.health()["status"] == "closed"
        # drain lines are grep-able per tenant
        lines = "\n".join(server.front.drain_lines())
        assert re.search(r"tenant bulk: offered=1 admitted=1 shed=0", lines)
        assert "drain: complete" in lines

    def test_stop_is_idempotent(self, world):
        server = BackgroundServer(QueryEngine(world))
        first = server.stop()
        second = server.stop()
        assert first["drained"] is True
        assert second["drained"] is True


# ---------------------------------------------------------------------------
# The blocking entry point (subprocess, SIGTERM)
# ---------------------------------------------------------------------------
#: ``prime-ls serve`` arguments per drill.  ``crash-burst`` is the chaos
#: drill: a pooled engine whose every worker crashes on its first span,
#: behind a 1-slot budget per tenant.
SERVE_DRILLS = {
    "one-request": ["--max-inflight", "2"],
    "crash-burst": [
        "--workers", "2", "--pool", "--max-inflight", "1",
        "--inject-fault", "crash", "--drain-seconds", "5",
    ],
}
#: closed-loop client threads per tenant in the ``crash-burst`` drill
BURST_THREADS = {"bulk": 4, "victim": 1}
#: seconds of load before SIGTERM
BURST_SECONDS = 2.0


def _burst_until_sigterm(proc, port):
    """Load the server from :data:`BURST_THREADS`, SIGTERM it mid-burst.

    Each thread repeats one ``/v1/query`` until its connection fails,
    which happens once the draining server stops accepting.  Returns
    the statuses per tenant, the transport errors seen before SIGTERM,
    and the ``/metrics`` page scraped just before it.  The candidates
    come from the world ``prime-ls serve`` builds, so every query lands
    inside its fleet.
    """
    world = gowalla_like(scale=0.05, seed=7)
    candidates, _ = world.dataset.sample_candidates(
        24, np.random.default_rng(7)
    )
    terminated = threading.Event()
    statuses = {tenant: [] for tenant in BURST_THREADS}
    errors = []

    def loop(tenant):
        body = {"candidates": _coords(candidates), "tenant": tenant}
        while True:
            try:
                status, _ = _request(
                    port, "POST", "/v1/query", body, timeout=10.0
                )
            except (OSError, http.client.HTTPException) as exc:
                if not terminated.is_set():
                    errors.append(exc)
                return
            statuses[tenant].append(status)

    threads = [
        threading.Thread(target=loop, args=(tenant,), daemon=True)
        for tenant, n in BURST_THREADS.items()
        for _ in range(n)
    ]
    for thread in threads:
        thread.start()
    time.sleep(BURST_SECONDS)
    _, page = _request(port, "GET", "/metrics")
    terminated.set()
    proc.send_signal(signal.SIGTERM)
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return statuses, errors, page


def _group_gone(pgid, timeout=5.0) -> bool:
    """Whether every process in group ``pgid`` is gone within ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


class TestRunServerProcess:
    @pytest.mark.parametrize("drill", list(SERVE_DRILLS))
    def test_sigterm_drains_and_exits_zero(self, tmp_path, drill):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                *SERVE_DRILLS[drill],
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),
            # its own process group, so forked pool workers can be
            # found (and killed) through the server's pid
            start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            m = re.search(r"serving on http://127\.0\.0\.1:(\d+)", line)
            assert m, f"no serving line in {line!r}"
            port = int(m.group(1))
            if drill == "one-request":
                status, _ = _request(
                    port, "POST", "/v1/query",
                    {"candidates": [[1.0, 1.0], [5.0, 5.0]], "tenant": "t0"},
                )
                statuses, errors, page = {"t0": [status]}, [], ""
                proc.send_signal(signal.SIGTERM)
            else:
                statuses, errors, page = _burst_until_sigterm(proc, port)
            output, _ = proc.communicate(timeout=60)
            group_gone = _group_gone(proc.pid)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.poll() is None:
                proc.communicate()
        assert proc.returncode == 0, output
        assert group_gone, "orphaned processes in the server's group"
        assert not list(Path("/dev/shm").glob(
            f"{SEGMENT_PREFIX}{proc.pid}_*"
        )), "the server left shared-memory segments"
        assert re.search(r"drain: complete after \d+ request", output)
        assert errors == []
        if drill == "one-request":
            assert statuses == {"t0": [200]}
            assert "tenant t0: offered=1 admitted=1 shed=0" in output
            return
        # the injected crashes fired, and the pool replaced the workers
        respawns = re.search(r"^pinls_pool_respawns_total (\S+)$", page, re.M)
        assert respawns and float(respawns.group(1)) > 0, page
        seen = {status for got in statuses.values() for status in got}
        assert seen <= {200, 429, 503}, seen
        assert 429 not in statuses["victim"]
        shed = {
            tenant: int(n) for tenant, n in re.findall(
                r"tenant (\w+): offered=\d+ admitted=\d+ shed=(\d+)",
                output,
            )
        }
        assert shed["victim"] == 0 and shed["bulk"] > 0, output


# ---------------------------------------------------------------------------
# CLI flag validation for the new commands
# ---------------------------------------------------------------------------
class TestServeCLIFlags:
    def test_server_flags_rejected_elsewhere(self, capsys):
        from repro.cli import main

        assert main(["demo", "--port", "1"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_rejects_bad_values(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "-1"]) == 2
        assert main(["serve", "--workers", "-2"]) == 2
        assert main(["serve", "--pool"]) == 2  # pool needs workers >= 2
        assert main(["serve", "--workers", "2"]) == 2  # ... and vice versa
        assert main(["serve", "--shed-policy", "nope"]) == 2
        assert main(["serve", "--drain-seconds", "-1"]) == 2
        assert main(["serve", "--max-inflight", "0"]) == 2
        capsys.readouterr()


class TestSubscriptionEndpoints:
    @pytest.fixture(scope="class")
    def server(self, world):
        with BackgroundServer(QueryEngine(world)) as server:
            yield server

    def test_subscribe_ingest_get_delete_roundtrip(self, server):
        status, body = _request(
            server.port, "POST", "/v1/subscribe",
            {"candidates": [[1.0, 1.0], [8.0, 8.0]], "tau": 0.3},
        )
        assert status == 200
        sid = body["subscription_id"]
        assert body["snapshot"]["version"] == 1
        assert len(body["snapshot"]["influences"]) == 2

        status, body = _request(
            server.port, "POST", "/v1/ingest",
            {"updates": [[500, 1.0, 1.0], [500, 1.1, 1.0], [501, 8.0, 8.0]]},
        )
        assert status == 200
        assert body["applied"] == 3
        assert body["shed"] == []
        assert sid in body["changed_subscriptions"]

        status, body = _request(
            server.port, "GET", f"/v1/subscriptions/{sid}"
        )
        assert status == 200
        assert body["version"] >= 2
        # the two streamed objects sit on the two candidates
        assert body["influences"][0] >= 1
        assert body["influences"][1] >= 1

        status, body = _request(
            server.port, "DELETE", f"/v1/subscriptions/{sid}"
        )
        assert status == 200 and body == {"unsubscribed": sid}
        status, body = _request(
            server.port, "GET", f"/v1/subscriptions/{sid}"
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-subscription"

    def test_single_update_form(self, server):
        status, body = _request(
            server.port, "POST", "/v1/ingest",
            {"object_id": 600, "x": 2.0, "y": 3.0},
        )
        assert status == 200 and body["applied"] == 1

    def test_bad_inputs_are_400(self, server):
        for payload in (
            {},                                    # no updates
            {"updates": []},                       # empty
            {"updates": [[1, 2]]},                 # not a triple
            {"updates": [["a", "b", "c"]]},        # not numbers
        ):
            status, body = _request(
                server.port, "POST", "/v1/ingest", payload
            )
            assert status == 400
            assert body["error"]["code"] == "bad-updates"
        status, body = _request(
            server.port, "POST", "/v1/subscribe",
            {"candidates": [[1, 1]], "tau": 2.0},
        )
        assert (status, body["error"]["code"]) == (400, "bad-tau")
        status, body = _request(
            server.port, "POST", "/v1/subscribe",
            {"candidates": [[1, 1]], "algorithm": "MAGIC"},
        )
        assert status == 400
        status, body = _request(
            server.port, "GET", "/v1/subscriptions/xyz"
        )
        assert (status, body["error"]["code"]) == (
            400, "bad-subscription-id",
        )

    def test_wrong_methods_are_405(self, server):
        status, _ = _request(server.port, "GET", "/v1/subscribe")
        assert status == 405
        status, _ = _request(server.port, "GET", "/v1/ingest")
        assert status == 405
        status, _ = _request(server.port, "POST", "/v1/subscriptions/1")
        assert status == 405

    def test_healthz_and_metrics_carry_subscription_state(self, server):
        status, body = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert "subscriptions" in body
        assert body["subscriptions"]["objects"] >= 1
        status, page = _request(server.port, "GET", "/metrics")
        assert status == 200
        assert "pinls_sub_updates_total" in page
        assert "pinls_sub_objects" in page

    def test_subscribe_error_bad_algorithm_is_400_not_500(self, server):
        # ValueError from SubscriptionEngine.subscribe maps through
        # _run_engine's ValueError -> 400 translation.
        status, body = _request(
            server.port, "POST", "/v1/subscribe",
            {"candidates": [[0.0, 0.0]], "tau": 0.999999},
        )
        assert status == 200  # extreme-but-valid tau still works
