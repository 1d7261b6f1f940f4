"""Multi-tenant asyncio HTTP front end for the serving engine.

Everything *behind* the socket already exists — bounded admission,
the circuit-broken pool → serial degradation ladder, the
sketch-based approximate floor, tracing and Prometheus metrics.  This
module is the socket: a stdlib-``asyncio`` HTTP/1.1 server that turns
the :class:`~repro.engine.session.QueryEngine` into a network service
with end-to-end guarantees a client can actually observe.

Endpoints
---------

* ``POST /v1/query`` — one PRIME-LS query; JSON body with
  ``candidates`` (``[[x, y], ...]`` or ``[{"x": .., "y": ..}, ...]``),
  optional ``tau``/``algorithm``/``pf``/``tenant``/``priority``/
  ``timeout_ms``,
* ``POST /v1/batch`` — ``{"queries": [...]}`` plus an optional
  batch-level ``tenant`` and ``timeout_ms``; members take the
  ``/v1/query`` fields except ``timeout_ms`` (one deadline per batch),
* ``POST /v1/subscribe`` — register a standing query on the front
  end's :class:`~repro.engine.subscriptions.SubscriptionEngine`; same
  ``candidates``/``tau``/``algorithm``/``pf`` fields as ``/v1/query``,
  returns the subscription id and its version-1 snapshot,
* ``POST /v1/ingest`` — stream position updates into the live fleet:
  ``{"updates": [[object_id, x, y], ...]}`` (or a single
  ``{"object_id": .., "x": .., "y": ..}``), one coalesced ingest round;
  returns applied/shed counts and the round's maintenance work,
* ``GET /v1/subscriptions/{id}`` — the subscription's current
  versioned snapshot; ``DELETE`` unsubscribes it,
* ``GET /healthz`` — the engine's readiness probe
  (:meth:`QueryEngine.health`) plus per-tenant admission and front-end
  state; 200 while ready (degraded included — a degraded ladder still
  answers), 503 while draining or closed,
* ``GET /metrics`` — the engine's Prometheus page (including the
  ``pinls_http_*`` series this module registers), rendered by the
  engine's :class:`~repro.engine.metrics.MetricsRegistry`.

One request path
----------------

``/v1/query`` is a batch of one: both query endpoints parse straight
into :class:`~repro.engine.session.QueryRequest` objects (tenant and
default priority resolved at parse time) and share
:meth:`HTTPFrontEnd._answer` — one per-tenant admission round on the
event loop, sketch answers or typed shed bodies for the overflow, and
one :meth:`QueryEngine.query_batch` round on the executor for the
admitted requests.  ``/v1/query`` unwraps its one slot: 429 for a
shed, otherwise 200.

Robustness contract
-------------------

* **per-tenant admission** —
  :class:`~repro.engine.admission.TenantAdmission` gives every tenant
  its own bounded budget mapping onto the PR-4 shed policies, so one
  tenant's burst sheds *that tenant* (HTTP 429 with a typed error
  body), never the fleet; on an ``approx=True`` engine the over-budget
  request is answered from the influence sketch instead
  (:meth:`QueryEngine.query_approx` — labelled, bounded, HTTP 200),
* **deadline propagation** — ``timeout_ms`` (body field, or the
  ``X-Timeout-Ms`` header) becomes ``query_batch(deadline_seconds=...)``
  and bounds the whole request; an overrun returns HTTP 504, the
  engine having already killed and joined any workers past the budget,
* **malformed input never tracebacks** — oversized bodies are refused
  with 413 *before* reading, missing/invalid ``Content-Length`` with
  411, malformed JSON and invalid parameters with 400; every error is
  a typed JSON body ``{"error": {"code", "status", "message"}}``,
* **slow clients cannot stall the event loop** — engine work runs on
  a *bounded* thread-pool executor (the event loop only parses,
  admits, and serialises), and reads/writes carry hard timeouts (408
  on a stalled request body; a stalled response write closes the
  connection),
* **graceful drain** — SIGTERM (or :meth:`HTTPFrontEnd.drain`) stops
  accepting, lets in-flight requests finish within the drain budget
  (stragglers are cancelled), shuts the executor down, closes the
  engine (JSONL metrics/traces flushed, every /dev/shm segment
  released), and reports per-tenant shed lines — ``run_server``
  then exits 0.

One request per connection (the server answers ``Connection: close``);
at benchmark rates connection setup is noise and the lifecycle stays
trivially correct under chaos drills.  The repository benchmark's
open-loop client (``bench/httpload.py``) is the measurement harness:
closed-loop clients hide queueing collapse, offered-rate clients do
not.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.admission import QueryShed, TenantAdmission
from repro.engine.faults import DeadlineExceeded
from repro.engine.metrics import CONTENT_TYPE
from repro.engine.session import QueryEngine, QueryRequest
from repro.engine.subscriptions import SubscriptionEngine
from repro.model.candidate import Candidate
from repro.prob import (
    ConcavePF,
    ConvexPF,
    ExponentialPF,
    LinearPF,
    LogsigPF,
    PowerLawPF,
    ProbabilityFunction,
)

#: tenant applied when a request names none
DEFAULT_TENANT = "default"

#: request-body ceiling (bytes) — a batch of a few hundred candidate
#: sets fits comfortably; anything bigger is refused with 413
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: seconds a client may take to deliver its request (line + headers +
#: body) before the front end answers 408 and closes the connection
DEFAULT_READ_TIMEOUT = 10.0

#: seconds a client may stall the response write before the connection
#: is dropped (the handler slot is freed either way)
DEFAULT_WRITE_TIMEOUT = 10.0

#: seconds a drain waits for in-flight requests before cancelling them
DEFAULT_DRAIN_SECONDS = 5.0

#: ``timeout_ms`` ceiling — a deadline beyond this is a client bug
MAX_TIMEOUT_MS = 600_000.0

#: probability functions a request may name in its ``pf`` object
PF_REGISTRY: dict[str, type] = {
    "powerlaw": PowerLawPF,
    "exponential": ExponentialPF,
    "linear": LinearPF,
    "logsig": LogsigPF,
    "convex": ConvexPF,
    "concave": ConcavePF,
}

class ApiError(Exception):
    """A typed HTTP error: status code, machine code, human message.

    Raised anywhere in request handling and rendered as the JSON error
    body — the *only* error surface clients ever see (no tracebacks).
    """

    def __init__(self, status: int, code: str, message: str):
        self.status = status
        self.code = code
        self.message = message
        super().__init__(f"{status} {code}: {message}")

    def body(self) -> dict:
        """The typed JSON error body every non-2xx response carries."""
        return {
            "error": {
                "code": self.code,
                "status": self.status,
                "message": self.message,
            }
        }


_REASON_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _parse_pf(spec) -> ProbabilityFunction | None:
    """Build the request's probability function from its ``pf`` object."""
    if spec is None:
        return None
    if not isinstance(spec, dict) or "name" not in spec:
        raise ApiError(
            400, "bad-pf",
            'pf must be an object like {"name": "powerlaw", "rho": 0.9}',
        )
    params = dict(spec)
    name = params.pop("name")
    cls = PF_REGISTRY.get(name)
    if cls is None:
        raise ApiError(
            400, "bad-pf",
            f"unknown pf {name!r}; expected one of "
            f"{', '.join(sorted(PF_REGISTRY))}",
        )
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, "bad-pf", f"invalid pf parameters: {exc}")


def _parse_candidates(raw) -> list[Candidate]:
    """Candidates from ``[[x, y], ...]`` or ``[{"x": .., "y": ..}]``."""
    if not isinstance(raw, list) or not raw:
        raise ApiError(
            400, "bad-candidates",
            "candidates must be a non-empty list of [x, y] pairs or "
            '{"x": .., "y": ..} objects',
        )
    out: list[Candidate] = []
    for i, entry in enumerate(raw):
        try:
            if isinstance(entry, dict):
                x, y = float(entry["x"]), float(entry["y"])
                cid = int(entry.get("id", i))
                label = str(entry.get("label", ""))
            else:
                x, y = float(entry[0]), float(entry[1])
                cid, label = i, ""
        except (KeyError, IndexError, TypeError, ValueError):
            raise ApiError(
                400, "bad-candidates",
                f"candidates[{i}] is not a coordinate pair",
            )
        out.append(Candidate(cid, x, y, label))
    return out


def _parse_timeout_ms(body: dict, headers: dict) -> float | None:
    """The request deadline in milliseconds (body beats header)."""
    raw = body.get("timeout_ms")
    if raw is None:
        raw = headers.get("x-timeout-ms")
    if raw is None:
        return None
    try:
        timeout_ms = float(raw)
    except (TypeError, ValueError):
        raise ApiError(
            400, "bad-timeout", f"timeout_ms must be a number, got {raw!r}"
        )
    if not 0.0 < timeout_ms <= MAX_TIMEOUT_MS:
        raise ApiError(
            400, "bad-timeout",
            f"timeout_ms must be in (0, {MAX_TIMEOUT_MS:.0f}], "
            f"got {timeout_ms}",
        )
    return timeout_ms


def _parse_spec(payload: dict) -> QueryRequest:
    """The candidates, τ, algorithm and PF a query or subscribe body
    names, as a request with no tenant or priority yet."""
    candidates = _parse_candidates(payload.get("candidates"))
    tau = payload.get("tau", 0.7)
    try:
        tau = float(tau)
    except (TypeError, ValueError):
        raise ApiError(400, "bad-tau", f"tau must be a number, got {tau!r}")
    if not 0.0 < tau < 1.0:
        raise ApiError(400, "bad-tau", f"tau must be in (0, 1), got {tau}")
    algorithm = payload.get("algorithm", "PIN-VO")
    if not isinstance(algorithm, str):
        raise ApiError(400, "bad-algorithm", "algorithm must be a string")
    return QueryRequest(
        candidates, _parse_pf(payload.get("pf")), tau, algorithm
    )


class HTTPFrontEnd:
    """The asyncio HTTP server bridging sockets onto one engine.

    ::

        engine = QueryEngine(objects, approx=True)
        front = HTTPFrontEnd(engine, port=8080)
        await front.start()
        ...
        await front.drain()   # or run_server(...) for the blocking form

    The front end owns the listener, the per-tenant admission state,
    and a bounded executor; it does **not** own the engine's
    construction, but :meth:`drain` closes the engine (flushing JSONL
    metrics/traces and unlinking /dev/shm segments) because a drained
    front end is the engine's end of life in a serving deployment.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: TenantAdmission | None = None,
        subscriptions: SubscriptionEngine | None = None,
        engine_threads: int = 4,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        write_timeout: float = DEFAULT_WRITE_TIMEOUT,
        drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    ):
        if engine_threads < 1:
            raise ValueError(
                f"engine_threads must be >= 1, got {engine_threads}"
            )
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        for name, value in (
            ("read_timeout", read_timeout),
            ("write_timeout", write_timeout),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if drain_seconds < 0:
            raise ValueError(
                f"drain_seconds must be >= 0, got {drain_seconds}"
            )
        self.engine = engine
        self.host = host
        self._requested_port = int(port)
        self.tenants = tenants or TenantAdmission()
        # The standing-query tier shares the engine's metrics registry
        # so one /metrics scrape covers pinls_http_*, pinls_queries_*,
        # and pinls_sub_* alike.
        self.subscriptions = subscriptions or SubscriptionEngine(
            default_pf=engine._default_pf or PowerLawPF(),
            metrics_registry=engine.metrics,
        )
        self.max_body_bytes = int(max_body_bytes)
        self.read_timeout = float(read_timeout)
        self.write_timeout = float(write_timeout)
        self.drain_seconds = float(drain_seconds)
        self._executor = ThreadPoolExecutor(
            max_workers=int(engine_threads),
            thread_name_prefix="pinls-http",
        )
        self._server: asyncio.AbstractServer | None = None
        self._handler_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._drained = False
        #: lifetime request counter (also the id shed outcomes carry)
        self.requests_served = 0
        self._inflight = 0
        self._init_http_metrics()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _init_http_metrics(self) -> None:
        """Register the ``pinls_http_*`` series on the engine registry.

        The registry refuses duplicate names, so a second front end
        over the same engine reuses the first one's series — both
        fronts then account into one catalog, which is what a scrape
        of the shared engine should see.
        """
        reg = self.engine.metrics
        self._m_requests = reg.get("pinls_http_requests_total") or reg.counter(
            "pinls_http_requests_total",
            "HTTP requests answered, by tenant, endpoint, and status "
            "code.",
            labels=("tenant", "endpoint", "code"),
        )
        self._m_latency = reg.get(
            "pinls_http_request_seconds"
        ) or reg.histogram(
            "pinls_http_request_seconds",
            "Wall time from request receipt to response write, per "
            "endpoint.",
            labels=("endpoint",),
        )
        self._m_sheds = reg.get("pinls_http_sheds_total") or reg.counter(
            "pinls_http_sheds_total",
            "Requests refused by per-tenant admission (HTTP 429), by "
            "tenant and shed reason.",
            labels=("tenant", "reason"),
        )
        self._m_approx = reg.get(
            "pinls_http_approx_answers_total"
        ) or reg.counter(
            "pinls_http_approx_answers_total",
            "Over-budget requests answered from the approximate tier "
            "instead of shed, by tenant.",
            labels=("tenant",),
        )
        gauge = reg.get("pinls_http_inflight_requests")
        if gauge is None:
            gauge = reg.gauge(
                "pinls_http_inflight_requests",
                "HTTP requests currently being handled by this front "
                "end.",
            )
            gauge.set_function(lambda: self._inflight)
        self._m_inflight = gauge
        draining = reg.get("pinls_http_draining")
        if draining is None:
            draining = reg.gauge(
                "pinls_http_draining",
                "1 while the front end is draining or drained, else 0.",
            )
            draining.set_function(lambda: int(self._draining))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "HTTPFrontEnd":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    @property
    def port(self) -> int:
        """The bound port while serving, else the requested one."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, budget: float | None = None) -> dict:
        """Graceful shutdown: stop accepting, finish or shed, close.

        1. mark draining (``/healthz`` flips to 503, new requests are
           refused with a typed 503 body),
        2. close the listener so no new connections arrive,
        3. wait up to the drain budget for in-flight handlers, then
           cancel the stragglers,
        4. shut the executor down (queued work cancelled),
        5. close the engine — JSONL metrics and traces are flushed by
           their append-per-event writers, pool workers are stopped
           and joined, and every /dev/shm segment is unlinked.

        Returns a summary dict (``tenants`` holds per-tenant
        offered/admitted/shed counts) and is idempotent — a second
        drain returns the summary again without re-closing anything.
        """
        if not self._drained:
            self._draining = True
            budget = self.drain_seconds if budget is None else float(budget)
            deadline = time.monotonic() + budget
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            pending = {t for t in self._handler_tasks if not t.done()}
            if pending:
                remaining = max(0.0, deadline - time.monotonic())
                done, still = await asyncio.wait(
                    pending, timeout=remaining
                )
                for task in still:
                    task.cancel()
                if still:
                    await asyncio.gather(*still, return_exceptions=True)
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.engine.close()
            self._drained = True
        return {
            "drained": True,
            "tenants": self.tenants.snapshot(),
            "requests_served": self.requests_served,
        }

    def drain_lines(self) -> list[str]:
        """Human-readable per-tenant drain summary (one grep-able line
        per tenant, plus the closing status line)."""
        lines = []
        for tenant, snap in sorted(self.tenants.snapshot().items()):
            lines.append(
                f"tenant {tenant}: offered={snap['offered']} "
                f"admitted={snap['admitted']} shed={snap['shed']} "
                f"(policy {snap['policy']}, "
                f"max-inflight {snap['max_inflight']})"
            )
        lines.append(
            f"drain: complete after {self.requests_served} request(s)"
        )
        return lines

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """One connection: read one request, answer it, close."""
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._inflight += 1
        started = time.perf_counter()
        endpoint = "unknown"
        tenant = DEFAULT_TENANT
        status = 500
        try:
            try:
                method, path, headers, body = await self._read_request(
                    reader
                )
                endpoint = path
                status, payload, tenant = await self._route(
                    method, path, headers, body
                )
            except ApiError as exc:
                status, payload = exc.status, exc.body()
            except asyncio.CancelledError:
                raise  # drain cancelled us; the connection just drops
            except (ConnectionError, asyncio.IncompleteReadError):
                return  # client went away mid-request: nothing to answer
            except Exception as exc:  # noqa: BLE001 - the no-traceback contract
                status = 500
                payload = ApiError(
                    500, "internal",
                    f"unexpected {type(exc).__name__} while handling "
                    "the request",
                ).body()
            await self._write_response(writer, status, payload)
        finally:
            self._inflight -= 1
            self.requests_served += 1
            elapsed = time.perf_counter() - started
            self._m_requests.inc(
                tenant=tenant, endpoint=endpoint, code=str(status)
            )
            self._m_latency.observe(elapsed, endpoint=endpoint)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request under the read timeout."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.read_timeout
            )
        except asyncio.TimeoutError:
            raise ApiError(
                408, "read-timeout",
                f"request head not received within "
                f"{self.read_timeout:.1f}s",
            )
        except asyncio.LimitOverrunError:
            raise ApiError(
                413, "headers-too-large", "request head exceeds the limit"
            )
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise ConnectionError("client closed before a request")
            raise ApiError(
                400, "bad-request", "connection closed mid-request-head"
            )
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise ApiError(
                400, "bad-request", "malformed HTTP request line"
            )
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        path = path.split("?", 1)[0]
        body = b""
        if method == "POST":
            if "chunked" in headers.get("transfer-encoding", "").lower():
                raise ApiError(
                    411, "length-required",
                    "chunked transfer encoding is not supported; send "
                    "a Content-Length",
                )
            raw_length = headers.get("content-length")
            if raw_length is None:
                raise ApiError(
                    411, "length-required",
                    "POST requests must carry a Content-Length header",
                )
            try:
                length = int(raw_length)
                if length < 0:
                    raise ValueError
            except ValueError:
                raise ApiError(
                    400, "bad-request",
                    f"invalid Content-Length {raw_length!r}",
                )
            if length > self.max_body_bytes:
                # refused before reading: an oversized body never
                # occupies the loop or the parser
                raise ApiError(
                    413, "body-too-large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit",
                )
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), self.read_timeout
                    )
                except asyncio.TimeoutError:
                    raise ApiError(
                        408, "read-timeout",
                        f"request body not received within "
                        f"{self.read_timeout:.1f}s",
                    )
        return method, path, headers, body

    async def _write_response(self, writer, status: int, payload) -> None:
        """Serialise and send one JSON (or text) response."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = CONTENT_TYPE
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = _REASON_PHRASES.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await asyncio.wait_for(writer.drain(), self.write_timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            # a stalled or vanished client cannot hold the handler:
            # drop the connection, the slot is freed by the caller
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    #: path -> (allowed methods, handler); ``/v1/subscriptions/{id}``
    #: stands for every path under ``/v1/subscriptions/``
    _ROUTES = {
        "/v1/query": (("POST",), "_handle_query"),
        "/v1/batch": (("POST",), "_handle_batch"),
        "/v1/subscribe": (("POST",), "_handle_subscribe"),
        "/v1/ingest": (("POST",), "_handle_ingest"),
        "/v1/subscriptions/{id}": (("GET", "DELETE"), "_handle_subscription"),
        "/healthz": (("GET",), "_handle_healthz"),
        "/metrics": (("GET",), "_handle_metrics"),
    }

    async def _route(self, method, path, headers, body):
        """Dispatch one parsed request; returns (status, payload, tenant).

        Every ``/v1/`` endpoint is refused with 503 while draining.
        """
        key = (
            "/v1/subscriptions/{id}"
            if path.startswith("/v1/subscriptions/") else path
        )
        if key not in self._ROUTES:
            raise ApiError(
                404, "not-found",
                f"no route for {path!r}; endpoints: "
                f"{', '.join(self._ROUTES)}",
            )
        methods, handler = self._ROUTES[key]
        if method not in methods:
            raise ApiError(
                405, "method-not-allowed", f"use {' or '.join(methods)}"
            )
        if key.startswith("/v1/") and self._draining:
            raise ApiError(
                503, "draining",
                "the server is draining and no longer accepts queries",
            )
        return await getattr(self, handler)(method, path, headers, body)

    async def _handle_healthz(self, method, path, headers, body):
        """Readiness: engine health + tenant budgets + front-end state."""
        health = self.engine.health()
        health["tenants"] = self.tenants.snapshot()
        health["subscriptions"] = self.subscriptions.stats()
        health["http"] = {
            "draining": self._draining,
            "inflight": self._inflight,
            "requests_served": self.requests_served,
        }
        if self._draining:
            health["status"] = "draining"
            health["ready"] = False
        status = 200 if health["ready"] else 503
        return status, health, DEFAULT_TENANT

    async def _handle_metrics(self, method, path, headers, body):
        """The engine's Prometheus page, ``pinls_http_*`` included."""
        return 200, self.engine.metrics.render(), DEFAULT_TENANT

    def _parse_body(self, body: bytes) -> dict:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(
                400, "bad-json", f"request body is not valid JSON: {exc}"
            )
        if not isinstance(parsed, dict):
            raise ApiError(
                400, "bad-json", "request body must be a JSON object"
            )
        return parsed

    def _parse_query(
        self, payload: dict, headers: dict, tenant_default: str | None = None
    ) -> QueryRequest:
        """One query object (top-level or batch member) as a request,
        its tenant and priority resolved (the tenant budget's priority
        when the body names none)."""
        tenant = payload.get("tenant") or tenant_default or headers.get(
            "x-tenant"
        ) or DEFAULT_TENANT
        if not isinstance(tenant, str) or not tenant:
            raise ApiError(400, "bad-tenant", "tenant must be a string")
        request = _parse_spec(payload)
        priority = payload.get("priority")
        if priority is None:
            priority = self.tenants.budget_for(tenant).priority
        try:
            request.priority = int(priority)
        except (TypeError, ValueError):
            raise ApiError(
                400, "bad-priority",
                f"priority must be an integer, got {priority!r}",
            )
        request.tenant = tenant
        return request

    # ------------------------------------------------------------------
    # /v1/query and /v1/batch: one request path
    # ------------------------------------------------------------------
    async def _handle_query(self, method, path, headers, body):
        """One query, answered as a batch of one: 200, or 429 if shed."""
        payload = self._parse_body(body)
        request = self._parse_query(payload, headers)
        (answer,) = await self._answer(
            [request], _parse_timeout_ms(payload, headers)
        )
        status = 429 if "error" in answer else 200
        return status, answer, request.tenant

    async def _handle_batch(self, method, path, headers, body):
        """Several queries through the same path as ``/v1/query``; the
        batch-level ``timeout_ms`` bounds the whole batch."""
        payload = self._parse_body(body)
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise ApiError(
                400, "bad-batch",
                'batch body must be {"queries": [...]} with at least '
                "one query",
            )
        batch_tenant = payload.get("tenant")
        timeout_ms = _parse_timeout_ms(payload, headers)
        requests: list[QueryRequest] = []
        for i, raw in enumerate(raw_queries):
            try:
                if not isinstance(raw, dict):
                    raise ApiError(400, "bad-batch", "must be an object")
                if raw.get("timeout_ms") is not None:
                    raise ApiError(
                        400, "bad-timeout",
                        "a batch member cannot carry its own timeout_ms; "
                        "set timeout_ms on the batch, which bounds the "
                        "whole batch",
                    )
                requests.append(
                    self._parse_query(raw, headers, tenant_default=batch_tenant)
                )
            except ApiError as exc:
                raise ApiError(
                    exc.status, exc.code, f"queries[{i}]: {exc.message}"
                )
        tenant_label = (
            batch_tenant if isinstance(batch_tenant, str) and batch_tenant
            else DEFAULT_TENANT
        )
        answers = await self._answer(requests, timeout_ms)
        return 200, {"results": answers}, tenant_label

    async def _answer(
        self, requests: list[QueryRequest], timeout_ms: float | None
    ) -> list[dict]:
        """Admit and answer one round of requests; bodies in request order.

        1. One ``admit_batch`` round per tenant runs on the event loop,
           so a shed request never waits for an executor thread
           (``by-priority`` keeps a tenant's high-priority requests,
           ``oldest`` its freshest; a full budget sheds as
           ``queue-full``).
        2. On an ``approx=True`` engine an over-budget request is
           answered from the sketch (:meth:`QueryEngine.query_approx`);
           otherwise it gets the typed 429 shed body.
        3. The admitted requests run in one
           :meth:`QueryEngine.query_batch` round on the executor,
           bounded by ``timeout_ms``; the tenants' slots are released
           when it returns.
        """
        answers: list = [None] * len(requests)
        by_tenant: dict[str, list[int]] = {}
        for i, request in enumerate(requests):
            by_tenant.setdefault(request.tenant, []).append(i)
        admitted: list[int] = []
        overflow: list[int] = []
        held: dict[str, int] = {}
        for tenant, indexes in by_tenant.items():
            controller = self.tenants.controller(tenant)
            ok, shed = controller.admit_batch(
                [requests[i].priority for i in indexes]
            )
            held[tenant] = len(ok)
            admitted.extend(indexes[k] for k in ok)
            for k, reason in shed:
                i = indexes[k]
                request = requests[i]
                if (
                    self.engine.approx
                    and request.algorithm in self.engine.APPROX_ALGORITHMS
                ):
                    # over budget but never unanswered: the estimate is
                    # too cheap to need a slot, and it is labelled
                    overflow.append(i)
                    continue
                outcome = QueryShed(
                    query_id=self.requests_served,
                    reason=reason,
                    policy=controller.policy,
                    priority=request.priority,
                    algorithm=request.algorithm,
                    tau=request.tau,
                    candidates=len(request.candidates),
                    tenant=tenant,
                )
                controller.report.note_shed(outcome)
                answers[i] = self._shed_body(outcome)
        admitted.sort()
        overflow.sort()
        deadline = timeout_ms / 1000.0 if timeout_ms is not None else None

        def run():
            exact = []
            if admitted:
                exact = self.engine.query_batch(
                    [requests[i] for i in admitted],
                    deadline_seconds=deadline,
                )
            estimates = [
                self.engine.query_approx(
                    r.candidates, pf=r.pf, tau=r.tau, algorithm=r.algorithm,
                    reason="overload", tenant=r.tenant,
                )
                for r in (requests[i] for i in overflow)
            ]
            return exact, estimates

        try:
            exact, estimates = (
                await self._run_engine(run)
                if admitted or overflow else ([], [])
            )
        finally:
            for tenant, n in held.items():
                self.tenants.release(tenant, n)
        for i, result in zip(admitted, exact):
            answers[i] = (
                # the engine's own (fleet backstop) admission shed it
                self._shed_body(result) if isinstance(result, QueryShed)
                else self._result_body(result, requests[i].tenant)
            )
        for i, result in zip(overflow, estimates):
            self._m_approx.inc(tenant=requests[i].tenant)
            answers[i] = self._result_body(result, requests[i].tenant)
        return answers

    def _shed_body(self, shed: QueryShed) -> dict:
        """Count one shed request and render its typed 429 body."""
        self._m_sheds.inc(tenant=shed.tenant, reason=shed.reason)
        out = ApiError(
            429, "shed",
            f"tenant {shed.tenant!r} is over its admission budget "
            f"({shed.reason}, policy {shed.policy!r})",
        ).body()
        out["shed"] = {
            "tenant": shed.tenant,
            "reason": shed.reason,
            "policy": shed.policy,
            "priority": shed.priority,
            "algorithm": shed.algorithm,
        }
        return out

    def _result_body(self, result, tenant: str) -> dict:
        """The response body for one completed query."""
        inst = result.instrumentation
        return {
            "tenant": tenant,
            "algorithm": result.algorithm,
            "best_candidate": {
                "id": result.best_candidate.candidate_id,
                "x": result.best_candidate.x,
                "y": result.best_candidate.y,
            },
            "best_influence": result.best_influence,
            "influences": {str(k): v for k, v in result.influences.items()},
            "quality": result.quality,
            "error_bound": result.error_bound,
            "elapsed_ms": round(result.elapsed_seconds * 1000.0, 3),
            "degraded": bool(inst.degraded),
        }

    async def _run_engine(self, fn, *args, **kwargs):
        """Run one engine call on the bounded executor.

        The event loop never executes engine work — slow queries (and
        slow clients waiting on them) occupy an executor thread, not
        the loop.  Engine-level outcomes are translated to typed HTTP
        errors here: a deadline overrun is 504, validation errors are
        400, and a closed engine is 503.
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, lambda: fn(*args, **kwargs)
            )
        except DeadlineExceeded:
            raise ApiError(
                504, "deadline-exceeded",
                "the query exceeded its timeout_ms budget",
            )
        except ValueError as exc:
            raise ApiError(400, "bad-query", str(exc))
        except RuntimeError as exc:
            raise ApiError(503, "engine-closed", str(exc))

    # ------------------------------------------------------------------
    # /v1/subscribe, /v1/ingest, /v1/subscriptions/{id}
    # ------------------------------------------------------------------
    async def _handle_subscribe(self, method, path, headers, body):
        """Register a standing query; answers its version-1 snapshot."""
        spec = _parse_spec(self._parse_body(body))

        def _subscribe():
            sub_id = self.subscriptions.subscribe(
                spec.candidates, tau=spec.tau, pf=spec.pf,
                algorithm=spec.algorithm,
            )
            return sub_id, self.subscriptions.snapshot(sub_id)

        sub_id, snap = await self._run_engine(_subscribe)
        return 200, {
            "subscription_id": sub_id,
            "snapshot": snap.to_dict(),
        }, DEFAULT_TENANT

    async def _handle_ingest(self, method, path, headers, body):
        """One coalesced ingest round of position updates."""
        payload = self._parse_body(body)
        raw = payload.get("updates")
        if raw is None and "object_id" in payload:
            raw = [[payload.get("object_id"), payload.get("x"),
                    payload.get("y")]]
        if not isinstance(raw, list) or not raw:
            raise ApiError(
                400, "bad-updates",
                'ingest body must be {"updates": [[object_id, x, y], ...]} '
                'or {"object_id": .., "x": .., "y": ..}',
            )
        updates = []
        for i, entry in enumerate(raw):
            try:
                if isinstance(entry, dict):
                    oid = int(entry["object_id"])
                    x, y = float(entry["x"]), float(entry["y"])
                else:
                    oid = int(entry[0])
                    x, y = float(entry[1]), float(entry[2])
            except (KeyError, IndexError, TypeError, ValueError):
                raise ApiError(
                    400, "bad-updates",
                    f"updates[{i}] is not an [object_id, x, y] triple",
                )
            updates.append((oid, x, y))
        report = await self._run_engine(
            self.subscriptions.ingest_batch, updates
        )
        return 200, {
            "offered": report.offered,
            "applied": report.applied,
            "shed": [
                {"object_id": s.object_id, "reason": s.reason,
                 "policy": s.policy}
                for s in report.shed
            ],
            "safe_region_hits": report.safe_region_hits,
            "crossings": report.crossings,
            "validations": report.validations,
            "changed_subscriptions": report.changed,
            "elapsed_ms": round(report.elapsed_seconds * 1000.0, 3),
        }, DEFAULT_TENANT

    def _parse_subscription_id(self, path: str) -> int:
        raw = path.rsplit("/", 1)[-1]
        try:
            return int(raw)
        except ValueError:
            raise ApiError(
                400, "bad-subscription-id",
                f"subscription id must be an integer, got {raw!r}",
            )

    async def _handle_subscription(self, method, path, headers, body):
        """GET = the current snapshot, DELETE = unsubscribe."""
        sub_id = self._parse_subscription_id(path)
        try:
            if method == "DELETE":
                await self._run_engine(
                    self.subscriptions.unsubscribe, sub_id
                )
                return 200, {"unsubscribed": sub_id}, DEFAULT_TENANT
            snap = await self._run_engine(
                self.subscriptions.snapshot, sub_id
            )
        except KeyError:
            raise ApiError(
                404, "unknown-subscription",
                f"no subscription with id {sub_id}",
            )
        return 200, snap.to_dict(), DEFAULT_TENANT


class BackgroundServer:
    """A front end running on a private event loop in a daemon thread.

    The form tests and the in-process benchmark harness use::

        with BackgroundServer(engine, tenants=...) as server:
            ... speak HTTP to server.port ...

    ``stop()`` (or leaving the context) runs the full drain on the
    server's loop and joins the thread.
    """

    def __init__(self, engine: QueryEngine, **kwargs):
        self.front = HTTPFrontEnd(engine, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="pinls-http-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("HTTP front end failed to start in 10s")
        if self._start_error is not None:
            raise self._start_error

    _start_error: BaseException | None = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.front.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the creator
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        # stop() stops the loop after draining; close it here so the
        # owning thread is the one that tears its loop down
        self._loop.close()

    @property
    def port(self) -> int:
        return self.front.port

    @property
    def url(self) -> str:
        return self.front.url

    def stop(self) -> dict:
        """Drain on the server's loop, stop it, join the thread."""
        if self._stopped:
            return {"drained": True, "already": True}
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.front.drain(), self._loop
        )
        summary = future.result(timeout=self.front.drain_seconds + 30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        return summary

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def run_server(
    engine: QueryEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tenants: TenantAdmission | None = None,
    engine_threads: int = 4,
    drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    write_timeout: float = DEFAULT_WRITE_TIMEOUT,
    out=None,
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, exit 0.

    Prints one ``serving on http://host:port`` line once bound (so
    wrappers and CI can discover an ephemeral port), then per-tenant
    shed lines and the drain status on shutdown.  Returns the process
    exit code — 0 after a clean drain.
    """
    out = out or sys.stdout
    front = HTTPFrontEnd(
        engine,
        host=host,
        port=port,
        tenants=tenants,
        engine_threads=engine_threads,
        drain_seconds=drain_seconds,
        max_body_bytes=max_body_bytes,
        read_timeout=read_timeout,
        write_timeout=write_timeout,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await front.start()
        print(f"serving on {front.url}", file=out, flush=True)
        await stop.wait()
        print("drain: signal received, draining", file=out, flush=True)
        await front.drain()

    asyncio.run(_serve())
    for line in front.drain_lines():
        print(line, file=out)
    if hasattr(out, "flush"):
        out.flush()
    return 0
