"""Persistent fork worker pool for the serving engine.

The candidate axis is split into contiguous column spans
(:func:`column_spans`); each span is resolved independently and the
parent concatenates the per-span arrays and merges the work counters.
Because every object-candidate pair is computed independently in the
pooled phases (PIN/NA influence tables, PIN-VO's pruning phase), the
merged output is bit-identical to serial execution.  PIN-VO's
heap-driven validation phase is sequential within a query — Strategy 1
compares candidates against a global bound — but independent across
queries.  So an admission round with two or more cold PIN-VO requests
sends each of them to one worker whole (task kind ``"vo"``: the
pruning phase, then the validation phase, on the serial code path),
and the task ships its untouched pruning output back for the engine's
pruning cache.  A lone cold request keeps the column split of its
pruning phase and is validated in the parent on the merged output.

Starting a worker per query would pay process startup and
copy-on-write page faults on *every* dispatch.  This module amortises
that cost the way the engine's caches amortise table construction:
``QueryEngine`` lazily starts N long-lived workers, and thereafter
every query only ships span *bounds* and candidate slices down a
per-worker pipe.  An engine's fleet never changes after ingest and
its workers are forked after ingest, so each worker reads the
parent's fleet export (:class:`~repro.core.object_table.ColumnarTable`)
through the pages it inherited: NA reads it as it is, and a span for
a ``(PF, τ)`` carries the parent's table key, under which the worker
builds that table's radius column (:class:`ObjectTable`) on first use
and memoises it in an LRU of the engine's ``CacheBudget.max_tables``
entries, like the parent's table cache.  Nothing is copied into or out
of shared memory.

Dispatch protocol (all messages are plain picklable tuples):

* ``("span", task_id, table_key, kind, algorithm, kwargs, pf, tau,
  cand_slice, query_id, attempt, injector)`` — run one candidate span
  (``kind`` is ``"na"``/``"pin"``/``"vo_prune"``), or one whole PIN-VO
  query (``"vo"``, whose slice is every candidate), and reply
  ``("ok", task_id, payload, counters, span_record)`` or
  ``("error", task_id, msg)``; the trailing
  :class:`~repro.engine.trace.SpanRecord` is the worker-measured trace
  child the parent hangs under the query's span tree.  ``table_key``
  is ``None`` for NA, which reads the fleet.
* ``("stop",)`` — exit.

Supervision (one :class:`Supervisor` per admission round): a dead
worker is detected via its process sentinel (not pipe EOF — sibling
forks inherit copies of the other pipes' fds, which would defeat EOF
detection) alongside its result pipe, or by a failed ``send`` when it
died idle between rounds; any buffered results are drained first, the
worker is respawned (a fresh fork inherits the same fleet export), and
its in-flight spans are re-dispatched with bounded backoff.  Once a
span exhausts :attr:`SupervisorPolicy.max_retries` — or the pool
tier's circuit breaker (:mod:`repro.engine.breaker`) trips, cancelling
further retries at a tier the ladder has given up on — it degrades to
a serial in-parent run over the task's ``local_context`` — fault hooks
never fire in the parent, so the degraded pass is fault-free by
construction.  A deadline overrun hard-kills the busy workers (then
respawns them so the pool stays warm), joins everything — no orphans —
and raises :class:`~repro.engine.faults.DeadlineExceeded`.

Results are bit-identical to serial: a worker reads the parent's fleet
arrays, builds its tables with the parent's arithmetic, and every span
is a pure function of the table and its candidate slice (asserted in
tests/test_pool.py, including under injected crash/delay faults and
mid-batch respawns).

Cleanup: :meth:`WorkerPool.close` stops and joins the workers, and a
``weakref.finalize`` hook kills and joins any left at garbage
collection / interpreter exit, guarded by an owner-pid check so a
forked child never tears down its siblings.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from typing import Any

import numpy as np

from repro.core.object_table import ColumnarTable, ObjectTable
from repro.core.result import Instrumentation
from repro.engine.cache import CacheBudget, LRUCache
from repro.engine.faults import (
    DeadlineExceeded,
    FaultInjector,
    SupervisorPolicy,
    SupervisorReport,
)
from repro.engine.trace import record_span

#: spans kept in flight per worker: one running plus one queued in the
#: pipe, so a worker never idles between spans but a death never loses
#: more than two dispatches
MAX_INFLIGHT = 2


def fork_available() -> bool:
    """Whether fork-based worker processes are supported here."""
    return "fork" in multiprocessing.get_all_start_methods()


def column_spans(m: int, shards: int) -> list[tuple[int, int]]:
    """Split ``m`` candidate columns into ≤ ``shards`` contiguous spans."""
    shards = max(1, min(shards, m))
    bounds = np.linspace(0, m, shards + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]


class Supervisor:
    """Supervision state for one admission round's pool dispatch.

    Carries the absolute deadline, the fault injector handed to
    workers, the executing tier's circuit breaker, and the
    :class:`SupervisorReport` the engine folds into its stats (the
    retry budget is the pool's :class:`SupervisorPolicy`).  One
    instance per round of :meth:`QueryEngine.query` /
    :meth:`QueryEngine.query_batch`.
    """

    def __init__(
        self,
        *,
        injector: FaultInjector | None = None,
        deadline_seconds: float | None = None,
        breaker=None,
    ):
        self.injector = injector
        #: the executing tier's CircuitBreaker.  Span failures feed it,
        #: and a breaker that trips mid-round cancels the remaining
        #: retries — the ladder will route the *next* round lower
        #: instead of this one burning backoff on a dead tier.
        self.breaker = breaker
        self.report = SupervisorReport()
        self.deadline_seconds = deadline_seconds
        self.started_at = time.monotonic()
        self.deadline_at = (
            self.started_at + deadline_seconds
            if deadline_seconds is not None
            else None
        )

    def elapsed(self) -> float:
        """Seconds since the supervisor (i.e. the round) started."""
        return time.monotonic() - self.started_at

    def remaining(self) -> float | None:
        """Seconds left in the budget, or ``None`` when unbounded."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.monotonic()

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        Serial sections (the validation of a PIN-VO request whose
        pruning ran as column spans or was cached, the degraded
        fallback, the serial tier) call this at phase boundaries —
        cooperative enforcement, versus the hard kill applied to
        workers, which also stops a whole-query task mid-validation.
        """
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            self.report.deadline_exceeded = True
            self.report.note(
                f"deadline of {self.deadline_seconds:.3f}s exceeded "
                f"after {self.elapsed():.3f}s"
            )
            raise DeadlineExceeded(self.deadline_seconds, self.elapsed())


# ----------------------------------------------------------------------
# Span tasks
# ----------------------------------------------------------------------
@dataclass
class SpanTask:
    """One candidate-column span of one query, pool-dispatchable.

    Only :meth:`message` travels to a worker; ``local_context`` (the
    parent-side table or fleet export used by the degrade-to-serial
    fallback) deliberately stays out of it so spans never pickle object
    data.
    The mutable tail fields are supervision bookkeeping the pool uses
    to attribute failures/retries to the owning query.
    """

    task_id: int
    table_key: tuple | None   # the parent's (PF, τ) table key; None: fleet
    kind: str                 # "na" | "pin" | "vo_prune" | "vo" (whole)
    algorithm: str            # registry name to rebuild the solver from
    algorithm_kwargs: dict
    pf: Any
    tau: float
    cand_slice: np.ndarray    # this span's (hi - lo, 2) candidate columns
    lo: int
    hi: int
    query_id: int | None = None   # engine query id, for fault keying
    local_context: Any = None     # parent table or fleet export; not pickled
    attempt: int = 0
    failures: int = 0
    retries: int = 0
    degraded: bool = False

    def message(self, injector) -> tuple:
        """The picklable pipe message dispatching this span."""
        return (
            "span", self.task_id, self.table_key, self.kind,
            self.algorithm, self.algorithm_kwargs, self.pf, self.tau,
            self.cand_slice, self.query_id, self.attempt, injector,
        )


def _execute_span(kind: str, solver, data, cand_slice, pf, tau):
    """Run one task: ``kind`` picks the solver phases and their data.

    A ``"vo"`` task is one whole PIN-VO query: the pruning phase, then
    the validation phase with ``range(m)`` as the candidate sequence,
    so its payload is ``(minInf, VS, pruning counts, best index, best
    influence, influences)`` — the pruning output and counts as they
    were before validation, for the parent's pruning cache — and its
    record carries both phase times.

    Returns ``(payload, counters, span_record)`` — the record is the
    worker-measured trace child shipped back with the result so the
    parent can hang it under the query's span tree.
    """
    counters = Instrumentation()
    t_wall, t_perf = time.time(), time.perf_counter()
    attrs: dict = {}
    if kind in ("na", "pin"):
        # "pin" reads the table, "na" the fleet export
        payload = solver.compute_influence(
            data, cand_slice, pf, tau, counters
        )
    else:
        with counters.phase("pruning"):
            payload = solver.pruning_phase(data, cand_slice, counters)
    if kind == "vo":
        min_inf, vs_indexes = payload
        # validation mutates minInf and the counters: copy both first
        pruned = (min_inf.copy(), vs_indexes, replace(counters))
        result = solver.validation_phase(
            data, range(len(min_inf)), cand_slice, pf, tau, counters,
            min_inf, vs_indexes,
        )
        payload = pruned + (
            result.best_candidate, result.best_influence, result.influences
        )
        attrs = {
            "pruning_s": counters.pruning_seconds,
            "validation_s": counters.validation_seconds,
        }
    record = record_span(
        f"span:{kind}", t_wall, t_perf, pid=os.getpid(), **attrs
    )
    return payload, counters, record


def _run_local(task: SpanTask):
    """Degraded fallback: run the span in the parent on parent data."""
    from repro import make_algorithm

    solver = make_algorithm(task.algorithm, **task.algorithm_kwargs)
    payload, counters, record = _execute_span(
        task.kind, solver, task.local_context, task.cand_slice,
        task.pf, task.tau,
    )
    record.attrs["degraded"] = True
    return payload, counters, record


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _solver_for(cache: dict, algorithm: str, kwargs: dict):
    """Memoised solver construction inside a worker."""
    key = (algorithm, tuple(sorted(kwargs.items())))
    solver = cache.get(key)
    if solver is None:
        from repro import make_algorithm

        solver = cache[key] = make_algorithm(algorithm, **kwargs)
    return solver


def _worker_main(
    slot: int, conn, sibling_conns, fleet: ColumnarTable, max_tables: int
) -> None:
    """Long-lived worker loop: answer spans over the inherited fleet.

    ``fleet`` is the parent's export, inherited through fork and never
    copied; each table is built over it on first use and memoised
    under the parent's table key, at most ``max_tables`` of them (the
    least recently used is dropped first), and every span record says
    how many the worker holds as ``tables``.  Exits via ``os._exit``
    so the forked child never runs the parent's atexit hooks (in
    particular the pool finalizer, which also checks the owner pid).
    """
    for sibling in sibling_conns:
        # Inherited copies of the other workers' parent-side pipe ends;
        # close them so this worker only ever holds its own pipe.
        try:
            sibling.close()
        except OSError:
            pass
    tables = LRUCache("tables", max_entries=max_tables)
    solvers: dict = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            (_, task_id, key, kind, algorithm, kwargs, pf, tau,
             cand_slice, query_id, attempt, injector) = msg
            try:
                if injector is not None:
                    injector.fire(
                        worker=slot, query=query_id, attempt=attempt
                    )
                if key is None:
                    data: Any = fleet
                else:
                    data = tables.get(key)
                    if data is None:
                        data = tables[key] = ObjectTable(fleet, pf, tau)
                solver = _solver_for(solvers, algorithm, kwargs)
                payload, counters, record = _execute_span(
                    kind, solver, data, cand_slice, pf, tau
                )
                record.attrs["worker"] = slot
                record.attrs["tables"] = len(tables)
                conn.send(("ok", task_id, payload, counters, record))
            except BaseException as exc:  # noqa: BLE001 — parent decides
                try:
                    conn.send(
                        ("error", task_id, f"{type(exc).__name__}: {exc}")
                    )
                except (BrokenPipeError, OSError):
                    break
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _PoolWorker:
    """Parent-side record of one pool slot."""

    slot: int
    process: multiprocessing.Process
    conn: Any
    #: task_id -> SpanTask currently dispatched to this worker
    inflight: dict = field(default_factory=dict)


def _cleanup_state(state: dict) -> None:
    """Finalizer body: kill and join leftover workers.

    Runs in the pool-owning process only — forked children inherit the
    finalizer and must not kill their siblings.  Idempotent, so an
    explicit :meth:`WorkerPool.close` followed by the finalizer is
    harmless.
    """
    if os.getpid() != state["pid"]:
        return
    for proc in state["procs"]:
        if proc.is_alive():
            proc.kill()
    for proc in state["procs"]:
        try:
            proc.join(timeout=1.0)
        except (AssertionError, ValueError):
            pass


class WorkerPool:
    """N long-lived fork workers over one fleet export.

    Created lazily by :class:`~repro.engine.session.QueryEngine` on the
    first pooled dispatch; one pool serves every subsequent query of
    the session.  ``fleet`` is the engine's export, which every worker
    (and every respawned one) inherits through fork, so it must not
    change while the pool lives; each worker memoises at most
    ``max_tables`` tables over it (the engine passes its
    ``CacheBudget.max_tables``).  ``run_batch`` is the sole entry
    point: it dispatches span tasks round-robin (at most
    :data:`MAX_INFLIGHT` per worker), supervises failures per the
    :class:`SupervisorPolicy`, and returns ``{task_id: (payload,
    counters, span_record)}``.
    """

    def __init__(
        self,
        size: int,
        fleet: ColumnarTable,
        policy: SupervisorPolicy | None = None,
        max_tables: int = CacheBudget.max_tables,
    ):
        if size < 2:
            raise ValueError(f"a worker pool needs size >= 2, got {size}")
        if not fork_available():
            raise RuntimeError("WorkerPool requires the fork start method")
        self.size = int(size)
        self.fleet = fleet
        self.policy = policy or SupervisorPolicy()
        #: tables each worker memoises (the engine's table budget)
        self.max_tables = int(max_tables)
        self._mp = multiprocessing.get_context("fork")
        #: table key -> the PF first dispatched under it.  A worker may
        #: hold a table under a key for its lifetime, so the PF is held
        #: to keep an identity-based key from being recycled.
        self._table_pfs: dict[tuple, Any] = {}
        self._workers: list[_PoolWorker] = []
        self._closed = False
        # One dispatch round at a time.  Concurrent callers (the HTTP
        # front end runs the engine on several threads) would share the
        # workers' pipes and in-flight maps: one round's death handling
        # requeues another's spans, and a round can wait forever on a
        # reply the other round already consumed.
        self._lock = threading.Lock()
        #: workers killed and replaced over the pool's lifetime
        self.respawns = 0
        self._state = {"pid": os.getpid(), "procs": []}
        self._finalizer = weakref.finalize(self, _cleanup_state, self._state)
        for slot in range(self.size):
            self._workers.append(self._spawn(slot))

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: int) -> _PoolWorker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        siblings = [w.conn for w in self._workers if w is not None]
        proc = self._mp.Process(
            target=_worker_main,
            args=(slot, child_conn, siblings, self.fleet, self.max_tables),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._state["procs"].append(proc)
        return _PoolWorker(slot, proc, parent_conn)

    def close(self) -> None:
        """Stop the workers and join them.  Idempotent; waits for a
        dispatch round in progress to finish first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 2.0
            for worker in self._workers:
                worker.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
                worker.conn.close()
            self._workers = []
            self._finalizer.detach()

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        """Spans currently dispatched and unanswered, across workers.

        Sampled by the engine's ``pinls_pool_queue_depth`` gauge at
        scrape time; between dispatch rounds this is 0.
        """
        return sum(len(w.inflight) for w in self._workers)

    # -- dispatch ------------------------------------------------------
    def run_batch(self, tasks: list[SpanTask], supervisor) -> dict:
        """Dispatch ``tasks``, supervise, return ``{task_id: result}``.

        ``supervisor`` is the round's :class:`Supervisor`; its report is
        updated in place (failures, retries, respawns, spans) and its
        deadline is enforced — on overrun every busy worker is killed,
        respawned, and joined before ``DeadlineExceeded`` propagates.
        Concurrent callers are served one round at a time.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            for task in tasks:
                task.attempt = 0
                task.failures = 0
                task.retries = 0
                task.degraded = False
                if task.table_key is not None:
                    self._table_pfs.setdefault(task.table_key, task.pf)
            results: dict[int, Any] = {}
            degraded: list[SpanTask] = []
            pending: deque[SpanTask] = deque(tasks)
            try:
                while pending or any(w.inflight for w in self._workers):
                    supervisor.check_deadline()
                    self._fill(supervisor, results, pending, degraded)
                    self._wait_round(supervisor, results, pending, degraded)
            except DeadlineExceeded:
                self._kill_busy(supervisor)
                raise
            if degraded:
                supervisor.report.degraded = True
                supervisor.report.note(
                    f"running {len(degraded)} exhausted span(s) serially "
                    "in the parent"
                )
                for task in degraded:
                    supervisor.check_deadline()
                    results[task.task_id] = _run_local(task)
            return results

    def _fill(
        self, supervisor, results: dict, pending: deque, degraded: list
    ) -> None:
        """Hand pending tasks to the least-loaded workers."""
        while pending:
            target = min(
                (w for w in self._workers
                 if len(w.inflight) < MAX_INFLIGHT),
                key=lambda w: (len(w.inflight), w.slot),
                default=None,
            )
            if target is None:
                return
            task = pending.popleft()
            target.inflight[task.task_id] = task
            supervisor.report.spans_dispatched += 1
            try:
                target.conn.send(task.message(supervisor.injector))
            except OSError:
                # The worker died since its last reply (between rounds,
                # or right after failing an earlier span of this one):
                # a failed send is a death like any other.
                target.process.kill()
                self._handle_death(
                    target, supervisor, pending, degraded, results
                )

    def _wait_round(
        self, supervisor, results: dict, pending: deque, degraded: list
    ) -> None:
        """One wait on every busy worker's pipe and process sentinel."""
        waitees: dict[Any, _PoolWorker] = {}
        for worker in self._workers:
            if worker.inflight:
                waitees[worker.conn] = worker
                waitees[worker.process.sentinel] = worker
        if not waitees:
            return
        ready = connection_wait(
            list(waitees), timeout=supervisor.remaining()
        )
        if not ready:
            supervisor.check_deadline()
            return
        handled_dead: set[int] = set()
        for item in ready:
            worker = waitees[item]
            if (
                self._workers[worker.slot] is not worker
                or worker.slot in handled_dead
            ):
                continue  # already respawned while handling this round
            if item is worker.conn:
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    handled_dead.add(worker.slot)
                    self._handle_death(
                        worker, supervisor, pending, degraded,
                        results,
                    )
                    continue
                self._apply_message(
                    worker, msg, supervisor, results, pending, degraded
                )
            else:  # process sentinel
                if worker.process.is_alive():
                    continue
                handled_dead.add(worker.slot)
                self._handle_death(
                    worker, supervisor, pending, degraded, results
                )

    def _apply_message(
        self,
        worker: _PoolWorker,
        msg: tuple,
        supervisor,
        results: dict,
        pending: deque,
        degraded: list,
    ) -> None:
        status, task_id = msg[0], msg[1]
        task = worker.inflight.pop(task_id, None)
        if task is None:
            return  # stale reply from a superseded dispatch
        if status == "ok":
            results[task_id] = (msg[2], msg[3], msg[4])
            return
        task.failures += 1
        supervisor.report.worker_failures += 1
        if supervisor.breaker is not None:
            supervisor.breaker.record_failure()
        supervisor.report.note(
            f"pool worker {worker.slot} failed span {task_id}: {msg[2]}"
        )
        self._requeue([task], supervisor, pending, degraded)

    def _handle_death(
        self,
        worker: _PoolWorker,
        supervisor,
        pending: deque,
        degraded: list,
        results: dict,
    ) -> None:
        """Drain, respawn, and re-dispatch after a worker died."""
        # Results the worker sent before dying are still valid — drain
        # them so completed spans are not recomputed.
        while True:
            try:
                if not worker.conn.poll(0):
                    break
                msg = worker.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                break
            self._apply_message(
                worker, msg, supervisor, results, pending, degraded
            )
        worker.process.join()
        exitcode = worker.process.exitcode
        worker.conn.close()
        failed = list(worker.inflight.values())
        worker.inflight.clear()
        self.respawns += 1
        supervisor.report.respawns += 1
        supervisor.report.note(
            f"pool worker {worker.slot} died (exitcode {exitcode}); "
            "respawned"
        )
        self._workers[worker.slot] = self._spawn(worker.slot)
        for task in failed:
            task.failures += 1
            supervisor.report.worker_failures += 1
            if supervisor.breaker is not None:
                supervisor.breaker.record_failure()
        if failed:
            supervisor.report.note(
                f"re-dispatching {len(failed)} span(s) lost with "
                f"worker {worker.slot}"
            )
            self._requeue(failed, supervisor, pending, degraded)

    def _requeue(
        self,
        failed: list[SpanTask],
        supervisor,
        pending: deque,
        degraded: list,
    ) -> None:
        retry: list[SpanTask] = []
        breaker_open = (
            supervisor.breaker is not None
            and not supervisor.breaker.allow()
        )
        for task in failed:
            if task.attempt >= self.policy.max_retries or breaker_open:
                task.degraded = True
                degraded.append(task)
                supervisor.report.note(
                    f"span {task.task_id} exhausted retries; "
                    "will degrade to serial"
                    if not breaker_open else
                    f"span {task.task_id} abandoned: the pool tier's "
                    "circuit breaker tripped; will degrade to serial"
                )
            else:
                retry.append(task)
        if not retry:
            return
        pause = self.policy.backoff_for(min(t.attempt for t in retry))
        remaining = supervisor.remaining()
        if remaining is not None:
            pause = min(pause, max(0.0, remaining))
        supervisor.report.retries += len(retry)
        for task in retry:
            task.retries += 1
            task.attempt += 1
        supervisor.report.note(
            f"retrying {len(retry)} span(s) after {pause:.3f}s backoff"
        )
        if pause > 0:
            time.sleep(pause)
        pending.extendleft(retry)

    def _kill_busy(self, supervisor) -> None:
        """Deadline fired: kill+respawn busy workers so none is orphaned
        and the pool stays warm for the next query."""
        killed = 0
        for worker in list(self._workers):
            if worker.inflight:
                worker.process.kill()
                worker.process.join()
                worker.conn.close()
                worker.inflight.clear()
                self.respawns += 1
                supervisor.report.respawns += 1
                self._workers[worker.slot] = self._spawn(worker.slot)
                killed += 1
        if killed:
            supervisor.report.note(
                f"deadline expired: {killed} busy pool worker(s) killed "
                "and respawned"
            )
