"""The outside-in per-layer ledger.

A traced run installs timing wrappers around each layer's public
functions (``LAYERS``) from here, without editing the program, and turns
on the engine's own span tracer.  Every wrapper keeps a per-thread call
stack, so each layer is charged its *self* time: its duration minus the
time of wrapped calls nested inside it.  One row is recorded per
outermost call (a query, a batch round, an ingest round), holding the
self seconds per layer and the work counts the layer hooks read from
return values and engine counters.

``per_layer_metrics`` turns the rows of a measured window, the span
sums of the engine's trace trees and the harness timings into the
per-layer metrics named in ``BENCHMARK.json``.  A layer's cost is
reported twice: as self milliseconds per query or round (scaled to the
probe's reference speed, like the end-to-end times), which moves only
when that layer's work or speed changes, and as a share of the window's
raw wall time, which shows how much of the whole it is.  A layer a
workload never enters reads 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: work counts are also reported over the first rows of a window, a
#: prefix that holds the same operations for a given seed on any host
PREFIX_OPS = 4

#: top-level spans of a query trace charged to the session layer (the
#: prune/validate/dispatch spans are covered by wrappers instead)
SESSION_SPANS = ("admission", "plan", "merge", "sketch", "estimate")


def _pairs_hook(args, kwargs):
    mbrs, _radii, cand_xy = args[:3]

    def done(result, counts, elapsed):
        counts["pairs_classified"] += mbrs.shape[0] * cand_xy.shape[0]
    return done


def _session_hook(args, kwargs):
    stats = args[0].stats
    before = (stats.pruning_hits, stats.pruning_misses,
              stats.pool_respawns, stats.retries)

    def done(result, counts, elapsed):
        counts["pruning_hits"] += stats.pruning_hits - before[0]
        counts["pruning_misses"] += stats.pruning_misses - before[1]
        counts["respawns"] += stats.pool_respawns - before[2]
        counts["retries"] += stats.retries - before[3]
        for res in result if isinstance(result, list) else [result]:
            inst = getattr(res, "instrumentation", None)
            if inst is None:
                continue  # a shed outcome
            counts["queries"] += 1
            counts["pairs"] += inst.pairs_total
            counts["band_pairs"] += (
                inst.pairs_total - inst.pairs_pruned_ia - inst.pairs_pruned_nib
            )
            counts["positions_evaluated"] += inst.positions_evaluated
            counts["strategy1_skipped"] += inst.candidates_skipped_strategy1
            counts["fully_validated"] += inst.candidates_fully_validated
    return done


def _pool_hook(args, kwargs):
    pool = args[0]

    def done(result, counts, elapsed):
        busy: dict = defaultdict(float)
        for _payload, _counters, record in result.values():
            if record is not None:
                busy[record.attrs.get("worker", "parent")] += record.duration
        longest = max(busy.values(), default=0.0)
        counts["spans"] += len(result)
        counts["worker_busy_s"] += sum(busy.values())
        counts["dispatch_overhead_s"] += elapsed - longest
        counts["pool_size"] = pool.size
    return done


def _ingest_hook(args, kwargs):
    def done(report, counts, elapsed):
        counts["updates"] += report.applied
        counts["safe_region_hits"] += report.safe_region_hits
        counts["crossings"] += report.crossings
        counts["validations"] += report.validations
    return done


#: (module, attribute path, layer, hook).  The subscription engine's
#: crossing recomputation classifies through ``MBR.min_dist_many`` /
#: ``max_dist_many`` (``classify_span`` runs only when a subscription is
#: registered), and in these workloads nothing else calls them in a
#: measured window, so they are charged to ``sub.classify``.
LAYERS = (
    ("repro.core.pruning", "classify_span", "pruning.classify", _pairs_hook),
    ("repro.core.pinocchio_vo", "PinocchioVO.pruning_phase",
     "pruning.bookkeeping", None),
    ("repro.core.pinocchio_vo", "PinocchioVO.validation_phase",
     "validate", None),
    ("repro.engine.session", "QueryEngine.query", "session", _session_hook),
    ("repro.engine.session", "QueryEngine.query_batch", "session",
     _session_hook),
    ("repro.engine.pool", "WorkerPool.run_batch", "pool", _pool_hook),
    ("repro.engine.subscriptions", "SubscriptionEngine.ingest_batch",
     "sub.ingest", _ingest_hook),
    ("repro.engine.subscriptions", "validate_pair", "sub.validate", None),
    ("repro.geo.mbr", "MBR.min_dist_many", "sub.classify", None),
    ("repro.geo.mbr", "MBR.max_dist_many", "sub.classify", None),
)


class _Frame:
    __slots__ = ("row", "child")

    def __init__(self, row):
        self.row = row
        self.child = 0.0


class Ledger:
    """Self-time accounting over the wrapped layer functions."""

    def __init__(self):
        self.rows: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module, path, layer, hook in LAYERS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr, None)
            if original is None:
                # the layer was renamed or removed: its metrics read 0
                print(f"ledger: {module}.{path} not found, not timed",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(original, layer, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, original, layer, hook):
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return ledger._call(original, layer, hook, args, kwargs)
        return wrapper

    def _call(self, original, layer, hook, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        outermost = not stack
        row = (
            {"t": time.time(), "self": defaultdict(float),
             "counts": defaultdict(float)}
            if outermost else stack[-1].row
        )
        frame = _Frame(row)
        stack.append(frame)
        done = hook(args, kwargs) if hook is not None else None
        started = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            row["self"][layer] += elapsed - frame.child
            if stack:
                stack[-1].child += elapsed
        if done is not None:
            done(result, row["counts"], elapsed)
        if outermost:
            row["wall"] = elapsed
            with self._lock:
                self.rows.append(row)
        return result

    def rows_since(self, since_wall: float) -> list[dict]:
        """Rows whose outermost call started at or after ``since_wall``."""
        with self._lock:
            rows = [r for r in self.rows if r["t"] >= since_wall]
        return sorted(rows, key=lambda r: r["t"])


def compact_traces(traces: list[dict]) -> list[list[float]]:
    """``[start, session seconds, recompute seconds]`` per exported trace."""
    out = []
    for tree in traces:
        session = recompute = 0.0
        for child in tree.get("children", ()):
            name = child.get("name")
            seconds = float(child.get("duration") or 0.0)
            if name in SESSION_SPANS:
                session += seconds
            elif name == "recompute":
                recompute += seconds
        out.append([float(tree["start"]), session, recompute])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _ms_pct(seconds: list[float], q: float, slowdown: float) -> float:
    if not seconds:
        return 0.0
    return float(np.percentile(seconds, q)) * 1000.0 / slowdown


def per_layer_metrics(*, ops: int, wall_s: float, slowdown: float,
                      rows: list[dict], spans: list[list[float]],
                      overhead_ratio: float, table_build_s: float,
                      frontend_s: list[float] = (),
                      late_s: list[float] = (),
                      socket_wait_s: list[float] = ()
                      ) -> dict[str, float]:
    """The per-layer metrics of one traced window.

    ``wall_s`` is the summed raw latency of the window's ``ops`` primary
    operations, measured by the benchmark (for HTTP, from the moment the
    request was sent); every share divides by it.  ``rows`` and
    ``spans`` hold only that window.  ``frontend_s``, ``late_s`` and
    ``socket_wait_s`` are the HTTP harness's per-request times.

    Times in ms are divided by ``slowdown``, the host's probe slowdown
    over the window, like the end-to-end times; shares and counts are
    not scaled.  ``_per_query`` metrics divide by the queries answered
    (four per ``pool-batch`` round), ``_per_round`` ones by ``ops``.
    """
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    for row in rows:
        for layer, seconds in row["self"].items():
            self_s[layer] += seconds
        for key, value in row["counts"].items():
            if key == "pool_size":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    prefix: dict = defaultdict(float)
    for row in rows[:PREFIX_OPS]:
        for key, value in row["counts"].items():
            prefix[key] += value
    session_spans = sum(s[1] for s in spans)
    recompute = sum(s[2] for s in spans)
    rows_wall = sum(r["wall"] for r in rows)
    frontend = sum(frontend_s)
    named = (
        frontend + session_spans + self_s["pruning.classify"]
        + self_s["pruning.bookkeeping"] + self_s["validate"]
        + self_s["pool"] + recompute
    )
    hits, misses = counts["pruning_hits"], counts["pruning_misses"]
    queries = counts["queries"]

    def ms_per(seconds: float, n: float) -> float:
        return _ratio(seconds, n) * 1000.0 / slowdown

    return {
        "ledger.wall_ms_per_op": ms_per(wall_s, ops),
        "ledger.unattributed_share": 1.0 - _ratio(named, wall_s),
        "trace.overhead_ratio": overhead_ratio,
        "host.slowdown": slowdown,
        "loadgen.late_ms_p95": _ms_pct(late_s, 95, slowdown),
        "loadgen.socket_wait_ms_p95": _ms_pct(socket_wait_s, 95, slowdown),
        "server.frontend_ms_p50": _ms_pct(frontend_s, 50, slowdown),
        "server.frontend_ms_p95": _ms_pct(frontend_s, 95, slowdown),
        "server.frontend_share": _ratio(frontend, wall_s),
        "session.self_ms_per_query": ms_per(self_s["session"], queries),
        "session.self_share": _ratio(self_s["session"], wall_s),
        "session.spans_share": _ratio(session_spans, wall_s),
        "session.pruning_hit_rate": _ratio(hits, hits + misses),
        "session.table_build_s": table_build_s,
        "pruning.classify_ms_per_query": ms_per(
            self_s["pruning.classify"], queries
        ),
        "pruning.classify_share": _ratio(self_s["pruning.classify"], wall_s),
        "pruning.bookkeeping_ms_per_query": ms_per(
            self_s["pruning.bookkeeping"], queries
        ),
        "pruning.bookkeeping_share": _ratio(
            self_s["pruning.bookkeeping"], wall_s
        ),
        "pruning.pairs_per_s": _ratio(
            counts["pairs_classified"], self_s["pruning.classify"]
        ),
        "pruning.band_frac": _ratio(counts["band_pairs"], counts["pairs"]),
        "pruning.pairs": int(prefix["pairs"]),
        "pruning.band_pairs": int(prefix["band_pairs"]),
        "validate.ms_per_query": ms_per(self_s["validate"], queries),
        "validate.share": _ratio(self_s["validate"], wall_s),
        "validate.positions_per_query": _ratio(
            counts["positions_evaluated"], queries
        ),
        "validate.strategy1_skip_frac": _ratio(
            counts["strategy1_skipped"],
            counts["strategy1_skipped"] + counts["fully_validated"],
        ),
        "validate.positions_evaluated": int(prefix["positions_evaluated"]),
        "pool.run_batch_ms_per_round": ms_per(self_s["pool"], ops),
        "pool.run_batch_share": _ratio(self_s["pool"], wall_s),
        "pool.worker_busy_frac": _ratio(
            counts["worker_busy_s"], rows_wall * counts["pool_size"]
        ),
        "pool.dispatch_overhead_ms_per_round": ms_per(
            counts["dispatch_overhead_s"], ops
        ),
        "pool.dispatch_overhead_share": _ratio(
            counts["dispatch_overhead_s"], wall_s
        ),
        "pool.spans_per_round": _ratio(counts["spans"], ops),
        "pool.spans": int(prefix["spans"]),
        "pool.respawns": int(counts["respawns"]),
        "pool.retries": int(counts["retries"]),
        "sub.safe_region_hit_rate": _ratio(
            counts["safe_region_hits"],
            counts["safe_region_hits"] + counts["crossings"],
        ),
        "sub.crossings_per_update": _ratio(
            counts["crossings"], counts["updates"]
        ),
        "sub.validations_per_crossing": _ratio(
            counts["validations"], counts["crossings"]
        ),
        "sub.recompute_share": _ratio(recompute, wall_s),
        "sub.classify_ms_per_round": ms_per(self_s["sub.classify"], ops),
        "sub.classify_share": _ratio(self_s["sub.classify"], wall_s),
        "sub.validate_ms_per_round": ms_per(self_s["sub.validate"], ops),
        "sub.validate_share": _ratio(self_s["sub.validate"], wall_s),
        "sub.crossings": int(prefix["crossings"]),
        "sub.validations": int(prefix["validations"]),
    }
