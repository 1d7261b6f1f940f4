"""Per-query span trees for the serving engine.

The JSONL metrics stream (one flat record per query) answers *what*
happened; it cannot answer *where a slow query spent its time* once
execution fans out across cache lookups, pool dispatches, worker
processes, and the sequential validation tail.  This module adds the
missing dimension: every query served with tracing enabled produces a
**span tree**

::

    query
    ├── admission        claiming an admission slot
    ├── plan             solver construction + cache resolution
    ├── prune            PIN-VO pruning in the parent (cache hit or computed)
    ├── dispatch         mode=serial: the solver; mode=pool: the pool round
    │   └── span:pin         per-span child, measured in the pool worker
    │                        and shipped back over its reply pipe
    ├── merge            assembling span outputs into the result
    └── validate         PIN-VO Strategy-1/2 validation (sequential)

carrying a ``trace_id`` that is also stamped into the query's JSONL
record, so logs, metrics, and traces correlate (the observability
contract is documented in ``docs/observability.md``).

Design constraints, in order:

* **zero-cost when off** — a disabled :class:`Tracer` hands out the
  module-level :data:`NOOP_SPAN` singleton whose methods do nothing
  and allocate nothing; the engine's hot path never branches on a
  flag, it just calls span methods,
* **cross-process children** — worker processes measure their own
  spans and ship a tiny picklable :class:`SpanRecord` back with the
  result payload (over the pool's reply pipes); span start times use
  the shared wall clock
  (``time.time()``) so children land on the parent's timeline,
* **results stay bit-identical** — tracing only ever *observes*;
  nothing about query execution reads trace state.

The reader half (:func:`read_trace_file`, :func:`summarize_traces`)
backs ``prime-ls trace-summary FILE``: it reconstructs the per-phase
breakdown (prune/dispatch/validate/…) for every completed query and
renders the aggregate table.  A missing or corrupt trace file raises
:class:`TraceReadError` — the CLI turns that into a usage message and
exit code 2, never a traceback.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

#: version stamp written into every exported trace line, so readers can
#: evolve with the format
TRACE_SCHEMA_VERSION = 1

#: the parent-side phase names of the span taxonomy, in canonical order
#: (child spans shipped from workers are named ``span:*``);
#: ``sketch``/``estimate`` appear only on approximate-tier queries
PHASES = (
    "admission", "plan", "prune", "sketch", "estimate",
    "dispatch", "validate", "merge",
)


@dataclass
class SpanRecord:
    """A finished span measured in another process.

    Small, plain, and picklable — it rides the pool's reply pipes next
    to the payload and the :class:`~repro.core.result.Instrumentation`
    counters, costing one tuple per span whether or not the parent
    keeps it.  ``start`` is
    wall-clock (``time.time()``) so the parent can place the child on
    its own timeline without a cross-process monotonic-clock contract.
    """

    name: str
    start: float
    duration: float
    attrs: dict = field(default_factory=dict)


def record_span(name: str, started_wall: float, started_perf: float,
                **attrs) -> SpanRecord:
    """Finish a worker-side measurement into a :class:`SpanRecord`.

    ``started_wall``/``started_perf`` are the ``time.time()`` /
    ``time.perf_counter()`` pair captured when the work began; the
    duration comes from the monotonic clock, the placement from the
    wall clock.
    """
    return SpanRecord(
        name=name,
        start=started_wall,
        duration=time.perf_counter() - started_perf,
        attrs=attrs,
    )


class Span:
    """One node of a query's span tree (parent-process side).

    Usable as a context manager (``with trace.child("prune"): ...``) or
    explicitly via :meth:`finish`.  Children are created with
    :meth:`child` (measured here) or :meth:`attach` (measured in a
    worker and shipped back as a :class:`SpanRecord`).
    """

    __slots__ = (
        "name", "trace_id", "attrs", "children", "start", "duration",
        "_t0",
    )

    def __init__(self, name: str, trace_id: str | None = None, **attrs):
        self.name = name
        self.trace_id = trace_id
        self.attrs = attrs
        self.children: list[Span | SpanRecord] = []
        self.start = time.time()
        self.duration: float | None = None
        self._t0 = time.perf_counter()

    #: real spans build trees; the no-op twin reports False
    enabled = True

    def child(self, name: str, **attrs) -> "Span":
        """Start a child span (its clock starts now)."""
        span = Span(name, **attrs)
        self.children.append(span)
        return span

    def attach(self, record: SpanRecord | None) -> None:
        """Adopt a worker-measured child span."""
        if record is not None:
            self.children.append(record)

    def set(self, **attrs) -> None:
        """Add/overwrite attributes on this span."""
        self.attrs.update(attrs)

    def finish(self, **attrs) -> "Span":
        """Stop the clock (idempotent — the first finish wins)."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0
        if attrs:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def to_dict(self) -> dict:
        """The JSON-serialisable tree rooted here (durations in seconds)."""
        self.finish()
        out: dict = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["schema"] = TRACE_SCHEMA_VERSION
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [
                child.to_dict() if isinstance(child, Span) else {
                    "name": child.name,
                    "start": child.start,
                    "duration": child.duration,
                    **({"attrs": child.attrs} if child.attrs else {}),
                }
                for child in self.children
            ]
        return out


class _NoopSpan:
    """The do-nothing twin of :class:`Span`; a single shared instance.

    Every method is a constant-time no-op returning the singleton, so a
    tracing-disabled engine pays one attribute load and one call per
    span site — the "tracing disabled = no-op spans" half of the
    overhead bound (guarded in tests/test_observability.py).
    """

    __slots__ = ()

    enabled = False
    trace_id = None
    name = "noop"

    def child(self, name: str, **attrs) -> "_NoopSpan":
        return self

    def attach(self, record) -> None:
        return None

    def set(self, **attrs) -> None:
        return None

    def finish(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the shared no-op span handed out by disabled tracers
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates, finishes, and exports per-query span trees.

    ``path`` (when given) receives one JSON line per exported trace —
    append-only, like the metrics JSONL.  ``enabled`` defaults to
    "have somewhere to write"; pass ``enabled=True`` with no path to
    keep trees only in :attr:`traces` (tests do this).  The in-memory
    list is bounded by ``max_traces`` so a long-lived serving session
    cannot leak (the file is never truncated).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        enabled: bool | None = None,
        max_traces: int = 10_000,
    ):
        self.path = Path(path) if path else None
        self.enabled = bool(
            enabled if enabled is not None else self.path is not None
        )
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = int(max_traces)
        #: exported span trees (dict form), oldest dropped beyond budget
        self.traces: list[dict] = []
        #: exported traces over the tracer's lifetime (never decremented)
        self.exported = 0
        self._seq = itertools.count()
        self._pid = os.getpid()

    def start(self, name: str, **attrs):
        """A new root span, or :data:`NOOP_SPAN` when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        trace_id = f"{self._pid:08x}-{next(self._seq):08x}"
        return Span(name, trace_id=trace_id, **attrs)

    def export(self, span) -> dict | None:
        """Finish ``span`` and persist its tree; no-op for the no-op span."""
        if span is None or not getattr(span, "enabled", False):
            return None
        tree = span.finish().to_dict()
        self.traces.append(tree)
        self.exported += 1
        while len(self.traces) > self.max_traces:
            del self.traces[0]
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as f:
                f.write(json.dumps(tree) + "\n")
        return tree


# ----------------------------------------------------------------------
# Reading traces back (prime-ls trace-summary)
# ----------------------------------------------------------------------
class TraceReadError(ValueError):
    """A trace file is missing, unreadable, or not trace JSONL."""


def read_trace_file(path: str | Path) -> list[dict]:
    """Parse a trace JSONL file into a list of span-tree dicts.

    Raises :class:`TraceReadError` (with a human-readable reason) on a
    missing file, a non-file path, undecodable JSON, or lines that are
    not span trees — the CLI's strict-flag policy turns these into exit
    code 2 instead of a traceback.
    """
    path = Path(path)
    if not path.exists():
        raise TraceReadError(f"trace file {path} does not exist")
    if not path.is_file():
        raise TraceReadError(f"trace path {path} is not a regular file")
    traces: list[dict] = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceReadError(f"cannot read trace file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            tree = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceReadError(
                f"{path}:{lineno}: not valid JSON ({exc.msg})"
            )
        if not isinstance(tree, dict) or "name" not in tree \
                or "duration" not in tree:
            raise TraceReadError(
                f"{path}:{lineno}: not a span tree (expected an object "
                "with 'name' and 'duration')"
            )
        traces.append(tree)
    if not traces:
        raise TraceReadError(f"trace file {path} holds no traces")
    return traces


def phase_seconds(trace: dict) -> dict[str, float]:
    """Per-phase seconds of one span tree, keyed by top-level child name.

    Only the root's direct children count — worker-side ``span:*``
    children measure aggregate work inside a phase, which
    would double-count its wall time.
    """
    phases: dict[str, float] = {}
    for child in trace.get("children", ()):
        name = child.get("name", "?")
        phases[name] = phases.get(name, 0.0) + float(
            child.get("duration") or 0.0
        )
    return phases


def worker_spans(trace: dict) -> list[dict]:
    """Every worker-measured child span in the tree, in timeline order."""
    found: list[dict] = []
    stack = list(trace.get("children", ()))
    while stack:
        node = stack.pop()
        name = node.get("name", "")
        if name.startswith("span:"):
            found.append(node)
        stack.extend(node.get("children", ()))
    return sorted(found, key=lambda s: s.get("start", 0.0))


def summarize_traces(traces: list[dict]) -> str:
    """The per-query phase-breakdown table behind ``trace-summary``."""
    from repro.experiments.tables import TextTable

    columns = ["query", "trace", "algorithm", "tier", "total ms"]
    shown_phases = [p for p in PHASES if any(
        p in phase_seconds(t) for t in traces
    )]
    columns += [f"{p} ms" for p in shown_phases]
    table = TextTable(columns)
    totals = {p: 0.0 for p in shown_phases}
    grand_total = 0.0
    for trace in traces:
        attrs = trace.get("attrs", {})
        phases = phase_seconds(trace)
        total_ms = float(trace.get("duration") or 0.0) * 1000.0
        grand_total += total_ms
        row = [
            attrs.get("query", "?"),
            str(trace.get("trace_id", "-"))[-8:],
            attrs.get("algorithm", "?"),
            attrs.get("tier", "?"),
            total_ms,
        ]
        for p in shown_phases:
            ms = phases.get(p, 0.0) * 1000.0
            totals[p] += ms
            row.append(ms)
        table.add_row(row, float_fmt="{:.2f}")
    table.add_row(
        ["all", "-", "-", "-", grand_total]
        + [totals[p] for p in shown_phases],
        float_fmt="{:.2f}",
    )
    n_workers = sum(len(worker_spans(t)) for t in traces)
    lines = [
        table.render(
            title=(
                f"trace summary: {len(traces)} trace(s), "
                f"{n_workers} worker span(s)"
            )
        ),
    ]
    if grand_total > 0 and shown_phases:
        parts = ", ".join(
            f"{p} {totals[p] / grand_total:.0%}" for p in shown_phases
        )
        lines.append(f"phase share of total wall time: {parts}")
    return "\n".join(lines)
