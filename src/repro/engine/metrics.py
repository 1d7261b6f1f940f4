"""Counters, gauges, histograms, and Prometheus text exposition.

The engine's :class:`~repro.engine.session.EngineStats` is a Python
dataclass an operator can only reach from inside the process; a fleet
monitor needs the same numbers in the one format every scraper speaks.
This module is a small, dependency-free metrics core:

* :class:`Counter` — monotonically increasing totals, optionally
  labelled (``queries_total{algorithm="PIN-VO",tier="pool"}``),
* :class:`Gauge` — point-in-time values; a gauge can be bound to a
  callback (:meth:`Gauge.set_function`) so queue depths and cache
  occupancy are sampled at scrape time instead of on the hot path,
* :class:`Histogram` — cumulative-bucket latency distributions with
  ``_bucket``/``_sum``/``_count`` series, Prometheus-style,
* :class:`MetricsRegistry` — the named collection rendering the
  `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
  (``# HELP``/``# TYPE`` comments, escaped label values, ``+Inf``
  bucket last).

The HTTP front end (:mod:`repro.engine.server`) serves the registry's
page at ``GET /metrics``; an embedder without the front end reads it
from :meth:`~repro.engine.session.QueryEngine.metrics_text`.

Metric names and the full catalog (name, type, labels, source counter)
are documented in ``docs/observability.md``; the registry enforces the
Prometheus name grammar at registration so a typo fails fast in tests
rather than silently producing an unscrapable page.

Thread-safety: one lock per metric guards its samples — updates come
from the serving thread while the exposition thread renders.  Values
are plain floats; rendering is wait-free enough for a scrape loop.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Sequence

#: Prometheus metric-name and label-name grammars
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default latency buckets (seconds) — sub-millisecond cache hits up to
#: multi-second degraded queries
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: content type of the text exposition format
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared name/help/label bookkeeping for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labelnames = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series(self, name: str, key: tuple, extra: str = "") -> str:
        pairs = [
            f'{label}="{_escape_label_value(value)}"'
            for label, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        if not pairs:
            return name
        return f"{name}{{{','.join(pairs)}}}"

    def header(self) -> list[str]:
        help_text = self.help.replace("\\", r"\\").replace("\n", r"\n")
        return [
            f"# HELP {self.name} {help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: dict[tuple, float] = {}
        self._functions: dict[tuple, Callable[[], float]] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0 — counters never go down)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Source this series from ``fn()`` at scrape time.

        For totals an existing component already tracks monotonically
        (cache evictions, breaker trips): mirroring them at scrape time
        cannot drift from the source of truth.
        """
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels) -> float:
        """The series' current total (callback-backed or direct)."""
        key = self._key(labels)
        with self._lock:
            if key in self._functions:
                return float(self._functions[key]())
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        """Sample lines for every series, label-sorted."""
        with self._lock:
            samples = dict(self._values)
            functions = dict(self._functions)
        for key, fn in functions.items():
            samples[key] = float(fn())
        return [
            f"{self._series(self.name, key)} {_format_value(value)}"
            for key, value in sorted(samples.items())
        ]


class Gauge(_Metric):
    """A point-in-time value; settable or sampled via callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: dict[tuple, float] = {}
        self._functions: dict[tuple, Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        """Set the series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (gauges may go either way)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount``."""
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Sample this series from ``fn()`` at scrape time."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels) -> float:
        """The series' current value (callback-backed or direct)."""
        key = self._key(labels)
        with self._lock:
            if key in self._functions:
                return float(self._functions[key]())
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        """Sample lines for every series, label-sorted."""
        with self._lock:
            samples = dict(self._values)
            functions = dict(self._functions)
        for key, fn in functions.items():
            samples[key] = float(fn())
        return [
            f"{self._series(self.name, key)} {_format_value(value)}"
            for key, value in sorted(samples.items())
        ]


class Histogram(_Metric):
    """Cumulative-bucket distribution with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        self.buckets = tuple(bounds)
        #: key -> (per-bucket counts, sum, count)
        self._data: dict[tuple, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the series' buckets."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            counts, total, n = self._data.get(
                key, ([0] * len(self.buckets), 0.0, 0)
            )
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._data[key] = (counts, total + value, n + 1)

    def count(self, **labels) -> int:
        """How many observations the series has recorded."""
        key = self._key(labels)
        with self._lock:
            return self._data.get(key, ([], 0.0, 0))[2]

    def render(self) -> list[str]:
        """``_bucket`` (cumulative, ``+Inf`` last), ``_sum``, ``_count``."""
        with self._lock:
            data = {
                key: (list(counts), total, n)
                for key, (counts, total, n) in self._data.items()
            }
        lines: list[str] = []
        bucket_name = self.name + "_bucket"
        for key, (counts, total, n) in sorted(data.items()):
            for bound, cumulative in zip(self.buckets, counts):
                le = 'le="%s"' % _format_value(bound)
                lines.append(
                    f"{self._series(bucket_name, key, le)} {cumulative}"
                )
            inf_le = 'le="+Inf"'
            lines.append(f"{self._series(bucket_name, key, inf_le)} {n}")
            lines.append(
                f"{self._series(self.name + '_sum', key)} "
                f"{_format_value(total)}"
            )
            lines.append(f"{self._series(self.name + '_count', key)} {n}")
        return lines


class MetricsRegistry:
    """A named collection of metrics rendering the exposition format."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:
        """Register and return a new :class:`Counter`."""
        return self._register(Counter(name, help, labels))

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Gauge:
        """Register and return a new :class:`Gauge`."""
        return self._register(Gauge(name, help, labels))

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Register and return a new :class:`Histogram`."""
        return self._register(Histogram(name, help, labels, buckets))

    def get(self, name: str) -> _Metric | None:
        """The registered metric called ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The full Prometheus text page (always newline-terminated)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            samples = metric.render()
            if not samples:
                continue  # a series-less metric renders nothing
            lines.extend(metric.header())
            lines.extend(samples)
        return "\n".join(lines) + "\n" if lines else "\n"
