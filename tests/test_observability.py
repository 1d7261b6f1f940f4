"""Observability suite: span trees, metrics exposition, and the
trace-summary reader.

The contract under test is ``docs/observability.md``:

* every admitted query produces one span tree (``admission`` → ``plan``
  → ``prune``/``dispatch``/``validate``/``merge``) whose ``trace_id``
  is stamped into the matching JSONL record (schema v2),
* worker-side child spans travel back over the pool's reply pipes and
  appear under the parent's dispatch span, with one tree shape per
  tier whichever query method served the request,
* ``QueryEngine.metrics_text()`` renders valid Prometheus text
  exposition, and the HTTP front end serves the same page at
  ``GET /metrics``,
* tracing disabled hands out the no-op span singleton (no per-query
  allocation), and tracing *enabled* never changes a query's answer —
  spans observe, they do not steer.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.cli import main
from repro.engine import (
    NOOP_SPAN,
    FaultInjector,
    FaultSpec,
    MetricsRegistry,
    QueryRequest,
    SupervisorPolicy,
    TraceReadError,
    Tracer,
    phase_seconds,
    read_trace_file,
    summarize_traces,
    worker_spans,
)
from repro.engine.pool import fork_available
from repro.engine.server import BackgroundServer
from repro.engine.trace import record_span
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects
from .test_engine import assert_same_result

#: one Prometheus text-exposition line: a HELP/TYPE comment or a
#: ``name{labels} value`` sample
_EXPOSITION_LINE = re.compile(
    r"^(?:"
    r"# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:[0-9]*\.)?[0-9]+(?:e[+-]?[0-9]+)?|\+Inf|-Inf|NaN)"
    r")$"
)


def assert_valid_exposition(text: str) -> None:
    """Every non-empty line must match the exposition grammar."""
    assert text.endswith("\n")
    for line in text.splitlines():
        if line:
            assert _EXPOSITION_LINE.match(line), f"bad line: {line!r}"


def span_names(trace: dict) -> list[str]:
    """Names of the root's direct children, in order."""
    return [child["name"] for child in trace.get("children", [])]


def find_span(trace: dict, name: str) -> dict:
    for child in trace.get("children", []):
        if child["name"] == name:
            return child
    raise AssertionError(f"no {name!r} span in {span_names(trace)}")


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(7)
    return make_objects(rng, 25, n_range=(1, 10))


@pytest.fixture(scope="module")
def candidates():
    return make_candidates(np.random.default_rng(8), 12)


# ---------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_increments_and_renders(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", labels=("algo",))
        c.inc(algo="PIN")
        c.inc(2, algo="PIN")
        c.inc(algo="NA")
        assert c.value(algo="PIN") == 3
        assert c.value(algo="NA") == 1
        lines = c.render()
        assert 't_total{algo="NA"} 1' in lines
        assert 't_total{algo="PIN"} 3' in lines

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("t_total", "help")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_callback_mirrors_source(self):
        source = {"n": 5}
        c = MetricsRegistry().counter("t_total", "help")
        c.set_function(lambda: source["n"])
        assert c.value() == 5
        source["n"] = 9
        assert c.value() == 9
        assert c.render() == ["t_total 9"]

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("t_depth", "help")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3

    def test_label_mismatch_rejected(self):
        c = MetricsRegistry().counter("t_total", "help", labels=("a",))
        with pytest.raises(ValueError):
            c.inc(b=1)
        with pytest.raises(ValueError):
            c.inc()

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name", "help")
        with pytest.raises(ValueError):
            reg.counter("ok_name", "help", labels=("bad-label",))

    def test_duplicate_registration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "help")
        with pytest.raises(ValueError):
            reg.gauge("t_total", "help")

    def test_label_values_escaped(self):
        c = MetricsRegistry().counter("t_total", "help", labels=("p",))
        c.inc(p='a"b\\c\nd')
        (line,) = c.render()
        assert line == 't_total{p="a\\"b\\\\c\\nd"} 1'

    def test_histogram_buckets_are_cumulative(self):
        h = MetricsRegistry().histogram(
            "t_seconds", "help", buckets=(0.1, 1.0)
        )
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        lines = h.render()
        assert 't_seconds_bucket{le="0.1"} 1' in lines
        assert 't_seconds_bucket{le="1"} 2' in lines
        assert 't_seconds_bucket{le="+Inf"} 3' in lines
        assert "t_seconds_count 3" in lines
        assert h.count() == 3
        # +Inf must come after the finite buckets
        assert lines.index('t_seconds_bucket{le="+Inf"} 3') > lines.index(
            't_seconds_bucket{le="1"} 2'
        )

    def test_registry_page_is_valid_exposition(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help text", labels=("algo",))
        c.inc(algo="PIN-VO")
        g = reg.gauge("t_depth", "queue depth")
        g.set(2)
        h = reg.histogram("t_seconds", "latency")
        h.observe(0.02)
        page = reg.render()
        assert_valid_exposition(page)
        assert "# TYPE t_total counter" in page
        assert "# TYPE t_depth gauge" in page
        assert "# TYPE t_seconds histogram" in page

    def test_series_less_metric_renders_nothing(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "help")
        assert "t_total" not in reg.render()


# ---------------------------------------------------------------------
# trace primitives
# ---------------------------------------------------------------------
class TestTracePrimitives:
    def test_span_tree_shape(self):
        tracer = Tracer(enabled=True)
        root = tracer.start("query", algorithm="PIN")
        with root.child("plan", tier="serial"):
            pass
        child = root.child("dispatch", mode="serial")
        child.attach(record_span("shard:na", time.time(),
                                 time.perf_counter(), lo=0, hi=4))
        child.finish()
        tracer.export(root)
        (trace,) = tracer.traces
        assert trace["name"] == "query"
        assert trace["trace_id"]
        assert span_names(trace) == ["plan", "dispatch"]
        shard = find_span(trace, "dispatch")["children"][0]
        assert shard["name"] == "shard:na"
        assert shard["attrs"]["lo"] == 0

    def test_context_manager_records_errors(self):
        tracer = Tracer(enabled=True)
        root = tracer.start("query")
        with pytest.raises(RuntimeError):
            with root.child("validate"):
                raise RuntimeError("boom")
        tracer.export(root)
        child = find_span(tracer.traces[0], "validate")
        assert "RuntimeError" in child["attrs"]["error"]

    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer()
        span = tracer.start("query")
        assert span is NOOP_SPAN
        assert span.child("plan") is NOOP_SPAN
        span.finish()  # all no-ops, nothing raised
        tracer.export(span)
        assert tracer.traces == [] and tracer.exported == 0

    def test_noop_span_costs_nearly_nothing(self):
        span = NOOP_SPAN
        started = time.perf_counter()
        for _ in range(100_000):
            child = span.child("plan", tier="serial")
            child.set(x=1)
            child.finish()
        elapsed = time.perf_counter() - started
        # ~3 attr-free method calls per iteration; generous bound so
        # slow CI never flakes, but a real Span allocation would blow it
        assert elapsed < 2.0

    def test_trace_file_roundtrip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(path)
        assert tracer.enabled
        for q in range(3):
            root = tracer.start("query", algorithm="NA")
            with root.child("plan"):
                pass
            root.set(query=q)
            tracer.export(root)
        traces = read_trace_file(path)
        assert [t["attrs"]["query"] for t in traces] == [0, 1, 2]
        assert len({t["trace_id"] for t in traces}) == 3

    def test_read_errors(self, tmp_path):
        with pytest.raises(TraceReadError):
            read_trace_file(tmp_path / "missing.jsonl")
        with pytest.raises(TraceReadError):
            read_trace_file(tmp_path)  # a directory, not a file
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(TraceReadError) as excinfo:
            read_trace_file(bad)
        assert ":1:" in str(excinfo.value)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceReadError):
            read_trace_file(empty)
        scalar = tmp_path / "scalar.jsonl"
        scalar.write_text("42\n")
        with pytest.raises(TraceReadError):
            read_trace_file(scalar)

    def test_phase_seconds_and_summary(self):
        tracer = Tracer(enabled=True)
        root = tracer.start("query", algorithm="PIN-VO")
        with root.child("prune"):
            time.sleep(0.01)
        with root.child("validate"):
            pass
        tracer.export(root)
        phases = phase_seconds(tracer.traces[0])
        assert phases["prune"] >= 0.01
        assert set(phases) == {"prune", "validate"}
        assert worker_spans(tracer.traces[0]) == []
        text = summarize_traces(tracer.traces)
        assert "prune ms" in text and "PIN-VO" in text


# ---------------------------------------------------------------------
# engine integration: span trees per tier, trace_id correlation
# ---------------------------------------------------------------------
class TestEngineTracing:
    def run_engine(self, world, candidates, tmp_path, batch=False,
                   **kwargs):
        path = tmp_path / "traces.jsonl"
        engine = QueryEngine(
            world, metrics_path=tmp_path / "metrics.jsonl",
            trace_path=path, **kwargs,
        )
        try:
            for algorithm in ("NA", "PIN", "PIN-VO"):
                if batch:
                    engine.query_batch(
                        [candidates], tau=0.6, algorithm=algorithm
                    )
                else:
                    engine.query(candidates, tau=0.6, algorithm=algorithm)
        finally:
            engine.close()
        return engine, read_trace_file(path)

    def test_serial_span_trees(self, world, candidates, tmp_path):
        engine, traces = self.run_engine(world, candidates, tmp_path)
        assert len(traces) == 3
        for trace in traces[:2]:  # NA, PIN: no prune/validate phases
            assert span_names(trace) == ["admission", "plan", "dispatch"]
            assert find_span(trace, "dispatch")["attrs"]["mode"] == "serial"
        vo = traces[2]
        assert span_names(vo) == ["admission", "plan", "prune", "validate"]
        for trace in traces:
            assert trace["attrs"]["tier"] == "serial"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("batch", [False, True], ids=["query", "batch"])
    def test_pool_span_trees_carry_worker_spans(
        self, world, candidates, tmp_path, batch
    ):
        engine, traces = self.run_engine(
            world, candidates, tmp_path, batch=batch, workers=2, pool=True
        )
        na, _, vo = traces
        for trace in traces:
            assert trace["attrs"]["tier"] == "pool"
        assert span_names(na) == ["admission", "plan", "dispatch", "merge"]
        spans = find_span(na, "dispatch")["children"]
        assert [s["name"] for s in spans] == ["span:na", "span:na"]
        assert sorted(s["attrs"]["worker"] for s in spans) == [0, 1]
        # PIN-VO's pruning spans hang under the same dispatch node on
        # both query methods; validation follows in the parent
        assert span_names(vo) == [
            "admission", "plan", "dispatch", "merge", "validate"
        ]
        prunes = find_span(vo, "dispatch")["children"]
        assert [s["name"] for s in prunes] == ["span:vo_prune"] * 2
        assert worker_spans(vo) == sorted(prunes, key=lambda s: s["start"])

    def test_trace_ids_match_jsonl_records(self, world, candidates, tmp_path):
        engine, traces = self.run_engine(world, candidates, tmp_path)
        records = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert len(records) == len(traces) == 3
        for record, trace in zip(records, traces):
            assert record["schema"] == 2
            assert record["trace_id"] == trace["trace_id"]
            assert record["query"] == trace["attrs"]["query"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_batch_traces_every_request(self, world, candidates, tmp_path):
        for tier, kwargs in (("serial", {}), ("pool", {"workers": 2,
                                                       "pool": True})):
            path = tmp_path / f"{tier}-traces.jsonl"
            metrics = tmp_path / f"{tier}-metrics.jsonl"
            engine = QueryEngine(
                world, trace_path=path, metrics_path=metrics, **kwargs
            )
            try:
                engine.query_batch([
                    QueryRequest(candidates, None, 0.6, "PIN-VO"),
                    QueryRequest(candidates, None, 0.7, "NA"),
                    QueryRequest(candidates, None, 0.8, "PIN"),
                ])
            finally:
                engine.close()
            traces = read_trace_file(path)
            assert len(traces) == 3
            for trace in traces:
                assert trace["attrs"]["batch_size"] == 3
                assert span_names(trace)[0] == "admission"
            records = [
                json.loads(line) for line in metrics.read_text().splitlines()
            ]
            assert {r["trace_id"] for r in records} == {
                t["trace_id"] for t in traces
            }
            # one record format on every tier: the round size, and
            # "pool" exactly when the request ran on the pool tier
            for record in records:
                assert record["batch_size"] == 3
                assert record["tier"] == tier
                assert record["pool"] is (tier == "pool")

    def test_trace_summary_covers_every_query(
        self, world, candidates, tmp_path
    ):
        engine, traces = self.run_engine(world, candidates, tmp_path)
        text = summarize_traces(traces)
        for query in range(3):
            assert any(
                line.split()[0] == str(query)
                for line in text.splitlines()
                if line and line.split()[0].isdigit()
            ), f"query {query} missing from summary:\n{text}"


# ---------------------------------------------------------------------
# engine integration: metrics
# ---------------------------------------------------------------------
class TestEngineMetrics:
    def test_metrics_text_is_valid_and_complete(self, world, candidates):
        engine = QueryEngine(world)
        try:
            engine.query(candidates, tau=0.6, algorithm="PIN-VO")
            engine.query(candidates, tau=0.6, algorithm="PIN-VO")
            page = engine.metrics_text()
        finally:
            engine.close()
        assert_valid_exposition(page)
        assert (
            'pinls_queries_total{algorithm="PIN-VO",tier="serial",'
            'status="ok"} 2' in page
        )
        assert 'pinls_cache_hits_total{cache="tables"} 1' in page
        assert "pinls_query_latency_seconds_bucket" in page
        assert 'pinls_breaker_state{tier="pool"} 0' in page

    def test_shed_queries_counted(self, world, candidates):
        engine = QueryEngine(world, max_inflight=1, max_queue_depth=0)
        try:
            engine.query_batch([
                QueryRequest(candidates, None, 0.6, "NA")
                for _ in range(3)
            ])
            shed = engine.metrics.get("pinls_queries_shed_total")
            assert shed.value(reason="queue-full") == 2
            page = engine.metrics_text()
        finally:
            engine.close()
        assert 'status="shed"} 2' in page

    def test_endpoint_serves_the_registry(self, world, candidates):
        engine = QueryEngine(world)
        engine.query(candidates, tau=0.6, algorithm="NA")
        # leaving the block drains the front end, which closes the engine
        with BackgroundServer(engine) as server:
            assert 0 < server.port <= 65535
            url = f"{server.url}/metrics"
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = resp.read().decode("utf-8")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
        assert engine.closed
        assert_valid_exposition(body)
        assert (
            'pinls_queries_total{algorithm="NA",tier="serial",'
            'status="ok"} 1' in body
        )


# ---------------------------------------------------------------------
# tracing never changes answers
# ---------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ["NA", "PIN", "PIN-VO"])
    def test_traced_serial_equals_untraced(
        self, world, candidates, algorithm, tmp_path
    ):
        want = select_location(
            world, candidates, tau=0.6, algorithm=algorithm
        )
        engine = QueryEngine(world, trace_path=tmp_path / "t.jsonl")
        try:
            got = engine.query(candidates, tau=0.6, algorithm=algorithm)
        finally:
            engine.close()
        assert_same_result(got, want, counters=True)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
@given(
    n_objects=st.integers(min_value=2, max_value=10),
    n_candidates=st.integers(min_value=4, max_value=10),
    algorithm=st.sampled_from(["NA", "PIN", "PIN-VO"]),
    kind=st.sampled_from(["crash", "exception", "delay"]),
    worker=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_property_tracing_preserves_results_under_faults(
    n_objects, n_candidates, algorithm, kind, worker, seed, tmp_path_factory
):
    """With tracing ON and any single-worker fault schedule, the engine's
    answer still equals fault-free serial execution — the span tree
    observes the retry/degrade machinery without steering it."""
    rng = np.random.default_rng(seed)
    objects = make_objects(rng, n_objects, n_range=(1, 8))
    candidates = make_candidates(rng, n_candidates)
    pf = PowerLawPF()
    want = select_location(
        objects, candidates, pf=pf, tau=0.7, algorithm=algorithm
    )
    tmp_path = tmp_path_factory.mktemp("traces")
    engine = QueryEngine(
        objects,
        pool=True,
        workers=4,
        trace_path=tmp_path / "t.jsonl",
        supervisor_policy=SupervisorPolicy(
            max_retries=2, backoff_seconds=0.01
        ),
        fault_injector=FaultInjector([
            FaultSpec(kind=kind, worker=worker, times=1,
                      delay_seconds=0.01)
        ]),
    )
    try:
        got = engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
        assert_same_result(got, want, counters=True)
        assert engine.tracer.exported == 1
        trace = engine.tracer.traces[0]
        assert trace["attrs"]["algorithm"] == algorithm
    finally:
        engine.close()


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestTraceSummaryCLI:
    def test_missing_path_is_usage_error(self, capsys):
        assert main(["trace-summary"]) == 2
        assert "trace file" in capsys.readouterr().err

    def test_nonexistent_file_exits_2(self, capsys, tmp_path):
        assert main(["trace-summary", str(tmp_path / "no.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace-summary", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_path_rejected_on_other_commands(self, capsys):
        assert main(["table2", "foo.jsonl"]) == 2
        assert "unexpected argument" in capsys.readouterr().err

    def test_summarises_a_real_trace_file(self, capsys, world, candidates,
                                          tmp_path):
        path = tmp_path / "traces.jsonl"
        engine = QueryEngine(world, trace_path=path)
        try:
            engine.query(candidates, tau=0.6, algorithm="PIN-VO")
        finally:
            engine.close()
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PIN-VO" in out and "validate ms" in out
