"""Unit tests for the telemetry subsystem: tracer, metrics, forensics."""

import gc
import json
import weakref

import pytest

from repro.telemetry import (
    NULL_SPAN,
    NULL_TELEMETRY,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    SpanTracer,
    Telemetry,
    collect_operations,
    ensure_telemetry,
    jsonl_trace,
    load_jsonl,
    render_trace_report,
    split_records,
)


class FakeClock:
    """A settable clock standing in for Simulator.now."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestSpanTracer:
    def test_nesting_and_attributes(self):
        clock = FakeClock()
        records = []
        tracer = SpanTracer(records.append, clock)
        root = tracer.start_span("op", kind="test")
        clock.t = 1.0
        child = root.child("phase:snapshot")
        clock.t = 1.5
        child.end()
        clock.t = 2.0
        root.end(outcome="ok")

        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert child.duration == 0.5
        assert root.duration == 2.0
        assert root.attrs == {"kind": "test", "outcome": "ok"}
        # records reach the sink in *end* order: child first.
        assert [r["name"] for r in records] == ["op", "phase:snapshot"][::-1]

    def test_sink_receives_records_in_end_order(self):
        clock = FakeClock()
        records = []
        tracer = SpanTracer(records.append, clock)
        first = tracer.start_span("first")
        second = tracer.start_span("second")
        third = first.child("third")
        clock.t = 1.0
        second.end()
        assert [r["name"] for r in records] == ["second"]
        clock.t = 2.0
        third.end()
        first.end()
        assert [r["name"] for r in records] == ["second", "third", "first"]
        assert [r["end"] for r in records] == [1.0, 2.0, 2.0]
        assert records[1]["parent_id"] == records[2]["span_id"]

    def test_tracer_retains_no_ended_span(self):
        records = []
        tracer = SpanTracer(records.append, FakeClock())
        parent = tracer.start_span("parent")
        child = parent.child("child", n=1)
        child.end()
        parent.end()
        refs = [weakref.ref(parent), weakref.ref(child)]
        del parent, child
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        # The records survive on their own, detached from the spans.
        assert [r["name"] for r in records] == ["child", "parent"]
        assert records[0]["attrs"] == {"n": 1}

    def test_end_is_idempotent(self):
        clock = FakeClock()
        records = []
        tracer = SpanTracer(records.append, clock)
        span = tracer.start_span("once")
        clock.t = 1.0
        span.end()
        clock.t = 5.0
        span.end()
        assert span.end_time == 1.0
        assert len(records) == 1

    def test_context_manager_tags_errors(self):
        tracer = SpanTracer(lambda record: None, FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("no")
        assert span.ended
        assert span.attrs["error"] == "ValueError"

    def test_phase_records_match_dict_shape(self):
        clock = FakeClock()
        records = []
        tracer = SpanTracer(records.append, clock)
        op = tracer.start_span("begin_fidelity_op")
        a = op.child("phase:snapshot")
        clock.t = 0.25
        a.end()
        b = op.child("phase:choosing")
        clock.t = 0.75
        b.end()
        op.child("not_a_phase").end()
        clock.t = 1.0
        op.end()
        timings = {
            r["name"][len("phase:"):]: r["duration"]
            for r in records
            if r["name"].startswith("phase:")
            and r["parent_id"] == op.span_id
        }
        timings["total"] = records[-1]["duration"]
        assert timings == {
            "snapshot": 0.25, "choosing": 0.5, "total": 1.0,
        }

    def test_export_round_trip(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "trace.jsonl"
        with jsonl_trace(path) as telemetry:
            telemetry.bind_clock(clock)
            root = telemetry.tracer.start_span("outer", n=1)
            clock.t = 2.0
            root.child("inner").end()
            root.end()

        lines = path.read_text().splitlines()
        assert len(lines) == 3  # two spans, then the metrics trailer
        records = [json.loads(line) for line in lines[:-1]]
        by_name = {record["name"]: record for record in records}
        assert by_name["outer"]["attrs"] == {"n": 1}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["duration"] == 2.0
        assert all(record["type"] == "span" for record in records)

    def test_bind_clock_first_binder_wins(self):
        tracer = SpanTracer(lambda record: None)
        first, second = FakeClock(1.0), FakeClock(9.0)
        assert tracer.bind_clock(first)
        assert not tracer.bind_clock(second)
        assert tracer.now() == 1.0
        assert tracer.bind_clock(second, force=True)
        assert tracer.now() == 9.0


class TestNullTracer:
    def test_null_tracer_accumulates_nothing(self):
        span = NULL_TRACER.start_span("anything", x=1)
        assert span is NULL_SPAN
        assert span.child("more") is NULL_SPAN
        assert span.set(y=2) is span
        span.end(z=3)
        assert span.attrs == {}
        assert span.end_time is None and span.duration == 0.0
        # Nowhere to write: the null tracer holds no sink and no state.
        assert not NULL_TRACER.__dict__
        assert not NULL_TRACER.enabled

    def test_null_tracer_writes_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with jsonl_trace(path) as traced:
            telemetry = Telemetry(tracer=NULL_TRACER, metrics=traced.metrics)
            telemetry.bind_clock(FakeClock(3.0))
            with telemetry.tracer.span("anything") as span:
                span.child("more").end()
        (line,) = path.read_text().splitlines()
        assert json.loads(line) == {"type": "metrics", "metrics": {}}

    def test_null_telemetry_shared_and_inert(self, tmp_path):
        assert ensure_telemetry(None) is NULL_TELEMETRY
        telemetry = Telemetry()
        assert ensure_telemetry(telemetry) is telemetry
        assert not NULL_TELEMETRY.tracer.enabled
        NULL_TELEMETRY.metrics.counter("ops").inc()
        assert NULL_TELEMETRY.metrics.to_dict() == {}

    def test_default_telemetry_is_metrics_only(self):
        telemetry = Telemetry()
        assert telemetry.tracer is NULL_TRACER
        assert isinstance(telemetry.metrics, MetricsRegistry)
        assert not isinstance(telemetry.metrics, NullMetricsRegistry)
        telemetry.metrics.counter("ops").inc()
        assert telemetry.metrics.to_dict()["ops"]["value"] == 1.0


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_quantiles_interpolated(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 6.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == 12.5
        assert hist.mean == 2.5
        assert hist.min == 0.5 and hist.max == 6.0
        # Quantiles stay within the observed range...
        assert hist.quantile(0.0) >= hist.min
        assert hist.quantile(1.0) <= hist.max
        # ...and are monotone in q.
        qs = hist.quantiles([0.1, 0.5, 0.9, 1.0])
        assert qs == sorted(qs)
        # The median rank lands in the (1,2] bucket.
        assert 1.0 <= hist.quantile(0.5) <= 2.0

    def test_histogram_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(3.0, 1.0))
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert hist.quantile(0.5) == 0.0  # empty histogram

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("rpc.calls")
        assert registry.counter("rpc.calls") is counter
        with pytest.raises(TypeError):
            registry.gauge("rpc.calls")
        registry.histogram("rpc.latency_s")
        assert registry.names() == ["rpc.calls", "rpc.latency_s"]
        assert "rpc.calls" in registry and len(registry) == 2

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        registry.gauge("level").set(0.5)
        registry.histogram("lat").observe(0.2)
        snapshot = registry.to_dict()
        assert snapshot["n"] == {"kind": "counter", "value": 3.0}
        assert snapshot["level"] == {"kind": "gauge", "value": 0.5}
        assert snapshot["lat"]["count"] == 1
        assert snapshot["lat"]["min"] == snapshot["lat"]["max"] == 0.2
        assert json.dumps(snapshot)  # JSON-serializable throughout

    def test_null_registry_is_a_sink(self):
        registry = NullMetricsRegistry()
        sink = registry.counter("whatever")
        assert registry.histogram("other") is sink
        sink.inc()
        sink.observe(1.0)
        sink.set(2.0)
        assert registry.to_dict() == {}


class TestTelemetryHub:
    def test_export_appends_metrics_record(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "run.jsonl"
        with jsonl_trace(path) as telemetry:
            telemetry.bind_clock(clock)
            telemetry.tracer.start_span("s").end()
            telemetry.metrics.counter("ops").inc()
        assert len(path.read_text().splitlines()) == 2

        records = load_jsonl(path)
        spans, metrics = split_records(records)
        assert [record["name"] for record in spans] == ["s"]
        assert metrics["ops"]["value"] == 1.0


class TestForensics:
    @staticmethod
    def _span(name, span_id, start, end, parent_id=None, **attrs):
        return {"type": "span", "name": name, "span_id": span_id,
                "parent_id": parent_id, "start": start, "end": end,
                "duration": end - start, "attrs": attrs}

    def test_collect_operations_stitches_by_opid(self):
        spans = [
            self._span("begin_fidelity_op", 1, 0.0, 0.02,
                       opid=1, operation="f", alternative="local",
                       mode="solver"),
            self._span("phase:snapshot", 2, 0.0, 0.01, parent_id=1),
            self._span("rpc.call", 3, 0.1, 0.2, opid=1, bytes_sent=100),
            # Control traffic with an opid but no begin/end span must
            # not materialize a phantom operation.
            self._span("rpc.call", 4, 0.3, 0.4, opid=7),
            self._span("end_fidelity_op", 5, 0.5, 1.0,
                       opid=1, elapsed_s=1.0, energy_j=2.0),
        ]
        ops = collect_operations(spans)
        assert len(ops) == 1
        (op,) = ops
        assert op.opid == 1 and op.operation == "f"
        assert op.phases == {"snapshot": 0.01}
        assert len(op.rpcs) == 1
        assert op.elapsed_s == 1.0 and op.energy_j == 2.0
        assert not op.aborted

    def test_render_trace_report_smoke(self):
        records = [
            self._span("begin_fidelity_op", 1, 0.0, 0.02,
                       opid=1, operation="f", alternative="local",
                       mode="explored"),
            self._span("rpc.call", 2, 0.1, 0.2, opid=1, bytes_sent=512),
            {"type": "metrics", "metrics": {
                "sim.events": {"kind": "counter", "value": 9.0}}},
        ]
        report = render_trace_report(records)
        assert "1 operations" in report
        assert "rpc: 1 calls" in report
        assert "sim.events: 9" in report
