"""Unified telemetry tests: metrics, traces, SLOs, exporters, wiring.

The load-bearing contracts, property-tested where randomized inputs
matter:

- **merge exactness** — per-shard histogram recording then merging is
  indistinguishable from recording everything into one histogram
  (bucket counts, count/min/max and percentiles exactly; sums up to
  float addition order);
- **percentile guarantee** — the reported quantile is never below the
  true nearest-rank sample and lies in the same bucket;
- **thread safety** — 16 concurrent recorders lose nothing;
- **disabled path** — a disabled tracer mints trace ID 0, hands out the
  shared no-op span, and records nothing;
- **end-to-end** — a service run with telemetry produces a complete
  queue->batch->decode trace, a drain-worker busy histogram, and SLO state.
"""

import json
import math
import threading
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LockMonitor
from repro.core import ModelConfig, MTMLFQO
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.nn import kernels
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    NOOP_SPAN,
    MetricsRegistry,
    SLOObjective,
    SLOTracker,
    Telemetry,
    TelemetryConfig,
    TraceRecorder,
    read_snapshot,
    write_snapshot,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.export import render_metrics, render_slo, render_traces
from repro.obs.metrics import Histogram
from repro.serve import OptimizerService, ServeConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

BOUNDS = (0.001, 0.01, 0.1, 1.0)

samples = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def record_all(values, bounds=BOUNDS):
    h = Histogram("h", {}, bounds=bounds)
    for v in values:
        h.observe(v)
    return h


# ---------------------------------------------------------------------------
# histograms: merge exactness + percentile guarantee
# ---------------------------------------------------------------------------
class TestHistogramProperties:
    @given(samples, st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_sharded_recording_merges_to_single_recording(self, values, shards):
        single = record_all(values)
        merged = Histogram("h", {}, bounds=BOUNDS)
        for shard_index in range(shards):
            shard = record_all(values[shard_index::shards])
            merged.merge(shard)
        assert merged.bucket_counts() == single.bucket_counts()
        a, b = merged.summary(), single.summary()
        assert (a.count, a.min, a.max) == (b.count, b.min, b.max)
        assert (a.p50, a.p95, a.p99) == (b.p50, b.p95, b.p99)
        # Sums differ only by float addition order across shards.
        assert a.sum == pytest.approx(b.sum, rel=1e-9, abs=1e-12)

    @given(samples, st.sampled_from([50.0, 90.0, 95.0, 99.0, 100.0]))
    @settings(max_examples=150, deadline=None)
    def test_percentile_at_least_true_nearest_rank_and_same_bucket(self, values, q):
        h = record_all(values)
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        true = sorted(values)[rank - 1]
        reported = h.percentile(q)
        assert reported >= true
        assert bisect_left(BOUNDS, reported) == bisect_left(BOUNDS, true)

    def test_overflow_bucket_reports_observed_max(self):
        h = record_all([0.5, 2.0, 3.0, 4.0])
        assert h.percentile(100.0) == 4.0
        assert h.bucket_counts()[-1] == 3  # above the 1.0 bound

    def test_nan_rejected_and_empty_is_none(self):
        h = Histogram("h", {}, bounds=BOUNDS)
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        assert h.percentile(50.0) is None
        assert h.summary() is None

    def test_mismatched_bounds_merge_raises(self):
        a = Histogram("h", {}, bounds=BOUNDS)
        b = Histogram("h", {}, bounds=(0.5, 1.5))
        with pytest.raises(ValueError):
            a.merge(b)


class TestConcurrentRecording:
    @pytest.mark.threaded
    def test_16_threads_lose_nothing(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", bounds=BOUNDS)
        c = registry.counter("done")
        per_thread = 500

        def worker(seed):
            for i in range(per_thread):
                h.observe((seed * per_thread + i) % 100 / 50.0)
                c.inc()

        threads = [
            threading.Thread(target=worker, args=(t,), daemon=True) for t in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 16 * per_thread
        assert c.value == 16 * per_thread
        assert sum(h.bucket_counts()) == 16 * per_thread


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("x", {"k": "1"})
        assert registry.counter("x", {"k": "1"}) is a
        assert registry.counter("x", {"k": "2"}) is not a
        assert registry.find("x", {"k": "1"}) is a
        assert registry.find("missing") is None

    def test_kind_and_bounds_mismatch_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", bounds=BOUNDS)
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(0.5, 1.5))

    def test_counter_rejects_negative_and_gauge_keeps_max(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)
        g = registry.gauge("g")
        g.update_max(4)
        g.update_max(2)
        assert g.value == 4

    def test_registry_merge_adds_counters_and_creates_absent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(7)
        b.histogram("h", bounds=BOUNDS).observe(0.05)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 7
        assert a.histogram("h", bounds=BOUNDS).count == 1

    def test_tick_appends_series_points(self):
        registry = MetricsRegistry()
        c = registry.counter("c")
        c.inc()
        registry.tick(now=1.0)
        registry.tick(now=2.0)
        assert [p[0] for p in c.series.points()] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# trace recorder
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_context_manager_records_with_attrs_and_thread(self):
        tracer = TraceRecorder()
        tid = tracer.new_trace()
        with tracer.span(tid, "decode") as span:
            span.set("queries", 3)
        (span,) = tracer.trace(tid)
        assert span.name == "decode"
        assert span.attrs == {"queries": 3}
        assert span.thread == threading.current_thread().name
        assert span.duration_s >= 0

    def test_exception_inside_span_still_records_with_error_attr(self):
        tracer = TraceRecorder()
        tid = tracer.new_trace()
        with pytest.raises(RuntimeError):
            with tracer.span(tid, "work"):
                raise RuntimeError("boom")
        (span,) = tracer.trace(tid)
        assert span.attrs["error"] == "RuntimeError"

    def test_disabled_path_mints_zero_and_records_nothing(self):
        tracer = TraceRecorder(enabled=False)
        assert tracer.new_trace() == 0
        assert tracer.span(1, "x") is NOOP_SPAN
        assert tracer.span(0, "x") is NOOP_SPAN
        with tracer.span(tracer.new_trace(), "x") as span:
            span.set("k", 1)
        tracer.record(1, "x", 0.0, 1.0)
        tracer.event(1, "x")
        assert tracer.spans() == []
        tracer.enable()
        assert tracer.new_trace() == 1

    def test_untraced_id_zero_is_never_recorded(self):
        tracer = TraceRecorder()
        tracer.event(0, "x")
        assert tracer.spans() == []

    def test_ring_bound_drops_oldest_and_counts(self):
        tracer = TraceRecorder(capacity=4)
        tid = tracer.new_trace()
        for i in range(7):
            tracer.event(tid, f"e{i}")
        assert len(tracer.spans()) == 4
        assert tracer.dropped == 3
        assert [s.name for s in tracer.trace(tid)] == ["e3", "e4", "e5", "e6"]

    @pytest.mark.threaded
    def test_cross_thread_spans_land_on_one_trace(self):
        tracer = TraceRecorder()
        tid = tracer.new_trace()

        def worker():
            with tracer.span(tid, "worker.step"):
                pass

        thread = threading.Thread(target=worker, name="obs-worker", daemon=True)
        thread.start()
        thread.join()
        with tracer.span(tid, "client.step"):
            pass
        spans = tracer.trace(tid)
        assert {s.name for s in spans} == {"worker.step", "client.step"}
        assert {s.thread for s in spans} == {"obs-worker", threading.current_thread().name}
        assert tracer.complete_traces({"worker.step", "client.step"}) == [tid]


# ---------------------------------------------------------------------------
# SLO tracking
# ---------------------------------------------------------------------------
class TestSLOTracker:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLOObjective(latency_s=0.0)
        with pytest.raises(ValueError):
            SLOObjective(target=1.0)
        assert SLOObjective(target=0.95).budget == pytest.approx(0.05)

    def test_burn_rate_and_breach(self):
        tracker = SLOTracker(SLOObjective(latency_s=0.1, target=0.9), window=10)
        for _ in range(8):
            tracker.record("a", 0.05)  # meets
        for _ in range(2):
            tracker.record("a", 0.5)  # violates
        status = tracker.status("a")
        # 2/10 violations against a 10% budget: burning at exactly 2x.
        assert status.violation_rate == pytest.approx(0.2)
        assert status.burn_rate == pytest.approx(2.0)
        assert status.breached
        assert tracker.breached() == ("a",)

    def test_window_eviction_forgives_old_violations(self):
        tracker = SLOTracker(SLOObjective(latency_s=0.1, target=0.9), window=4)
        for _ in range(4):
            tracker.record("a", 0.5)
        assert tracker.status("a").breached
        for _ in range(4):
            tracker.record("a", 0.05)
        status = tracker.status("a")
        assert status.violations == 0
        assert not status.breached
        assert status.total == 8
        assert tracker.breached() == ()

    def test_tenants_are_independent(self):
        tracker = SLOTracker(SLOObjective(latency_s=0.1, target=0.9), window=10)
        tracker.record("fast", 0.01)
        for _ in range(5):
            tracker.record("slow", 9.0)
        assert tracker.breached() == ("slow",)
        assert not tracker.status("fast").breached

    def test_set_objective_resets_window(self):
        tracker = SLOTracker(window=10)
        tracker.record("a", 9.0)
        tracker.set_objective("a", SLOObjective(latency_s=10.0, target=0.5))
        status = tracker.status("a")
        assert status.window == 0 and status.total == 0


# ---------------------------------------------------------------------------
# export + CLI
# ---------------------------------------------------------------------------
class TestExport:
    def _populated(self):
        tel = Telemetry(TelemetryConfig(slo_latency_s=0.1))
        tel.registry.counter("serve.completed").inc(3)
        tel.registry.histogram("serve.latency_s").observe(0.02)
        tid = tel.tracer.new_trace()
        with tel.tracer.span(tid, "decode") as span:
            span.set("queries", 4)
        tel.tracer.event(tid, "cache.fill")
        tel.slo.record("tenant-a", 0.02)
        tel.slo.record("tenant-a", 0.5)
        return tel

    def test_snapshot_round_trip(self, tmp_path):
        tel = self._populated()
        path = tmp_path / "snap.json"
        write_snapshot(path, tel.snapshot())
        payload = read_snapshot(path)
        assert payload["enabled"] is True
        names = {m["name"] for m in payload["metrics"]}
        assert {"serve.completed", "serve.latency_s"} <= names
        assert any(s["name"] == "decode" for s in payload["traces"]["spans"])
        assert payload["slo"]["tenants"]["tenant-a"]["violations"] == 1

    def test_snapshot_version_is_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_renderers_cover_all_sections(self):
        payload = self._populated().snapshot()
        assert "serve.latency_s" in render_metrics(payload)
        assert "tenant-a" in render_slo(payload)
        traces = render_traces(payload)
        assert "decode" in traces and "cache.fill" in traces

    def test_cli_renders_and_fails_cleanly(self, tmp_path, capsys):
        tel = self._populated()
        path = tmp_path / "snap.json"
        write_snapshot(path, tel.snapshot())
        assert obs_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.completed" in out and "tenant-a" in out
        assert obs_main([str(path), "--section", "slo"]) == 0
        assert obs_main([str(path), "--format", "json"]) == 0
        assert obs_main([str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profiler + lock-monitor bridges
# ---------------------------------------------------------------------------
class TestInstrumentationBridges:
    def test_kernel_profile_record_into_accumulates(self):
        import numpy as np

        registry = MetricsRegistry()
        a = np.ones((4, 4), dtype=np.float64)
        with kernels.profiled() as profile:
            kernels.matmul(a, a)
        profile.record_into(registry)
        with kernels.profiled() as profile:
            kernels.matmul(a, a)
        profile.record_into(registry)
        calls = registry.find("kernel.calls", {"op": "matmul"})
        seconds = registry.find("kernel.seconds", {"op": "matmul"})
        assert calls.value == 2
        assert seconds.value > 0

    @pytest.mark.threaded
    def test_lock_monitor_records_hold_and_wait_histograms(self):
        registry = MetricsRegistry()
        monitor = LockMonitor(registry=registry)
        lock = monitor.lock("svc._mutex")
        with lock:
            pass
        with lock:
            pass
        hold = registry.find("lock.hold_s", {"lock": "svc._mutex"})
        wait = registry.find("lock.wait_s", {"lock": "svc._mutex"})
        assert hold.count == 2
        assert wait.count == 2


# ---------------------------------------------------------------------------
# end-to-end: service + telemetry
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def db():
    return generate_database(seed=11, num_tables=5, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=3))
    items = QueryLabeler(db).label_many(generator.generate(18), with_optimal_order=False)
    assert len(items) >= 8
    return items[:8]


@pytest.fixture(scope="module")
def model(db):
    featurizer = DatabaseFeaturizer(db, SMALL)
    featurizer.train_encoders(queries_per_table=4, epochs=2)
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    return model


REQUEST_SPANS = {"enqueue", "queue_wait", "batch", "decode", "request"}


@pytest.mark.threaded
class TestServiceTelemetry:
    def serve_all(self, service, items):
        results = {}
        errors = []

        def client(index, item):
            try:
                results[index] = service.optimize(item)
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i, item), daemon=True)
            for i, item in enumerate(items)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        return [results[i] for i in range(len(items))]

    def test_enabled_run_produces_complete_traces_and_slo(self, db, model, labeled):
        tel = Telemetry()
        config = ServeConfig(max_batch_size=4, max_wait_ms=2.0)
        with OptimizerService(model, db.name, config, telemetry=tel) as service:
            self.serve_all(service, labeled)
            self.serve_all(service, labeled)  # second pass: cache hits
            report = service.report()
        complete = tel.tracer.complete_traces(REQUEST_SPANS)
        assert complete, "no complete queue->batch->decode trace recorded"
        spans = tel.tracer.trace(complete[0])
        names = [s.name for s in spans]
        assert "cache.fill" in names or "cache.hit" in names
        decode = next(s for s in spans if s.name == "decode")
        assert 1 <= decode.attrs["queries"] <= config.max_batch_size
        # Metrics live in the shared registry under this service's label.
        latency = next(
            m for m in tel.registry.metrics() if m.name == "serve.latency_s"
        )
        assert latency.count == report.completed
        busy = next(m for m in tel.registry.metrics() if m.name == "serve.busy_s")
        assert busy.count > 0
        # SLO recorded every completed request under the tenant name.
        status = tel.slo.status(db.name)
        assert status is not None and status.total == report.completed
        # Cache-hit events landed on the second pass's traces.
        hit_events = [s for s in tel.tracer.spans() if s.name == "cache.hit"]
        assert hit_events

    def test_disabled_handle_serves_but_records_no_spans(self, db, model, labeled):
        tel = Telemetry.disabled()
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4), telemetry=tel) as service:
            self.serve_all(service, labeled)
            report = service.report()
        assert report.completed == len(labeled)
        assert tel.tracer.spans() == []
        assert tel.slo.statuses() == {}
        # The registry still carries the counters the report reads from.
        assert report.latency is not None

    def test_no_telemetry_baseline_still_reports(self, db, model, labeled):
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4)) as service:
            self.serve_all(service, labeled)
            report = service.report()
        assert report.completed == len(labeled)
        assert report.latency is not None and report.latency.count == len(labeled)

    def test_sequential_services_sharing_a_registry_do_not_collide(self, db, model, labeled):
        tel = Telemetry()
        with OptimizerService(model, db.name, ServeConfig(), telemetry=tel) as service:
            self.serve_all(service, labeled[:4])
            first = service.report().completed
        with OptimizerService(model, db.name, ServeConfig(), telemetry=tel) as service:
            self.serve_all(service, labeled[:4])
            second = service.report().completed
        assert first == 4 and second == 4  # not 8: distinct instance labels
