"""Per-request instrumentation of the optimizer service.

:class:`ServiceStats` is the live, thread-safe accumulator the service
writes to; :meth:`ServiceStats.snapshot` freezes it into a
:class:`ServingReport`, which ``repro.eval.reporting.format_serving_report``
renders in the repo's table style.

Since the telemetry PR this is a thin facade over a
:class:`repro.obs.MetricsRegistry`: every counter is a named registry
metric (labeled with the owning service instance), and latency lives in
a **fixed-bucket histogram** instead of the former bounded sample deque
— memory is O(buckets) regardless of traffic, and per-shard histograms
merge exactly.  Percentiles in the resulting
:class:`~repro.eval.metrics.LatencyStats` are bucket-resolution: never
below the true nearest-rank sample and at most its bucket's upper
bound, a bucket being about 2-2.5x wide with the default bounds
(count/mean/max stay exact); see :class:`repro.obs.metrics.Histogram`.
Passing a shared registry (via ``OptimizerService(..., telemetry=...)``)
makes the same numbers visible to the fleet-wide snapshot with no
second accounting path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..eval.metrics import LatencyStats
from ..obs.metrics import MetricsRegistry
from .cache import CacheStats

__all__ = ["ServiceStats", "ServingReport"]


@dataclass
class ServingReport:
    """Frozen view of a service's counters at one instant."""

    completed: int
    rejected: int
    failed: int
    cache_hits: int
    cache_misses: int
    coalesced: int
    batches: int
    batched_requests: int
    model_calls: int          # queries actually sent through the model
    max_batch: int
    swaps: int                # live model hot-swaps performed
    queue_depth: int
    cache_entries: int
    elapsed_s: float
    latency: "LatencyStats | None"
    # A timed-out waiter found its response already computed when it
    # marked itself abandoned; the response was returned, not discarded.
    timeout_near_misses: int = 0
    # Online-adaptation counters (0 unless a feedback path / adaptation
    # worker is attached to the service; see repro.serve.feedback and
    # repro.serve.adaptation).
    feedback_collected: int = 0   # experiences added to the buffer
    feedback_deduped: int = 0     # submissions dropped as already-seen
    feedback_rejected: int = 0    # executions skipped (over limit, ...)
    retrains: int = 0             # adaptation cycles that fine-tuned
    swaps_accepted: int = 0       # retrains that passed the gate + swapped
    swaps_rejected: int = 0       # retrains blocked by the regression gate
    adaptation_failures: int = 0  # cycles that crashed before a verdict
    busy_s: float = 0.0   # wall-clock the drain worker spent on batches
    # cache_hits/cache_misses above cover the *current* cache epoch only;
    # swap_model resets the cache counters and retires the old epoch's
    # totals here, so lifetime lookups are current + retired while
    # cache_hit_rate never blends numbers across a swap.
    retired_cache_hits: int = 0
    retired_cache_misses: int = 0

    @property
    def throughput_qps(self) -> float:
        """Completed requests per second of serving wall-clock."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def mean_batch_size(self) -> float:
        """Mean requests drained per batch (coalescing included)."""
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of the *current* cache epoch (since the last swap)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def replica_busy_s(self) -> "tuple[float, ...]":
        # Compatibility for perfbench/workloads.py; goes when it reads busy_s.
        return (self.busy_s,)


class ServiceStats:
    """Thread-safe counters; one instance per service.

    Each metric is its own registry entry with its own lock, so writers
    on different counters never contend; ``_lock`` here guards only the
    first/last-activity timestamps.  No metric is ever recorded while
    holding ``_lock`` (the analyzer's ``obs-discipline`` rule).
    """

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        labels: "dict[str, str] | None" = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._first_request_at: float | None = None  # guarded-by: _lock
        self._last_done_at: float | None = None  # guarded-by: _lock
        counter = self.registry.counter
        self._completed = counter("serve.completed", labels=self.labels)
        self._rejected = counter("serve.rejected", labels=self.labels)
        self._failed = counter("serve.failed", labels=self.labels)
        self._coalesced = counter("serve.coalesced", labels=self.labels)
        self._batches = counter("serve.batches", labels=self.labels)
        self._batched_requests = counter("serve.batched_requests", labels=self.labels)
        self._model_calls = counter("serve.model_calls", labels=self.labels)
        self._swaps = counter("serve.swaps", labels=self.labels)
        self._near_misses = counter("serve.timeout_near_misses", labels=self.labels)
        self._retired_hits = counter("serve.retired_cache_hits", labels=self.labels)
        self._retired_misses = counter("serve.retired_cache_misses", labels=self.labels)
        self._max_batch = self.registry.gauge("serve.max_batch", labels=self.labels)
        self._latency = self.registry.histogram("serve.latency_s", labels=self.labels)
        self._busy = self.registry.histogram("serve.busy_s", labels=self.labels)

    # -- writers (service-internal) ------------------------------------
    def note_request(self) -> float:
        now = time.perf_counter()
        with self._lock:
            if self._first_request_at is None:
                self._first_request_at = now
        return now

    def note_completed(self, started_at: float) -> float:
        """Count a served request; returns its latency in seconds."""
        now = time.perf_counter()
        latency = now - started_at
        with self._lock:
            self._last_done_at = now
        self._completed.inc()
        self._latency.observe(latency)
        return latency

    def note_failed(self) -> None:
        now = time.perf_counter()
        with self._lock:
            self._last_done_at = now
        self._failed.inc()

    def note_rejected(self) -> None:
        self._rejected.inc()

    def note_swap(self, retired: "CacheStats | None" = None) -> None:
        """Count a hot swap; ``retired`` is the pre-swap cache epoch's
        stats (from ``PlanCache.clear(reset_stats=True)``), accumulated
        so lifetime lookup totals survive the counter reset."""
        self._swaps.inc()
        if retired is not None:
            self._retired_hits.inc(retired.hits)
            self._retired_misses.inc(retired.misses)

    def note_timeout_near_miss(self) -> None:
        self._near_misses.inc()

    def note_batch(self, num_requests: int, num_model_queries: int, num_coalesced: int) -> None:
        self._batches.inc()
        self._batched_requests.inc(num_requests)
        self._model_calls.inc(num_model_queries)
        self._coalesced.inc(num_coalesced)
        self._max_batch.update_max(num_requests)

    def note_busy(self, busy_s: float) -> None:
        """Wall-clock the drain worker spent processing a batch (the
        utilization numerator; recorded even when the batch failed)."""
        self._busy.observe(busy_s)

    # ------------------------------------------------------------------
    def _latency_stats(self) -> "LatencyStats | None":
        summary = self._latency.summary()
        if summary is None:
            return None
        return LatencyStats(
            count=summary.count,
            mean=summary.mean,
            p50=summary.p50,
            p95=summary.p95,
            p99=summary.p99,
            max=summary.max,
        )

    def snapshot(self, queue_depth: int = 0, cache: "object | None" = None) -> ServingReport:
        """Freeze the counters (plus the cache's, if one is passed)."""
        # Snapshot the cache *before* taking our own lock: CacheStats is
        # captured atomically under the cache's lock, and never nesting
        # the two locks keeps the ordering trivially cycle-free.
        cache_stats = cache.stats() if cache is not None else CacheStats(0, 0, 0)
        with self._lock:
            if self._first_request_at is None:
                elapsed = 0.0
            else:
                end = self._last_done_at or time.perf_counter()
                elapsed = max(end - self._first_request_at, 0.0)
        return ServingReport(
            completed=int(self._completed.value),
            rejected=int(self._rejected.value),
            failed=int(self._failed.value),
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            coalesced=int(self._coalesced.value),
            batches=int(self._batches.value),
            batched_requests=int(self._batched_requests.value),
            model_calls=int(self._model_calls.value),
            max_batch=int(self._max_batch.value),
            swaps=int(self._swaps.value),
            timeout_near_misses=int(self._near_misses.value),
            queue_depth=queue_depth,
            cache_entries=cache_stats.size,
            elapsed_s=elapsed,
            latency=self._latency_stats(),
            busy_s=self._busy.sum,
            retired_cache_hits=int(self._retired_hits.value),
            retired_cache_misses=int(self._retired_misses.value),
        )
