"""The micro-batching optimizer service.

:class:`OptimizerService` is the repo's first always-on layer: callers
submit *single* queries via :meth:`optimize`, and one drain worker
coalesces concurrent requests into the batched
:meth:`MTMLFQO.predict_join_orders` path (one Trans_Share forward plus
lockstep beam decode per batch) that PR 1 built but nothing served.

Request lifecycle::

    optimize(q) ── cache hit ──────────────────────────► return order
        │ miss
        ▼
    bounded queue ── full ──► ServiceOverloadedError (backpressure)
        │
        ▼  (drain worker: wait up to max_wait_ms for max_batch_size)
    coalesce by structural key ► plan cache recheck ► one batched
    predict_join_orders on the current session ► fill cache ► wake
    every waiter

Concurrency policy: one drain worker decodes on the current
:class:`repro.core.InferenceSession`.  Every inference entry point of a
model serializes on its ``_infer_lock`` and the decode is GIL-bound
Python, so extra in-process workers only add contention: an earlier
replica pool measured slower than this single drainer (DESIGN.md
section 5).

Because the batched decode path is bit-identical to per-query calls
(DESIGN.md section 2) and the cache key is the full structural
query/plan signature, orders returned through the service are identical
to direct ``predict_join_orders`` calls — the parity suite
(``tests/test_serve.py``) asserts this at every beam width 1-8.

Serving records no autodiff tape (DESIGN.md section 11) by
construction: every decode runs through the service's
:class:`repro.core.InferenceSession`, whose calls run under
``nn.no_grad()`` and thread the session's private ``ScratchArena``
into the kernels.  A forward computes the same bits whether or not it
records, so none of the parity guarantees above are weakened by it.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from collections import OrderedDict, deque

from ..core.beam import require_connected
from ..core.serializer import plan_signature, query_signature
from ..workload.labeler import LabeledQuery
from .cache import PlanCache
from .config import ServeConfig
from .stats import ServiceStats, ServingReport

# Distinguishes the metrics of multiple service instances sharing one
# telemetry registry (e.g. sequential benchmark runs, fleet tenants on
# one database name): counters are monotone per instance, so reusing a
# label set across instances would resurrect a dead service's totals.
_INSTANCE_IDS = itertools.count()

__all__ = [
    "OptimizerService",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "ServiceTimeoutError",
]


class ServiceOverloadedError(RuntimeError):
    """The request queue is full; the caller should back off and retry."""


class ServiceStoppedError(RuntimeError):
    """The service is not running (not started, or already stopped)."""


class ServiceTimeoutError(RuntimeError):
    """The per-request wait bound elapsed before a response arrived."""


# optimize()'s "no timeout argument given" sentinel: None must remain a
# real value (wait forever), distinct from "use the config default".
_DEFAULT_TIMEOUT = object()


class _Request:
    """One in-flight optimize() call, fulfilled by the drain thread."""

    __slots__ = (
        "labeled", "key", "done", "result", "error", "abandoned",
        "trace_id", "enqueued_at",
    )

    def __init__(self, labeled: LabeledQuery, key: tuple, trace_id: int = 0, enqueued_at: float = 0.0):
        self.labeled = labeled
        self.key = key
        self.done = threading.Event()
        self.result: list[str] | None = None
        self.error: BaseException | None = None
        # Set when the waiter gave up (timeout): the drain loop skips
        # abandoned requests instead of decoding answers nobody reads —
        # under sustained overload that work would starve live requests.
        self.abandoned = False
        # Telemetry: the request's trace ID (0 = untraced) and its
        # enqueue timestamp, carried across the queue so the drain
        # worker can reconstruct the queue-wait span on the right trace.
        self.trace_id = trace_id
        self.enqueued_at = enqueued_at

    def fulfill(self, order: list[str]) -> None:
        self.result = list(order)
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class OptimizerService:
    """Micro-batching join-order service over one ``(model, database)``.

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with OptimizerService(model, db.name, ServeConfig()) as service:
            order = service.optimize(labeled_query)

    ``optimize`` is safe to call from many threads; all model work runs
    on one drain worker through a reusable
    :class:`repro.core.InferenceSession`.
    """

    def __init__(self, model, db_name: str, config: ServeConfig | None = None, telemetry=None):
        self.config = config or ServeConfig()
        self.db_name = db_name
        # Optional shared repro.obs.Telemetry bundle.  None means no
        # telemetry at all (the overhead-baseline configuration); a
        # disabled bundle keeps the handle but takes the one-int-check
        # fast path on every touchpoint.
        self.telemetry = telemetry
        # The name this service's request latencies are recorded under
        # in the SLO tracker; federation overrides it with the tenant
        # name (repro.federation.node.TenantNode).
        self.slo_name = db_name
        self.session = model.inference_session(db_name)  # guarded-by: _mutex
        self.cache = PlanCache(self.config.plan_cache_size)
        self.stats = ServiceStats(
            registry=telemetry.registry if telemetry is not None else None,
            labels={"service": f"{db_name}/{next(_INSTANCE_IDS)}"},
        )
        self._queue: "deque[_Request]" = deque()  # guarded-by: _mutex
        self._mutex = threading.Lock()
        self._nonempty = threading.Condition(self._mutex)
        self._running = False  # guarded-by: _mutex
        self._drainer: "threading.Thread | None" = None  # guarded-by: _mutex
        # Bumped by swap_model and embedded in every cache key: model
        # `version` counters are per-instance, so two independently built
        # models can share a version number — the epoch guarantees a
        # post-swap request can never be answered from the pre-swap
        # model's cache entries even then.
        self._epoch = 0  # guarded-by: _mutex
        # Optional online-adaptation hooks: a FeedbackCollector served
        # orders are forwarded to (attach_feedback) and an
        # AdaptationWorker (registers itself) whose counters report()
        # folds into the ServingReport.
        self.feedback = None
        self.adaptation = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "OptimizerService":
        with self._mutex:
            if self._running:
                raise RuntimeError("service already running")
            self._running = True
            # Publish the (started) worker before releasing the lock so
            # a concurrent stop() always finds a joinable thread.
            self._drainer = threading.Thread(
                target=self._drain_loop, name=f"optimizer-serve-{self.db_name}", daemon=True
            )
            self._drainer.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, drain what is queued, join the worker."""
        with self._nonempty:
            if not self._running:
                return
            self._running = False
            self._nonempty.notify_all()
            drainer = self._drainer
        drainer.join()
        with self._mutex:
            self._drainer = None

    def __enter__(self) -> "OptimizerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def queue_depth(self) -> int:
        with self._mutex:
            return len(self._queue)

    def report(self) -> ServingReport:
        """Freeze the live counters into a :class:`ServingReport`.

        When a feedback collector / adaptation worker is attached, their
        counters are folded into the report's adaptation fields.
        """
        report = self.stats.snapshot(queue_depth=self.queue_depth, cache=self.cache)
        extra: dict = {}
        if self.feedback is not None:
            extra.update(self.feedback.counters())
        if self.adaptation is not None:
            extra.update(self.adaptation.counters())
        return dataclasses.replace(report, **extra) if extra else report

    # -- online adaptation ----------------------------------------------
    def attach_feedback(self, collector):
        """Enable the execution-feedback path.

        Every successfully served ``(query, order)`` pair — computed or
        answered from the plan cache — is submitted to ``collector``
        (a :class:`repro.serve.feedback.FeedbackCollector`), which
        executes the served order in the background and turns the result
        into training experience.  Submission is non-blocking: the
        collector dedups by query signature and sheds load when its own
        queue is full, so the request path never waits on an execution.

        The collector inherits this service's telemetry handle (unless
        it already has one), so feedback-labeling spans land on the
        originating request's trace.
        """
        if getattr(collector, "telemetry", None) is None:
            collector.telemetry = self.telemetry
        self.feedback = collector
        return collector

    def _offer_feedback(self, labeled: LabeledQuery, order: list[str], trace_id: int = 0) -> None:
        if self.feedback is not None:
            self.feedback.submit(labeled, order, trace_id=trace_id)

    def _note_served(self, trace_id: int, started_at: float, latency: float) -> None:
        """Telemetry for one served request (outside every service lock):
        the request-level span plus the tenant's SLO outcome."""
        tel = self.telemetry
        if tel is None or not tel.on:
            return
        tel.slo.record(self.slo_name, latency)
        tel.tracer.record(trace_id, "request", started_at, started_at + latency)

    # -- model lifecycle -----------------------------------------------
    def swap_model(self, model_or_path, databases=None):
        """Hot-swap the serving model without stopping the service.

        ``model_or_path`` is either a ready :class:`MTMLFQO` (with a
        featurizer attached for this service's database) or a checkpoint
        path, loaded via :func:`repro.core.checkpoint.load_checkpoint`
        (``databases`` defaults to every database the currently serving
        model holds a featurizer for — checkpoints of multi-database
        models hot-swap without re-supplying handles, as long as the
        current model already knows those databases).

        Protocol (DESIGN.md "Model lifecycle"): the replacement session
        is built and validated *before* the switch; the switch itself is
        one atomic update of ``(session, epoch)`` under the service
        mutex.  A batch already formed finishes on the session it was
        pinned to at formation, so no queued or in-flight request is
        lost or duplicated; batches formed after the switch decode on
        the new session.  The bumped epoch retires every
        cached plan: a post-swap request can never be answered from the
        pre-swap cache, even if both models share a ``version`` counter
        value.  Returns the new serving model.
        """
        if isinstance(model_or_path, (str, os.PathLike)):
            from ..core.checkpoint import load_checkpoint

            if databases is None:
                # Snapshot the serving session under the mutex, then take
                # the database map through MTMLFQO.databases() (atomic
                # under the model's inference lock): a concurrent swap or
                # attach_featurizer cannot race either read.
                serving_session, _ = self._serving_state()
                databases = serving_session.model.databases()
            new_model = load_checkpoint(model_or_path, databases=databases)
        else:
            new_model = model_or_path
        # Validates the featurizer and pins eval mode before the switch;
        # a bad replacement raises here and the old session keeps serving.
        new_session = new_model.inference_session(self.db_name)
        with self._mutex:
            self.session = new_session
            self._epoch += 1
        # Pre-swap entries are unreachable (their keys carry the old
        # epoch); dropping them returns the LRU's full capacity to the
        # new model while it is coldest, and resetting the hit/miss
        # counters starts a fresh accounting epoch (the retired epoch's
        # totals are preserved in the stats, not blended into the new
        # hit rate).  An in-flight pre-swap batch may re-insert a few
        # old-epoch entries after this — dead weight bounded by one
        # batch, evicted by normal churn.
        retired = self.cache.clear(reset_stats=True)
        self.stats.note_swap(retired)
        return new_model

    # -- request path --------------------------------------------------
    def _serving_state(self) -> tuple:
        """Atomic read of the ``(session, epoch)`` pair swap_model writes."""
        with self._mutex:
            return self.session, self._epoch

    def request_key(self, labeled: LabeledQuery) -> tuple:
        """The structural identity of a request (the plan-cache key).

        Combines the query signature (tables, joins, filters) with the
        initial plan's signature — ``predict_join_orders`` encodes the
        initial plan, so two requests may only share a cached order when
        *both* halves match — plus the service's decode policy, the
        model's :attr:`version` (bumped by ``attach_featurizer`` and the
        trainers), and the service's swap epoch, so orders decoded with
        superseded weights can never be served after the model changes
        or is hot-swapped.
        """
        session, epoch = self._serving_state()
        return (
            epoch,
            session.model.version,
            self.db_name,
            query_signature(labeled.query),
            plan_signature(labeled.plan),
            self.config.beam_width,
            self.config.enforce_legality,
            self.config.rerank_with_cost,
        )

    def optimize(self, labeled: LabeledQuery, timeout=_DEFAULT_TIMEOUT) -> list[str]:
        """Join order for one query; blocks until served (or rejected).

        Raises :class:`ServiceOverloadedError` when the queue is full,
        :class:`ServiceTimeoutError` when ``timeout`` (defaults to
        ``config.request_timeout_s``; pass ``None`` explicitly to wait
        forever) elapses, and re-raises any model error for *this*
        request (e.g. ``ValueError`` for a disconnected join graph)
        without affecting the rest of its batch.
        """
        # Fast-fail before any accounting — but read the flag under the
        # mutex it is guarded by (an unsynchronized read here raced with
        # start/stop and violated the attribute's locking contract; the
        # authoritative recheck below still closes the window between
        # this check and the enqueue).
        with self._mutex:
            running = self._running
        if not running:
            raise ServiceStoppedError("optimizer service is not running")
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        trace_id = tracer.new_trace() if tracer is not None else 0
        started_at = self.stats.note_request()
        key = self.request_key(labeled)
        cached = self.cache.get(key)
        if cached is not None:
            latency = self.stats.note_completed(started_at)
            if trace_id:
                tracer.event(trace_id, "cache.hit")
            self._note_served(trace_id, started_at, latency)
            self._offer_feedback(labeled, cached, trace_id)
            return cached
        if trace_id:
            tracer.event(trace_id, "enqueue")
        request = _Request(labeled, key, trace_id=trace_id, enqueued_at=started_at)
        with self._nonempty:
            if not self._running:
                raise ServiceStoppedError("optimizer service is not running")
            if len(self._queue) >= self.config.max_queue_depth:
                self.stats.note_rejected()
                raise ServiceOverloadedError(
                    f"request queue full ({self.config.max_queue_depth} pending)"
                )
            self._queue.append(request)
            self._nonempty.notify_all()
        if timeout is _DEFAULT_TIMEOUT:
            timeout = self.config.request_timeout_s
        if not request.done.wait(timeout):
            # Mark abandoned first, then recheck: the drain thread may
            # have fulfilled this request between wait() timing out and
            # the mark.  Without the recheck the computed order was
            # discarded and a timeout raised anyway — a lost response.
            request.abandoned = True
            if request.done.is_set():
                # Fulfilled in the window: only count the near-miss when
                # an actual response came back (a fail() in the same
                # window is accounted as the failure it is, below).
                if request.error is None:
                    self.stats.note_timeout_near_miss()
            else:
                self.stats.note_failed()
                raise ServiceTimeoutError(f"no response within {timeout} s")
        if request.error is not None:
            self.stats.note_failed()
            raise request.error
        latency = self.stats.note_completed(started_at)
        self._note_served(trace_id, started_at, latency)
        assert request.result is not None
        self._offer_feedback(labeled, request.result, trace_id)
        return request.result

    # -- drain worker --------------------------------------------------
    def _drain_loop(self) -> None:
        max_wait_s = self.config.max_wait_ms / 1000.0
        while True:
            with self._nonempty:
                while not self._queue and self._running:
                    self._nonempty.wait()
                if not self._queue:
                    return  # stopped and fully drained
                # Hold the batch open briefly: concurrent arrivals
                # coalesce into one model call instead of many.
                deadline = time.perf_counter() + max_wait_s
                while len(self._queue) < self.config.max_batch_size and self._running:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._nonempty.wait(remaining)
                take = min(self.config.max_batch_size, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
                # Pin the session at batch formation: a swap_model
                # landing while the batch decodes must not move it to
                # the new model mid-flight (an in-flight batch finishes
                # on the session it started on).
                session = self.session
            formed_at = time.perf_counter()
            try:
                self._process_batch(batch, session, formed_at)
            except BaseException as error:
                # The drain worker must survive anything — a dead worker
                # leaves a zombie service that accepts requests and never
                # answers.  Fail the batch's waiters and carry on.
                for request in batch:
                    if not request.done.is_set():
                        request.fail(error)
            finally:
                self.stats.note_busy(time.perf_counter() - formed_at)

    def _process_batch(self, batch: list[_Request], session, formed_at: float) -> None:
        # Span recording happens on this worker thread, outside every
        # service lock, onto the trace IDs the requests carried across
        # the queue.  One int check when telemetry is off.
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        tracing = tracer is not None and tracer.on
        # 0. Drop requests whose waiter already timed out and left.
        batch = [request for request in batch if not request.abandoned]
        if not batch:
            return

        # 1. Coalesce structurally identical requests onto one model slot.
        groups: "OrderedDict[tuple, list[_Request]]" = OrderedDict()
        for request in batch:
            groups.setdefault(request.key, []).append(request)

        # 2. Recheck the cache: an earlier batch (or the fast path of a
        #    racing thread) may have filled a key after this request
        #    missed and enqueued.
        pending: list[tuple[tuple, list[_Request]]] = []
        for key, requests in groups.items():
            cached = self.cache.get(key, count_miss=False)
            if cached is not None:
                for request in requests:
                    request.fulfill(cached)
                    if tracing and request.trace_id:
                        tracer.record(
                            request.trace_id, "queue_wait", request.enqueued_at, formed_at
                        )
                        tracer.event(request.trace_id, "cache.hit")
            else:
                pending.append((key, requests))

        # 3. Validate per request what predict_join_orders would reject
        #    for the whole batch: one disconnected query must fail alone.
        runnable: list[tuple[tuple, list[_Request]]] = []
        for key, requests in pending:
            if self.config.enforce_legality:
                query = requests[0].labeled.query
                try:
                    require_connected(query.adjacency_matrix(), query.tables)
                except Exception as error:  # any malformed request fails alone
                    for request in requests:
                        request.fail(error)
                    continue
            runnable.append((key, requests))

        # Coalesced = in-batch duplicates that shared another identical
        # request's slot (whatever that slot's outcome); model calls =
        # distinct queries actually decoded this batch.
        self.stats.note_batch(
            num_requests=len(batch),
            num_model_queries=len(runnable),
            num_coalesced=len(batch) - len(groups),
        )
        if not runnable:
            return

        # 4. One coalesced batched decode for every distinct survivor.
        items = [requests[0].labeled for _, requests in runnable]
        decode_started = time.perf_counter()
        try:
            orders = session.predict_join_orders(items, **self.config.decode_kwargs())
        except BaseException:
            self._serve_individually(runnable, session)
            return
        decode_ended = time.perf_counter() if tracing else 0.0
        for (key, requests), order in zip(runnable, orders):
            self.cache.put(key, order)
            for request in requests:
                request.fulfill(order)
                if tracing and request.trace_id:
                    trace_id = request.trace_id
                    tracer.record(trace_id, "queue_wait", request.enqueued_at, formed_at)
                    tracer.record(
                        trace_id,
                        "batch",
                        formed_at,
                        decode_started,
                        {"requests": len(batch)},
                    )
                    tracer.record(
                        trace_id,
                        "decode",
                        decode_started,
                        decode_ended,
                        {"queries": len(runnable)},
                    )
                    tracer.event(trace_id, "cache.fill")

    def _serve_individually(self, runnable: list[tuple[tuple, list[_Request]]], session) -> None:
        """Fallback after a failed batch: isolate the offending request.

        Each distinct query is retried solo so an error poisons only its
        own requesters; the healthy rest of the batch still gets orders.
        """
        for key, requests in runnable:
            try:
                order = session.predict_join_orders(
                    [requests[0].labeled], **self.config.decode_kwargs()
                )[0]
            except BaseException as error:
                for request in requests:
                    request.fail(error)
                continue
            self.cache.put(key, order)
            for request in requests:
                request.fulfill(order)
