"""Serve-vs-direct parity and unit behavior of the optimizer service.

The ISSUE's contract: for randomized workloads, join orders returned
through the micro-batching service are identical to direct
``predict_join_orders`` calls at every beam width 1-8 — whether a
request was batched, coalesced with an identical request, or answered
from the plan cache.  Plus request-lifecycle behavior: backpressure,
per-request error isolation, timeouts, and lifecycle errors.
"""

import threading
import time

import pytest

from repro.core import JointTrainer, ModelConfig, MTMLFQO
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.serve import (
    CacheStats,
    OptimizerService,
    PlanCache,
    ServeConfig,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServiceTimeoutError,
)
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

pytestmark = pytest.mark.threaded


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=6, num_tables=5, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=7))
    items = QueryLabeler(db).label_many(generator.generate(24), with_optimal_order=False)
    assert len(items) >= 8
    return items[:8]


@pytest.fixture()
def model(db, featurizer):
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    return model


def serve_all(service, items):
    """Submit every item concurrently; return orders in item order."""
    results: dict[int, list[str]] = {}
    errors: list[BaseException] = []

    def client(index, item):
        try:
            results[index] = service.optimize(item)
        except BaseException as error:  # surfaced to the test
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i, item)) for i, item in enumerate(items)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return [results[i] for i in range(len(items))]


class TestServeParity:
    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_parity_across_beam_widths(self, db, model, labeled, beam_width):
        direct = model.predict_join_orders(db.name, labeled, beam_width=beam_width)
        config = ServeConfig(max_batch_size=4, max_wait_ms=2.0, beam_width=beam_width)
        with OptimizerService(model, db.name, config) as service:
            served = serve_all(service, labeled)
        assert served == direct

    def test_cached_responses_stay_identical(self, db, model, labeled):
        direct = model.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4)) as service:
            first = serve_all(service, labeled)
            second = [service.optimize(item) for item in labeled]
            report = service.report()
        assert first == direct
        assert second == direct
        assert report.cache_hits >= len(labeled)  # the whole second pass hit

    def test_coalesced_duplicates_get_one_model_call(self, db, model, labeled):
        item = labeled[0]
        direct = model.predict_join_orders(db.name, [item])[0]
        # Cache off: identical concurrent requests may only coalesce.
        config = ServeConfig(max_batch_size=8, max_wait_ms=50.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            served = serve_all(service, [item] * 6)
            report = service.report()
        assert served == [direct] * 6
        assert report.completed == 6
        assert report.model_calls < 6  # at least one batch coalesced duplicates
        assert report.coalesced >= 1

    def test_model_update_invalidates_cached_plans(self, db, model, labeled, featurizer):
        """A version bump retires cached orders: no stale-weights hits."""
        with OptimizerService(model, db.name) as service:
            first = service.optimize(labeled[0])
            hits_before = service.report().cache_hits
            service.optimize(labeled[0])
            assert service.report().cache_hits == hits_before + 1
            model.attach_featurizer(db.name, featurizer)  # bumps model.version
            again = service.optimize(labeled[0])
            assert service.report().cache_hits == hits_before + 1  # forced a miss
        assert again == first  # same weights reattached -> same order

    def test_trainer_marks_model_updated(self):
        model = MTMLFQO(SMALL)
        trainer = JointTrainer(model)
        trainer._step = lambda db_name, batch: 0.0
        version = model.version
        trainer.train([("a", object())], epochs=1, batch_size=1, seed=0)
        assert model.version == version + 1

    def test_mark_updated_clears_feature_caches(self, db, model, labeled):
        """Stale encodings must go with the version: a featurizer
        retrained in place would otherwise keep serving old features."""
        model.encode_query(db.name, labeled[0])
        assert len(model._cache) == 1 and len(model._node_cache) > 0
        model.mark_updated()
        assert len(model._cache) == 0 and len(model._node_cache) == 0

    def test_single_caller_needs_no_concurrency(self, db, model, labeled):
        """max_wait only delays; a lone blocking caller still gets served."""
        direct = model.predict_join_orders(db.name, labeled[:3])
        config = ServeConfig(max_batch_size=16, max_wait_ms=5.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            served = [service.optimize(item) for item in labeled[:3]]
        assert served == direct


class TestHotSwap:
    @pytest.fixture()
    def model_b(self, db, featurizer, labeled):
        """A second model with visibly different weights (briefly trained)."""
        other = MTMLFQO(SMALL)
        other.attach_featurizer(db.name, featurizer)
        JointTrainer(other).train(
            [(db.name, item) for item in labeled], epochs=2, batch_size=4
        )
        return other

    def test_swap_serves_new_model_and_invalidates_cache(self, db, model, model_b, labeled):
        direct_a = model.predict_join_orders(db.name, labeled)
        direct_b = model_b.predict_join_orders(db.name, labeled)
        assert direct_a != direct_b  # the swap must be observable
        with OptimizerService(model, db.name) as service:
            pre = [service.optimize(item) for item in labeled]
            assert pre == direct_a
            returned = service.swap_model(model_b)
            assert returned is model_b
            post = [service.optimize(item) for item in labeled]
        assert post == direct_b
        assert service.report().swaps == 1

    def test_equal_version_counters_cannot_serve_stale_cache(self, db, model, model_b, labeled):
        """The acceptance criterion's nastiest corner: `version` counters
        are per-instance, so two models can share one.  The service's
        swap epoch must still retire every pre-swap cache entry."""
        model_b.restore_version(model.version)
        assert model_b.version == model.version
        direct_b = model_b.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            pre = [service.optimize(item) for item in labeled]  # fills the cache
            hits_before = service.report().cache_hits
            service.swap_model(model_b)
            assert len(service.cache) == 0  # dead pre-swap entries dropped
            post = [service.optimize(item) for item in labeled]
            assert service.report().cache_hits == hits_before  # all forced misses
        assert post == direct_b
        assert pre != post

    def test_swap_from_checkpoint_path(self, db, model, model_b, labeled, tmp_path):
        from repro.core import save_checkpoint

        path = save_checkpoint(model_b, str(tmp_path / "replacement"))
        direct_b = model_b.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])
            loaded = service.swap_model(path)  # databases default to the served DB
            assert loaded is not model_b  # a fresh instance from disk
            post = [service.optimize(item) for item in labeled]
        assert post == direct_b

    def test_bad_replacement_leaves_old_model_serving(self, db, model, labeled):
        direct_a = model.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            with pytest.raises(KeyError, match="no featurizer"):
                service.swap_model(MTMLFQO(SMALL))  # no (F) for this database
            assert service.report().swaps == 0
            assert [service.optimize(item) for item in labeled] == direct_a

    def test_swap_during_concurrent_traffic_loses_nothing(self, db, model, model_b, labeled):
        """Clients hammering optimize() across a swap all get exactly one
        answer, each bit-identical to one of the two models' direct
        results; traffic after the swap is all new-model."""
        direct_a = model.predict_join_orders(db.name, labeled)
        direct_b = model_b.predict_join_orders(db.name, labeled)
        config = ServeConfig(max_batch_size=4, max_wait_ms=2.0)
        rounds = 6
        responses: dict[tuple[int, int], list[str]] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        with OptimizerService(model, db.name, config) as service:
            def client(slot):
                try:
                    for round_index in range(rounds):
                        item = labeled[(slot + round_index) % len(labeled)]
                        order = service.optimize(item)
                        with lock:
                            responses[(slot, round_index)] = (
                                (slot + round_index) % len(labeled), order)
                except BaseException as error:
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(slot,)) for slot in range(16)]
            for thread in threads:
                thread.start()
            service.swap_model(model_b)  # lands mid-traffic
            for thread in threads:
                thread.join()
            post = [service.optimize(item) for item in labeled]

        assert not errors, errors
        assert len(responses) == 16 * rounds  # exactly one answer each
        for index, order in responses.values():
            assert order in (direct_a[index], direct_b[index])
        assert post == direct_b  # after the swap: new model only


class TestRequestLifecycle:
    def test_not_started_raises(self, db, model, labeled):
        service = OptimizerService(model, db.name)
        with pytest.raises(ServiceStoppedError):
            service.optimize(labeled[0])

    def test_stopped_raises_and_stop_is_idempotent(self, db, model, labeled):
        service = OptimizerService(model, db.name).start()
        assert service.optimize(labeled[0]) == model.predict_join_orders(db.name, [labeled[0]])[0]
        service.stop()
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.optimize(labeled[0])

    def test_only_one_drain_worker_is_accepted(self):
        assert ServeConfig(num_replicas=1).num_replicas == 1
        with pytest.raises(ValueError, match="replica pool was removed"):
            ServeConfig(num_replicas=2)

    def test_missing_featurizer_fails_at_construction(self, labeled):
        bare = MTMLFQO(SMALL)
        with pytest.raises(KeyError, match="no featurizer"):
            OptimizerService(bare, "nowhere")

    def test_backpressure_rejects_when_queue_full(self, db, model, labeled):
        service = OptimizerService(
            model, db.name, ServeConfig(max_queue_depth=1, plan_cache_size=0)
        )
        # No drain thread: requests queue up and time out instead of
        # being served, making the rejection deterministic.
        service._running = True
        filler_errors = []

        def filler():
            try:
                service.optimize(labeled[0], timeout=1.0)
            except ServiceTimeoutError as error:
                filler_errors.append(error)

        thread = threading.Thread(target=filler)
        thread.start()
        for _ in range(200):
            if service.queue_depth == 1:
                break
            threading.Event().wait(0.005)
        assert service.queue_depth == 1
        with pytest.raises(ServiceOverloadedError):
            service.optimize(labeled[1], timeout=1.0)
        thread.join()
        assert len(filler_errors) == 1
        assert service.report().rejected == 1
        service._running = False

    def test_disconnected_query_fails_alone(self, db, model, labeled):
        """One bad request errors with the model's message; batchmates survive."""
        from repro.engine.plan import scan_node
        from repro.sql import Query
        from repro.workload.labeler import LabeledQuery

        bad_query = Query(tables=["alpha", "beta"], joins=[], filters={})
        bad = LabeledQuery(
            query=bad_query,
            plan=scan_node("alpha"),
            node_cardinalities=[1],
            node_costs=[1.0],
            total_time_ms=0.0,
        )
        direct = model.predict_join_orders(db.name, labeled)
        config = ServeConfig(max_batch_size=16, max_wait_ms=50.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            results: dict[int, list[str]] = {}
            caught: list[BaseException] = []

            def good_client(index, item):
                results[index] = service.optimize(item)

            def bad_client():
                try:
                    service.optimize(bad)
                except ValueError as error:
                    caught.append(error)

            threads = [threading.Thread(target=good_client, args=(i, item))
                       for i, item in enumerate(labeled)]
            threads.append(threading.Thread(target=bad_client))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = service.report()
        assert [results[i] for i in range(len(labeled))] == direct
        assert len(caught) == 1
        assert "disconnected" in str(caught[0])
        assert "alpha" in str(caught[0]) and "beta" in str(caught[0])
        assert report.failed == 1
        assert report.completed == len(labeled)
        assert report.coalesced == 0  # a failed request is not "coalesced"

    def test_drain_thread_survives_unexpected_errors(self, db, model, labeled, monkeypatch):
        """A rogue exception fails its batch but never kills the drainer."""
        import repro.serve.service as service_module

        def explode(adjacency, tables):
            raise KeyError("malformed request")

        with OptimizerService(model, db.name, ServeConfig(plan_cache_size=0)) as service:
            monkeypatch.setattr(service_module, "require_connected", explode)
            with pytest.raises(KeyError):
                service.optimize(labeled[0])
            monkeypatch.undo()
            # The service must still be alive and serving.
            order = service.optimize(labeled[1])
        assert order == model.predict_join_orders(db.name, [labeled[1]])[0]

    def test_timeout_race_returns_fulfilled_result(self, db, model, labeled, monkeypatch):
        """The drain thread fulfilling a request *between* ``done.wait``
        timing out and the waiter marking itself abandoned must not lose
        the computed order: optimize() rechecks ``done`` under the mark
        and returns the result, counting a near-miss.

        The race window is a few instructions wide, so the drain is
        instrumented: the request's ``done.wait`` times out for real (no
        drain thread runs), then a simulated drain fulfills the request
        before wait's False return reaches optimize()."""
        import types

        import repro.serve.service as service_module

        expected = model.predict_join_orders(db.name, [labeled[0]])[0]

        class RacyRequest(service_module._Request):
            def __init__(self, labeled_arg, key, **kwargs):
                super().__init__(labeled_arg, key, **kwargs)
                real_event = self.done
                racy = self

                def wait(timeout=None):
                    real_event.wait(timeout)  # genuinely times out
                    racy.fulfill(expected)    # the drain lands in the window
                    return False              # ...but wait already gave up

                self.done = types.SimpleNamespace(
                    wait=wait, is_set=real_event.is_set, set=real_event.set
                )

        service = OptimizerService(model, db.name, ServeConfig(plan_cache_size=0))
        service._running = True  # queue accepts; no real drain thread
        monkeypatch.setattr(service_module, "_Request", RacyRequest)
        try:
            order = service.optimize(labeled[0], timeout=0.01)
        finally:
            service._running = False
        assert order == expected  # the near-missed response is returned...
        report = service.report()
        assert report.timeout_near_misses == 1  # ...and counted
        assert report.completed == 1
        assert report.failed == 0

    def test_abandoned_requests_are_not_decoded(self, db, model, labeled):
        """Timed-out waiters' requests are skipped by the drain loop."""
        service = OptimizerService(model, db.name, ServeConfig(plan_cache_size=0))
        service._running = True  # queue accepts, but no drain thread yet
        with pytest.raises(ServiceTimeoutError):
            service.optimize(labeled[0], timeout=0.01)
        assert service.queue_depth == 1
        abandoned = service._queue[0]
        assert abandoned.abandoned
        service._process_batch([abandoned], service.session, time.perf_counter())
        report = service.report()
        assert report.model_calls == 0 and report.batches == 0
        assert not abandoned.done.is_set()
        service._running = False

    def test_report_counters_consistent(self, db, model, labeled):
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4)) as service:
            serve_all(service, labeled)
        report = service.report()  # after stop: the worker's busy time is in
        assert report.completed == len(labeled)
        assert report.rejected == 0 and report.failed == 0
        assert report.batches >= 1
        assert report.batched_requests == report.batches * report.mean_batch_size
        assert report.model_calls <= len(labeled)
        assert report.queue_depth == 0
        assert report.latency is not None and report.latency.count == len(labeled)
        assert report.throughput_qps > 0
        assert report.busy_s > 0

    def test_format_serving_report_renders(self, db, model, labeled):
        from repro.eval import format_serving_report

        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])
            text = format_serving_report(service.report())
        assert "completed" in text and "plan cache" in text and "latency" in text


class TestPlanCacheStats:
    def test_stats_is_one_atomic_reading(self):
        cache = PlanCache(4)
        assert cache.stats() == CacheStats(hits=0, misses=0, size=0)
        cache.get(("a",))  # miss
        cache.put(("a",), ["t1"])
        cache.get(("a",))  # hit
        snap = cache.stats()
        assert (snap.hits, snap.misses, snap.size) == (1, 1, 1)
        assert snap.lookups == 2
        assert snap.hit_rate == 0.5

    def test_clear_returns_retired_epoch(self):
        cache = PlanCache(4)
        cache.get(("k",))  # miss
        cache.put(("k",), ["t"])
        cache.get(("k",))  # hit
        retired = cache.clear()  # default: entries dropped, counters kept
        assert retired == CacheStats(hits=1, misses=1, size=1)
        assert len(cache) == 0
        assert cache.stats() == CacheStats(hits=1, misses=1, size=0)
        retired = cache.clear(reset_stats=True)
        assert retired == CacheStats(hits=1, misses=1, size=0)
        assert cache.stats() == CacheStats(hits=0, misses=0, size=0)

    def test_swap_starts_a_fresh_cache_epoch(self, db, model, featurizer, labeled):
        """Post-swap hit rate covers the new epoch only; the retired
        epoch's totals survive in the retired_* report fields."""
        other = MTMLFQO(SMALL)
        other.attach_featurizer(db.name, featurizer)
        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])  # miss
            service.optimize(labeled[0])  # hit
            before = service.report()
            assert before.cache_hits == 1 and before.cache_misses == 1
            service.swap_model(other)
            after = service.report()
        assert after.cache_hits == 0 and after.cache_misses == 0
        assert after.cache_hit_rate == 0.0
        assert after.retired_cache_hits == 1
        assert after.retired_cache_misses == 1
