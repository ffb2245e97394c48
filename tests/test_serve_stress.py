"""Concurrency stress tests for the serving layer.

Many client threads hammer the plan cache and the request queue at
once.  The invariants under fire:

- **no lost or duplicated responses** — every submitted request gets
  exactly one answer (or exactly one backpressure rejection);
- **no cross-talk** — each answer equals the direct
  ``predict_join_orders`` result for *that* request's query, even while
  identical and different queries interleave in the same batches;
- **the LRU bound holds** — the plan cache never exceeds its configured
  size, no matter how many threads insert concurrently.
"""

import random
import threading

import pytest

from repro.analysis import LockMonitor, LockOrderError, instrument_model, instrument_service
from repro.core import ModelConfig, MTMLFQO
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.serve import (
    OptimizerService,
    PlanCache,
    ServeConfig,
    ServiceOverloadedError,
)
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

pytestmark = pytest.mark.threaded

NUM_THREADS = 12
REQUESTS_PER_THREAD = 25


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=12, num_tables=5, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def pool(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=3, seed=13))
    items = QueryLabeler(db).label_many(generator.generate(24), with_optimal_order=False)
    assert len(items) >= 10
    return items[:10]


class TestPlanCacheUnderContention:
    def test_lru_bound_holds_under_concurrent_writes(self):
        cache = PlanCache(maxsize=7)
        violations = []

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(500):
                key = ("key", rng.randrange(40))
                if rng.random() < 0.5:
                    cache.put(key, ["t1", "t2"])
                else:
                    cache.get(key)
                if len(cache) > 7:
                    violations.append(len(cache))

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not violations
        assert len(cache) <= 7
        assert cache.hits + cache.misses > 0

    def test_values_are_isolated_from_callers(self):
        cache = PlanCache(maxsize=2)
        order = ["a", "b"]
        cache.put(("k",), order)
        order.append("mutated")
        fetched = cache.get(("k",))
        assert fetched == ["a", "b"]
        fetched.append("mutated-again")
        assert cache.get(("k",)) == ["a", "b"]

    def test_disabled_cache_never_stores(self):
        cache = PlanCache(maxsize=0)
        cache.put(("k",), ["a"])
        assert cache.get(("k",)) is None
        assert len(cache) == 0
        # Off is not thrashing: a disabled cache reports no activity.
        assert cache.hits == 0 and cache.misses == 0


class TestServiceUnderStress:
    def test_no_lost_or_duplicated_responses(self, db, featurizer, pool):
        """A small cache (forced eviction churn) + many threads, duplicates."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        direct = model.predict_join_orders(db.name, pool, beam_width=2)
        expected = {index: order for index, order in enumerate(direct)}

        cache_size = 5  # smaller than the pool: constant eviction pressure
        config = ServeConfig(
            max_batch_size=8, max_wait_ms=1.0, plan_cache_size=cache_size, beam_width=2
        )
        service = OptimizerService(model, db.name, config)
        # Runtime lock-order checking rides along: every acquisition of
        # the service mutex and the model's inference lock feeds the
        # global order graph, so an inversion introduced in either layer
        # fails this stress test even if the scheduler never deadlocks.
        lock_monitor = LockMonitor()
        instrument_model(model, lock_monitor)
        instrument_service(service, lock_monitor)
        responses: list[list[tuple[int, list[str]]]] = [[] for _ in range(NUM_THREADS)]
        errors: list[BaseException] = []
        bound_violations: list[int] = []
        stop_monitor = threading.Event()

        def monitor():
            while not stop_monitor.is_set():
                size = len(service.cache)
                if size > cache_size:
                    bound_violations.append(size)
                stop_monitor.wait(0.001)

        def client(slot):
            rng = random.Random(slot)
            try:
                for _ in range(REQUESTS_PER_THREAD):
                    index = rng.randrange(len(pool))
                    responses[slot].append((index, service.optimize(pool[index])))
            except BaseException as error:
                errors.append(error)

        monitor_thread = threading.Thread(target=monitor)
        with service:
            monitor_thread.start()
            threads = [threading.Thread(target=client, args=(slot,)) for slot in range(NUM_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stop_monitor.set()
            monitor_thread.join()
            report = service.report()

        assert not errors, errors
        assert not bound_violations, f"LRU bound exceeded: {bound_violations}"
        total = NUM_THREADS * REQUESTS_PER_THREAD
        received = sum(len(slot_responses) for slot_responses in responses)
        assert received == total  # exactly one response per request
        for slot_responses in responses:
            for index, order in slot_responses:
                assert order == expected[index]  # and never another query's order
        assert report.completed == total
        assert report.rejected == 0 and report.failed == 0
        assert report.cache_hits > 0  # duplicates did hit
        assert len(service.cache) <= cache_size
        lock_monitor.assert_clean()  # no lock-order inversion under fire
        # The drain loop demonstrably ran under tracing.
        assert any("_mutex" in src for src in lock_monitor.edges()) or lock_monitor.edges() == {}

    def test_seeded_lock_inversion_is_caught_under_stress(self):
        """Meta-test for the runtime detector: stress traffic with a
        consistent A→B order, then one rogue B→A pair — the detector
        must report the cycle even though no deadlock ever struck (the
        phases are sequenced so the test cannot actually hang)."""
        monitor = LockMonitor()
        lock_a = monitor.lock("service-mutex")
        lock_b = monitor.lock("infer-lock")

        def disciplined():
            for _ in range(200):
                with lock_a:
                    with lock_b:
                        pass

        threads = [threading.Thread(target=disciplined) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monitor.assert_clean()  # the disciplined phase is cycle-free

        def rogue():
            with lock_b:
                with lock_a:
                    pass

        inverted = threading.Thread(target=rogue)
        inverted.start()
        inverted.join()
        with pytest.raises(LockOrderError, match="lock-order inversion"):
            monitor.check()

    def test_backpressure_storm_accounts_for_every_request(self, db, featurizer, pool):
        """Flood a tiny queue: completed + rejected must equal submitted."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        config = ServeConfig(
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue_depth=2,
            plan_cache_size=0,
            beam_width=1,
        )
        outcomes: list[str] = []
        outcomes_lock = threading.Lock()
        num_clients = 16

        def client(slot):
            item = pool[slot % len(pool)]
            try:
                order = service.optimize(item, timeout=30.0)
                assert sorted(order) == sorted(item.query.tables)
                outcome = "completed"
            except ServiceOverloadedError:
                outcome = "rejected"
            with outcomes_lock:
                outcomes.append(outcome)

        with OptimizerService(model, db.name, config) as service:
            threads = [threading.Thread(target=client, args=(slot,)) for slot in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = service.report()

        assert len(outcomes) == num_clients
        completed = outcomes.count("completed")
        rejected = outcomes.count("rejected")
        assert completed + rejected == num_clients
        assert completed >= 1  # somebody got through
        assert report.completed == completed
        assert report.rejected == rejected

    def test_repeated_hot_swaps_under_load(self, db, featurizer, pool):
        """16 clients hammer the service while the model is hot-swapped
        back and forth.  Every request gets exactly one answer, every
        answer is one of the two models' bit-exact direct results, and
        traffic after the final swap is served by the final model only
        (no stale pre-swap plans, no pre-swap cache hits)."""
        from repro.core import JointTrainer

        model_a = MTMLFQO(SMALL)
        model_a.attach_featurizer(db.name, featurizer)
        model_b = MTMLFQO(SMALL)
        model_b.attach_featurizer(db.name, featurizer)
        JointTrainer(model_b).train(
            [(db.name, item) for item in pool], epochs=2, batch_size=4
        )
        direct_a = model_a.predict_join_orders(db.name, pool, beam_width=2)
        direct_b = model_b.predict_join_orders(db.name, pool, beam_width=2)
        assert direct_a != direct_b

        config = ServeConfig(max_batch_size=8, max_wait_ms=1.0, plan_cache_size=5, beam_width=2)
        num_clients, rounds, num_swaps = 16, 20, 4
        answers: list[list[tuple[int, list[str]]]] = [[] for _ in range(num_clients)]
        errors: list[BaseException] = []

        with OptimizerService(model_a, db.name, config) as service:
            def client(slot):
                rng = random.Random(slot)
                try:
                    for _ in range(rounds):
                        index = rng.randrange(len(pool))
                        answers[slot].append((index, service.optimize(pool[index])))
                except BaseException as error:
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(slot,)) for slot in range(num_clients)]
            for thread in threads:
                thread.start()
            for swap_index in range(num_swaps):
                threading.Event().wait(0.01)
                service.swap_model(model_b if swap_index % 2 == 0 else model_a)
            for thread in threads:
                thread.join()
            final = model_b if (num_swaps - 1) % 2 == 0 else model_a
            final_direct = direct_b if final is model_b else direct_a
            post = [service.optimize(item) for item in pool]
            report = service.report()

        assert not errors, errors
        received = sum(len(slot_answers) for slot_answers in answers)
        assert received == num_clients * rounds  # no lost or duplicated responses
        for slot_answers in answers:
            for index, order in slot_answers:
                assert order in (direct_a[index], direct_b[index])
        assert post == final_direct  # post-swap traffic: final model only
        assert report.swaps == num_swaps
        assert report.failed == 0 and report.rejected == 0

    def test_stop_drains_inflight_requests(self, db, featurizer, pool):
        """stop() answers everything already queued before returning."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        config = ServeConfig(max_batch_size=4, max_wait_ms=20.0, plan_cache_size=0, beam_width=1)
        service = OptimizerService(model, db.name, config).start()
        results: dict[int, list[str]] = {}

        def client(index):
            results[index] = service.optimize(pool[index])

        threads = [threading.Thread(target=client, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(400):
            if service.queue_depth + len(results) >= 4:
                break
            threading.Event().wait(0.002)
        service.stop()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        direct = model.predict_join_orders(db.name, pool[:4], beam_width=1)
        assert [results[index] for index in range(4)] == direct
