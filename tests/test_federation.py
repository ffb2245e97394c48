"""Tests for the federated multi-tenant serving fleet (repro.federation)."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis import LockMonitor, instrument_collector, instrument_model, instrument_service
from repro.core import (
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    SHARED_MODULE_PREFIXES,
)
from repro.datagen import generate_databases
from repro.eval import format_fleet_report, join_order_execution_time, worst_legal_order
from repro.federation import FleetConfig, FleetCoordinator, FleetReport, TenantNode
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator, traffic_stream

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


def tiny_fleet_config(**overrides) -> FleetConfig:
    defaults = dict(
        fine_tune_epochs=2,
        batch_size=8,
        min_new_experience=4,
        validation_fraction=0.25,
        encoder_queries_per_table=3,
        encoder_epochs=1,
        poll_interval_s=0.05,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def fixture():
    """Three tenant databases with featurizers + labeled pools, and a
    global (S)/(T) state pre-trained on the first two tenants' pools."""
    dbs = generate_databases(3, base_seed=81, row_range=(60, 200), attr_range=(2, 3))
    tenants = []
    for i, db in enumerate(dbs):
        featurizer = DatabaseFeaturizer(db, TINY)
        featurizer.train_encoders(queries_per_table=3, epochs=1, seed=i)
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=4, seed=20 + i))
        pool = [
            item
            for item in QueryLabeler(db).label_many(generator.generate(16), with_optimal_order=True)
            if item.optimal_order is not None
        ]
        assert len(pool) >= 8
        tenants.append((db, featurizer, pool))
    pretrain = MTMLFQO(TINY)
    for db, featurizer, _ in tenants[:2]:
        pretrain.attach_featurizer(db.name, featurizer)
    JointTrainer(pretrain).train(
        [(db.name, item) for db, _, pool in tenants[:2] for item in pool[:8]],
        epochs=2,
        batch_size=8,
    )
    return tenants, pretrain.state_dict()


def make_tenant(db, featurizer, global_state, config, name=None) -> TenantNode:
    model = MTMLFQO(TINY)
    model.load_state_dict(global_state)
    model.attach_featurizer(db.name, featurizer)
    return TenantNode(db, model, config=config, name=name)


class TestTenantNode:
    def test_fleet_config_has_no_replica_pool_size(self):
        with pytest.raises(TypeError):
            FleetConfig(num_replicas=2)

    def test_local_update_skips_below_threshold(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config(min_new_experience=6))
        assert tenant.inject_experience(pool[:3]) == 3
        assert tenant.local_update(global_state) is None
        assert tenant.counters()["rounds_skipped"] == 1
        assert tenant.pending_experience() == 3  # nothing consumed

    def test_local_update_ships_shared_state_only(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        tenant.inject_experience(pool[:6])
        update = tenant.local_update(global_state)
        assert update is not None
        state, num_examples = update
        assert state, "client update must carry parameters"
        assert all(name.startswith(SHARED_MODULE_PREFIXES) for name in state)
        assert not any(name.startswith("featurizers.") for name in state)
        assert 0 < num_examples < 6  # validation slice held out
        assert tenant.pending_experience() == 0
        assert tenant.counters()["rounds_participated"] == 1

    def test_optimizer_state_carries_across_local_rounds(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config(fine_tune_epochs=1))
        tenant.inject_experience(pool[:4])
        tenant.local_update(global_state)
        first_t = tenant._optimizer_state["t"]
        tenant.inject_experience(pool[4:8])
        tenant.local_update(global_state)
        assert tenant._optimizer_state["t"] > first_t

    def test_inject_experience_dedups_by_signature(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[1]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        assert tenant.inject_experience(pool[:4]) == 4
        assert tenant.inject_experience(pool[:4]) == 0

    def test_consider_global_without_experience_keeps_live_model(self, fixture):
        tenants, global_state = fixture
        db, featurizer, _ = tenants[2]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        live = tenant.live_model
        assert tenant.consider_global(global_state) is None
        assert tenant.live_model is live
        assert tenant.counters()["gate_unvalidated"] == 1


class TestFleetRounds:
    def test_round_merges_checkpoints_and_pushes(self, fixture, tmp_path):
        tenants, global_state = fixture
        config = tiny_fleet_config(checkpoint_dir=str(tmp_path))
        fleet = FleetCoordinator(TINY, config)
        fleet.global_model.load_state_dict(global_state)
        for db, featurizer, pool in tenants[:2]:
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
        before = {k: v.copy() for k, v in fleet.global_state().items()}
        round_ = fleet.run_round()
        assert round_.merged
        assert sorted(name for name, _ in round_.participants) == sorted(
            db.name for db, _, _ in tenants[:2]
        )
        assert round_.checkpoint_path is not None and round_.checkpoint_path.endswith(".npz")
        import os

        assert os.path.exists(round_.checkpoint_path)
        gated = set(round_.accepted) | set(round_.rejected) | set(round_.unvalidated)
        assert gated == {db.name for db, _, _ in tenants[:2]}
        if not round_.reverted:
            after = fleet.global_state()
            assert any(not np.array_equal(before[k], after[k]) for k in before)
        # Accepted tenants actually serve the merged model.
        for name in round_.accepted:
            tenant = fleet.tenants[name]
            for key, value in fleet.global_state().items():
                np.testing.assert_array_equal(tenant.live_model.state_dict()[key], value)

    def test_round_without_fresh_experience_is_a_noop(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            db, featurizer, _ = tenants[0]
            fleet.register(make_tenant(db, featurizer, global_state, config))
            before = {k: v.copy() for k, v in fleet.global_state().items()}
            round_ = fleet.run_round()
            assert not round_.merged
            assert round_.checkpoint_path is None
            assert round_.skipped == [db.name]
            after = fleet.global_state()
            for key in before:
                np.testing.assert_array_equal(before[key], after[key])

    def test_onboard_deploys_global_zero_shot(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            db, featurizer, pool = tenants[2]
            tenant = fleet.onboard(db, featurizer=featurizer)
            assert tenant.name in fleet.tenants
            # Zero-shot: the tenant's (S)/(T) is exactly the global state.
            live_state = tenant.live_model.state_dict()
            for key, value in fleet.global_state().items():
                np.testing.assert_array_equal(live_state[key], value)
            with tenant:
                order = tenant.optimize(pool[0])
            assert sorted(order) == sorted(pool[0].query.tables)

    def test_duplicate_registration_rejected(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        fleet = FleetCoordinator(TINY, config)
        db, featurizer, _ = tenants[0]
        fleet.register(make_tenant(db, featurizer, global_state, config))
        with pytest.raises(ValueError, match="already registered"):
            fleet.register(make_tenant(db, featurizer, global_state, config))

    def test_poisoned_tenant_round_is_gate_blocked(self, fixture):
        """A tenant trained on worst-order labels cannot reach any live
        model: every gate rejects, the swap never happens, and the
        coordinator reverts the global lineage."""
        tenants, global_state = fixture
        config = tiny_fleet_config(validation_fraction=0.4)
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:6])
                nodes.append(tenant)
            fleet.run_round()  # healthy round; consumes all fresh experience

            # Poison tenant 1 with fresh (unseen-signature) experience
            # whose JoinSel labels are the worst sampled legal orders,
            # fine-tuned hot (big lr, many epochs) so the divergence is
            # unmistakable on every database.
            config.learning_rate = 0.05
            config.fine_tune_epochs = 15
            poison_db, _, poison_pool = tenants[1]
            poisoned = [
                dataclasses.replace(item, optimal_order=worst_legal_order(poison_db, item))
                for item in poison_pool[6:14]
            ]
            assert nodes[1].inject_experience(poisoned) >= config.min_new_experience

            live_before = [node.live_model for node in nodes]
            orders_before = [
                [node.live_model.predict_join_order(db.name, item) for item in pool[:6]]
                for node, (db, _, pool) in zip(nodes, tenants[:2])
            ]
            global_before = {k: v.copy() for k, v in fleet.global_state().items()}

            round_ = fleet.run_round()
            assert [name for name, _ in round_.participants] == [poison_db.name]
            assert not round_.accepted
            assert round_.reverted
            # Every live model — and every served order — is unchanged.
            for node, live in zip(nodes, live_before):
                assert node.live_model is live
            orders_after = [
                [node.live_model.predict_join_order(db.name, item) for item in pool[:6]]
                for node, (db, _, pool) in zip(nodes, tenants[:2])
            ]
            assert orders_after == orders_before
            # The poisoned merge did not linger in the global lineage.
            global_after = fleet.global_state()
            for key in global_before:
                np.testing.assert_array_equal(global_before[key], global_after[key])

    def test_crashing_tenant_is_recorded_not_silent(self, fixture):
        """A tenant whose local update raises lands in round.failed (not
        'skipped'), the counter bumps, and the rest of the round runs."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            healthy_db, healthy_featurizer, healthy_pool = tenants[0]
            healthy = fleet.register(
                make_tenant(healthy_db, healthy_featurizer, global_state, config)
            )
            healthy.inject_experience(healthy_pool[:6])
            broken_db, broken_featurizer, broken_pool = tenants[1]
            broken = fleet.register(
                make_tenant(broken_db, broken_featurizer, global_state, config)
            )
            broken.inject_experience(broken_pool[:6])
            broken.local_update = lambda *_: (_ for _ in ()).throw(RuntimeError("boom"))
            round_ = fleet.run_round()
            assert round_.failed == [broken.name]
            assert [name for name, _ in round_.participants] == [healthy.name]
            assert fleet.tenant_failures >= 1
            assert round_.merged  # the healthy tenant's round still landed

    def test_reverted_round_returns_harvest_credit(self, fixture):
        """When every gate rejects a round, participants get their fresh
        experience back — the deduped buffer cannot re-admit it, so the
        cursor must roll back for a future round to retrain on it."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            pending_before = tenant.pending_experience()
            # Force unanimous rejection regardless of model quality.
            original = tenant.consider_global
            tenant.consider_global = lambda *_: False
            try:
                round_ = fleet.run_round()
            finally:
                tenant.consider_global = original
            assert round_.reverted
            assert tenant.pending_experience() == pending_before
            # The rejected merge's checkpoint is withdrawn from the
            # lineage along with the in-memory state.
            assert round_.checkpoint_path is None

    def test_zero_verdict_round_is_never_published(self, fixture):
        """If every gate raises (no verdict at all), the merge must not
        land: publishing a state nobody measured would bypass the gate
        safeguard entirely."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            pending_before = tenant.pending_experience()
            before = {k: v.copy() for k, v in fleet.global_state().items()}
            tenant.consider_global = lambda *_: (_ for _ in ()).throw(RuntimeError("gate down"))
            round_ = fleet.run_round()
            assert round_.reverted
            assert tenant.name in round_.failed
            assert round_.checkpoint_path is None
            assert tenant.pending_experience() == pending_before
            after = fleet.global_state()
            for key in before:
                np.testing.assert_array_equal(before[key], after[key])

    def test_background_loop_fires_rounds(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config(min_participants=1)
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            fleet.start()
            try:
                deadline = threading.Event()
                for _ in range(600):  # up to 30 s
                    if fleet.rounds:
                        break
                    deadline.wait(0.05)
            finally:
                fleet.stop()
            assert fleet.rounds, "background loop never fired a round"
            assert fleet.rounds[0].merged


class TestFleetReport:
    def test_report_merges_tenants(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:4])
                nodes.append((tenant, pool))
            for tenant, pool in nodes:
                with tenant:
                    for _, item in traffic_stream(pool[:4], occurrences=2, seed=3):
                        tenant.optimize(item)
            fleet.run_round()
            report = fleet.report()
            assert isinstance(report, FleetReport)
            assert report.num_tenants == 2
            assert report.completed == sum(r.completed for r in report.tenants.values())
            assert report.completed == 16
            assert report.rounds == 1

    def test_format_fleet_report_renders(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:5])
            fleet.run_round()
            text = format_fleet_report(fleet.report())
        assert "Federated fleet report" in text
        assert "federated rounds" in text
        assert "global-model gates" in text
        for db, _, _ in tenants[:2]:
            assert f"tenant {db.name!r}" in text

    def test_empty_fleet_report_renders(self):
        text = format_fleet_report(FleetReport())
        assert "tenants" in text and "0" in text


@pytest.mark.threaded
class TestFleetStress:
    def test_concurrent_traffic_with_mid_round_swap(self, fixture):
        """Two tenants under multi-threaded traffic while a federated
        round (fine-tune + gate + hot-swap) runs concurrently: every
        request is answered exactly once with a legal permutation."""
        tenants, global_state = fixture
        config = tiny_fleet_config(fine_tune_epochs=3, regret_tolerance_ms=1e9)
        # One lock-order graph spans every tenant's service mutex,
        # collector mutex and serving model inference lock: a cross-layer
        # inversion introduced anywhere in the fleet fails this test.
        lock_monitor = LockMonitor()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_state_dict(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                instrument_model(tenant.live_model, lock_monitor, name=f"model[{tenant.name}]")
                instrument_service(tenant.service, lock_monitor)
                instrument_collector(tenant.collector, lock_monitor)
                tenant.inject_experience(pool[:6])
                nodes.append((tenant, pool))

            errors: list[BaseException] = []
            responses: dict[tuple, list[str]] = {}
            lock = threading.Lock()

            def client(tenant, pool, worker_index):
                stream = traffic_stream(pool, occurrences=3, seed=worker_index)
                for slot, (index, item) in enumerate(stream):
                    try:
                        order = tenant.optimize(item, timeout=60)
                    except BaseException as error:
                        with lock:
                            errors.append(error)
                        return
                    with lock:
                        responses[(tenant.name, worker_index, slot)] = (index, order)

            threads = []
            for tenant, pool in nodes:
                tenant.start()
                for worker_index in range(4):
                    threads.append(
                        threading.Thread(target=client, args=(tenant, pool, worker_index))
                    )
            for thread in threads:
                thread.start()
            # The round runs while traffic flows: the tolerance forces
            # an accept so the hot-swap genuinely lands mid-traffic.
            round_ = fleet.run_round()
            for thread in threads:
                thread.join()
            for tenant, _ in nodes:
                tenant.stop()

            assert not errors, errors[:3]
            expected = sum(len(pool) * 3 * 4 for _, pool in nodes)
            assert len(responses) == expected
            pools = {tenant.name: pool for tenant, pool in nodes}
            for (tenant_name, _, _), (index, order) in responses.items():
                item = pools[tenant_name][index]
                assert sorted(order) == sorted(item.query.tables)
            assert round_.merged
            assert round_.accepted  # the tolerance guarantees swaps landed
            lock_monitor.assert_clean()  # no inversion across the fleet's locks
