"""Full-model checkpoint round trips, integrity, and warm-start training.

The ISSUE's contract: ``save_checkpoint`` → ``load_checkpoint`` is
bit-exact (identical join orders and cardinality/cost predictions),
atomic on disk, carries the model version across the hop, refuses
corrupted/truncated files and mismatched databases, and optionally
restores Adam moments keyed by parameter name for warm-start training.
"""

import copy
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.core import (
    CheckpointError,
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
    load_optimizer_state,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=6, num_tables=4, row_range=(60, 150), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=7))
    items = QueryLabeler(db).label_many(generator.generate(12), with_optimal_order=True)
    assert len(items) >= 6
    return items


@pytest.fixture(scope="module")
def trained(db, labeled):
    """A trained (featurizer + joint) model plus its trainer."""
    featurizer = DatabaseFeaturizer(db, SMALL)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    trainer = JointTrainer(model)
    trainer.train([(db.name, item) for item in labeled], epochs=2, batch_size=4)
    return model, trainer


class TestRoundTrip:
    def test_bit_exact_predictions(self, db, labeled, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "full"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.predict_join_orders(db.name, labeled) == model.predict_join_orders(
            db.name, labeled
        )
        for direct, restored in zip(
            model.predict_cardinalities(db.name, labeled),
            loaded.predict_cardinalities(db.name, labeled),
        ):
            np.testing.assert_array_equal(direct, restored)
        for direct, restored in zip(
            model.predict_costs(db.name, labeled),
            loaded.predict_costs(db.name, labeled),
        ):
            np.testing.assert_array_equal(direct, restored)

    @pytest.mark.parametrize("beam_width", [1, 4])
    def test_bit_exact_across_beam_widths(self, db, labeled, trained, tmp_path, beam_width):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "bw"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.predict_join_orders(
            db.name, labeled, beam_width=beam_width
        ) == model.predict_join_orders(db.name, labeled, beam_width=beam_width)

    def test_model_version_and_config_survive(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "v"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.version == model.version
        assert loaded.config == model.config
        assert sorted(loaded.featurizers) == sorted(model.featurizers)
        assert not loaded.training  # ready to serve

    def test_save_path_normalized_and_atomic(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "ckpt"))
        assert path == str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_meta_readable_without_loading(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "meta"))
        meta = read_checkpoint_meta(path)
        assert meta["model_version"] == model.version
        assert meta["config"]["d_model"] == SMALL.d_model
        assert list(meta["featurizers"]) == [db.name]
        assert meta["optimizer"] is None


class TestErrorPaths:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nope"))

    def test_truncated_file(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "trunc"))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases=db)

    def test_corrupted_payload_fails_integrity(self, db, trained, tmp_path):
        """Bit rot inside an array is caught by the SHA-256 digest."""
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "rot"))
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            original = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([original[0] ^ 0xFF]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases=db)

    def test_not_a_checkpoint(self, db, tmp_path):
        path = str(tmp_path / "plain.npz")
        with open(path, "wb") as handle:
            np.savez(handle, weight=np.zeros(3))
        with pytest.raises(CheckpointError, match="not an MTMLF-QO checkpoint"):
            load_checkpoint(path, databases=db)

    def test_missing_database_named_in_error(self, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "nodb"))
        with pytest.raises(CheckpointError, match="no\\s+Database was provided"):
            load_checkpoint(path)

    def test_wrong_database_schema_rejected(self, trained, tmp_path):
        model, _ = trained
        other = generate_database(seed=99, num_tables=3, row_range=(20, 40), attr_range=(2, 2))
        path = save_checkpoint(model, str(tmp_path / "schema"))
        saved_name = list(model.featurizers)[0]
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases={saved_name: other})


class TestWarmStart:
    def test_optimizer_state_round_trips(self, db, labeled, trained, tmp_path):
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "warm"))
        assert read_checkpoint_meta(path)["optimizer"]["t"] == trainer.optimizer._t
        restored = JointTrainer.warm_start(path, databases=db)
        original = trainer.optimizer.state_dict()
        roundtripped = restored.optimizer.state_dict()
        assert roundtripped["t"] == original["t"]
        assert set(roundtripped["m"]) == set(original["m"])
        for key in original["m"]:
            np.testing.assert_array_equal(roundtripped["m"][key], original["m"][key])
            np.testing.assert_array_equal(roundtripped["v"][key], original["v"][key])

    def test_warm_started_step_matches_original(self, db, labeled, trained, tmp_path):
        """One identical gradient step after restore lands on identical
        weights — the whole point of persisting the moments."""
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "step"))
        restored = JointTrainer.warm_start(path, databases=db)
        batch = labeled[:4]
        trainer.model.train()
        restored.model.train()
        loss_a = trainer._step(db.name, batch)
        loss_b = restored._step(db.name, batch)
        assert loss_a == loss_b
        for (name_a, pa), (name_b, pb) in zip(
            trainer.model.named_parameters(), restored.model.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_warm_start_restores_saved_hyperparameters(self, db, labeled, tmp_path):
        """Resuming must continue the saved run's lr/betas, not whatever
        the model config's defaults happen to be."""
        featurizer = DatabaseFeaturizer(db, SMALL)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model, learning_rate=5e-4)
        trainer.optimizer.beta1 = 0.85
        path = trainer.save_checkpoint(str(tmp_path / "hyper"))
        restored = JointTrainer.warm_start(path, databases=db)
        assert restored.optimizer.lr == 5e-4
        assert restored.optimizer.beta1 == 0.85
        overridden = JointTrainer.warm_start(path, databases=db, learning_rate=1e-5)
        assert overridden.optimizer.lr == 1e-5  # explicit override wins
        assert overridden.optimizer.beta1 == 0.85

    def test_checkpoint_without_optimizer_refuses_warm_start(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "cold"))
        optimizer = nn.Adam(model.named_parameters())
        with pytest.raises(CheckpointError, match="no optimizer state"):
            load_optimizer_state(path, optimizer)

    def test_stale_optimizer_state_refused_by_name(self, db, trained, tmp_path):
        """Optimizer state from a differently-shaped parameter set must
        raise, never misalign (the old positional-keying bug)."""
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "stale"))
        bigger = MTMLFQO(ModelConfig(d_model=16, num_heads=2, encoder_layers=1,
                                     shared_layers=2, decoder_layers=1))
        optimizer = nn.Adam(bigger.named_parameters())
        with pytest.raises(CheckpointError, match="does not match the current parameter set"):
            load_optimizer_state(path, optimizer)


# ---------------------------------------------------------------------------
# Typed-error boundary: arrays that pass the digest, metadata that is wrong
# ---------------------------------------------------------------------------
META_KEY = "__checkpoint_meta__"
# Where load_checkpoint reads metadata: top-level keys, every config
# field, and each featurizer's schema.
META_PATHS = (
    [("config",), ("featurizers",), ("model_version",), ("format_version",), ("digest",), ("optimizer",)]
    + [("config", field) for field in ModelConfig.__dataclass_fields__]
    + [("featurizers", "<db>"), ("featurizers", "<db>", "schema")]
)
ODD_VALUES = st.sampled_from(["abc", None, [], {}, 1.5, -1, 0, True, [1, 2], {"x": 1}, [["t", 3]]])


def _resolve(path, db_name):
    return tuple(db_name if part == "<db>" else part for part in path)


@st.composite
def mutated_meta(draw, meta, db_name):
    kind = draw(st.sampled_from(["drop", "retype", "non-dict"]))
    if kind == "non-dict":
        return draw(st.sampled_from([[], [meta], "meta", 3, None, 1.5]))
    meta = copy.deepcopy(meta)
    path = _resolve(draw(st.sampled_from(META_PATHS)), db_name)
    parent = meta
    for part in path[:-1]:
        parent = parent[part]
    if kind == "drop":
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = draw(ODD_VALUES)
    return meta


@pytest.fixture(scope="module")
def saved_archive(db, tmp_path_factory):
    """An untrained model's checkpoint, loaded back as raw npz members."""
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, DatabaseFeaturizer(db, SMALL))
    path = save_checkpoint(model, str(tmp_path_factory.mktemp("ckpt") / "base.npz"))
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(members.pop(META_KEY)).decode())
    return members, meta, str(tmp_path_factory.mktemp("mutated") / "mutated.npz")


class TestMetadataBoundary:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_metadata_raises_only_checkpoint_error(self, db, saved_archive, data):
        members, meta, path = saved_archive
        bad = data.draw(mutated_meta(meta, db.name))
        raw = np.frombuffer(json.dumps(bad).encode(), dtype=np.uint8)
        np.savez(path, **members, **{META_KEY: raw})
        try:
            assert isinstance(read_checkpoint_meta(path), dict)
        except CheckpointError:
            pass
        try:
            assert isinstance(load_checkpoint(path, db), MTMLFQO)
        except CheckpointError:
            pass

    def test_each_reported_failure_is_a_checkpoint_error(self, db, saved_archive):
        members, meta, path = saved_archive
        cases = {
            "config missing": {k: v for k, v in meta.items() if k != "config"},
            "unknown config field": {**meta, "config": {**meta["config"], "bogus": 1}},
            "d_model retyped": {**meta, "config": {**meta["config"], "d_model": "abc"}},
            "list metadata": [meta],
            "model_version retyped": {**meta, "model_version": "x"},
        }
        for name, bad in cases.items():
            raw = np.frombuffer(json.dumps(bad).encode(), dtype=np.uint8)
            np.savez(path, **members, **{META_KEY: raw})
            with pytest.raises(CheckpointError):
                load_checkpoint(path, db)
            if name == "list metadata":
                with pytest.raises(CheckpointError):
                    read_checkpoint_meta(path)
