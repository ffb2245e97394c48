"""Full-model checkpoints: the MLA ship-and-serve format (Algorithm 1).

The paper's workflow has the cloud provider pre-train (S)+(T) and ship
them to users, who bolt on per-database (F) modules.  This module makes
that a first-class, durable artifact: one ``.npz`` file holding the
complete :class:`~repro.core.model.MTMLFQO` —

- the :class:`~repro.core.config.ModelConfig` (so load rebuilds the
  exact architecture, not whatever the caller's defaults happen to be);
- the (S)/(T) weights (``shared``, ``card_head``, ``cost_head``,
  ``trans_jo``);
- every attached :class:`~repro.core.encoders.DatabaseFeaturizer`'s
  weights plus its schema signature (tables + column vocabulary), so a
  restore onto the wrong database fails loudly instead of silently
  permuting column embeddings;
- the :attr:`MTMLFQO.version` counter, so serving-layer plan caches keep
  their invalidation semantics across a save/load hop;
- optionally an :class:`~repro.nn.optim.Adam` state dict (moments keyed
  by parameter *name*) for warm-start training.

Durability and integrity: files are written atomically (tmp +
``os.replace`` via :func:`repro.nn.serialize.atomic_savez`) and carry a
SHA-256 digest over all array payloads; a truncated, corrupted or
non-checkpoint file raises :class:`CheckpointError` on load.  The digest
does not cover the metadata, so load validates its shape and types and
reports a malformed one as :class:`CheckpointError` too — no other
exception type crosses this boundary.

Round trips are bit-exact: a loaded model produces byte-identical
join orders and cardinality/cost predictions (``tests/test_checkpoint.py``
asserts this property), which is what lets
:meth:`repro.serve.OptimizerService.swap_model` hot-swap checkpoints
into a live service.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile

import numpy as np

from ..nn.optim import Adam
from ..nn.serialize import atomic_savez, resolve_npz_path
from ..storage.catalog import Database
from .config import ModelConfig
from .encoders import DatabaseFeaturizer
from .model import MTMLFQO

__all__ = [
    "CheckpointError",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_optimizer_state",
    "read_checkpoint_meta",
]

CHECKPOINT_FORMAT_VERSION = 1

_META_KEY = "__checkpoint_meta__"
_MODEL_PREFIX = "model/"
_FEATURIZER_PREFIX = "featurizer/"
_OPTIM_PREFIX = "optim/"


class CheckpointError(RuntimeError):
    """The file is not a readable checkpoint (corrupt, truncated, wrong
    format version) or does not fit the load target (missing database,
    schema mismatch, no optimizer state)."""


def _digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _encode_meta(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)


def save_checkpoint(model: MTMLFQO, path: str, optimizer: Adam | None = None) -> str:
    """Atomically persist a complete model (and optional Adam state).

    Taken under the model's inference lock, so the snapshot is
    consistent with respect to concurrent inference and ``mark_updated``
    bumps (training concurrently with a save is unsupported, as
    everywhere else in the repo — retrain offline).  Returns the
    resolved ``.npz`` path actually written.
    """
    arrays: dict[str, np.ndarray] = {}
    with model._infer_lock:
        for name, value in model.state_dict().items():
            arrays[_MODEL_PREFIX + name] = value
        featurizer_meta: dict[str, dict] = {}
        for db_name, featurizer in sorted(model.featurizers.items()):
            for name, value in featurizer.state_dict().items():
                arrays[f"{_FEATURIZER_PREFIX}{db_name}/{name}"] = value
            featurizer_meta[db_name] = {
                "schema": [list(entry) for entry in featurizer.schema_signature()],
            }
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "model_version": model.version,
            "config": dataclasses.asdict(model.config),
            "featurizers": featurizer_meta,
            "optimizer": None,
        }
        if optimizer is not None:
            state = optimizer.state_dict()
            for key in sorted(state["m"]):
                arrays[f"{_OPTIM_PREFIX}m/{key}"] = state["m"][key]
                arrays[f"{_OPTIM_PREFIX}v/{key}"] = state["v"][key]
            meta["optimizer"] = {
                "t": state["t"],
                "keys": sorted(state["m"]),
                "lr": optimizer.lr,
                "betas": [optimizer.beta1, optimizer.beta2],
                "eps": optimizer.eps,
                "weight_decay": optimizer.weight_decay,
            }
    meta["digest"] = _digest(arrays)
    arrays[_META_KEY] = _encode_meta(meta)
    return atomic_savez(path, arrays)


def _read_archive(
    path: str, verify_digest: bool, meta_only: bool = False
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load + validate a checkpoint archive into (meta, arrays).

    ``meta_only`` decompresses just the metadata member (npz members load
    lazily), so peeking at a large checkpoint stays cheap; ``arrays`` is
    empty and no digest can be checked in that mode.
    """
    path = resolve_npz_path(path)
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    arrays: dict[str, np.ndarray] = {}
    try:
        # Own the file handle: np.load(path) opens the fd itself and
        # leaks it when the constructor raises before the NpzFile exists
        # (e.g. BadZipFile on a truncated file); the outer `with open`
        # closes it on every path.
        with open(path, "rb") as handle, np.load(handle) as archive:
            if _META_KEY not in archive.files:
                raise CheckpointError(f"{path!r} is not an MTMLF-QO checkpoint (no metadata)")
            meta_raw = archive[_META_KEY]
            if not meta_only:
                arrays = {key: archive[key] for key in archive.files if key != _META_KEY}
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as error:
        raise CheckpointError(f"unreadable checkpoint {path!r}: {error}") from error
    try:
        meta = json.loads(bytes(meta_raw).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"corrupt checkpoint metadata in {path!r}: {error}") from error
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint metadata in {path!r}: not a JSON object")
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {meta.get('format_version')!r} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    if verify_digest and _digest(arrays) != meta.get("digest"):
        raise CheckpointError(f"checkpoint {path!r} failed its integrity check")
    return meta, arrays


def read_checkpoint_meta(path: str) -> dict:
    """The checkpoint's metadata (config, model version, databases, ...)
    without loading or verifying the weight arrays."""
    meta, _ = _read_archive(path, verify_digest=False, meta_only=True)
    return meta


def _databases_by_name(databases) -> dict[str, Database]:
    if databases is None:
        return {}
    if isinstance(databases, Database):
        databases = [databases]
    if isinstance(databases, dict):
        return dict(databases)
    return {db.name: db for db in databases}


def _config_from_meta(meta: dict, path: str) -> ModelConfig:
    """The saved :class:`ModelConfig`, every field checked against the
    type of its default (an int field takes a non-negative int — they
    are sizes, counts and seeds — and a float field an int or float)."""
    raw = meta.get("config")
    if not isinstance(raw, dict):
        raise CheckpointError(f"checkpoint {path!r} metadata has no config object")
    fields = {field.name: field.default for field in dataclasses.fields(ModelConfig)}
    for name, value in raw.items():
        if name not in fields:
            raise CheckpointError(f"checkpoint {path!r} config has unknown field {name!r}")
        kinds = (int, float) if isinstance(fields[name], float) else (type(fields[name]),)
        if isinstance(value, bool) or not isinstance(value, kinds) or (kinds == (int,) and value < 0):
            raise CheckpointError(
                f"checkpoint {path!r} config field {name!r} is {value!r}, "
                f"not a valid {type(fields[name]).__name__}"
            )
    return ModelConfig(**raw)


def _schemas_from_meta(meta: dict, path: str) -> dict[str, tuple]:
    """``{db_name: schema signature}`` of the saved featurizers."""
    saved = meta.get("featurizers")
    if not isinstance(saved, dict):
        raise CheckpointError(f"checkpoint {path!r} metadata has no featurizers object")
    schemas = {}
    for db_name, entry in saved.items():
        schema = entry.get("schema") if isinstance(entry, dict) else None
        if not isinstance(schema, list) or not all(
            isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
            and isinstance(item[1], list) and all(isinstance(c, str) for c in item[1])
            for item in schema
        ):
            raise CheckpointError(f"checkpoint {path!r} has a malformed schema for {db_name!r}")
        schemas[db_name] = tuple((table, tuple(columns)) for table, columns in schema)
    return schemas


def load_checkpoint(path: str, databases=None) -> MTMLFQO:
    """Rebuild the full model saved by :func:`save_checkpoint`.

    ``databases`` supplies the :class:`Database` handle for each saved
    featurizer (a single ``Database``, a list, or a ``{name: Database}``
    mapping) — table data and statistics are the database's own state,
    not model weights, so the caller provides them and the checkpoint
    verifies the schema signature matches before loading weights.

    The returned model is in eval mode, carries the saved
    ``model_version``, and is bit-identical to the saved one: same join
    orders, same cardinality/cost predictions.
    """
    meta, arrays = _read_archive(path, verify_digest=True)
    config = _config_from_meta(meta, path)
    schemas = _schemas_from_meta(meta, path)
    version = meta.get("model_version")
    if isinstance(version, bool) or not isinstance(version, int):
        raise CheckpointError(f"checkpoint {path!r} model_version is {version!r}, not an int")
    by_name = _databases_by_name(databases)
    saved_dbs = sorted(schemas)
    missing = [name for name in saved_dbs if name not in by_name]
    if missing:
        raise CheckpointError(
            f"checkpoint has featurizers for databases {saved_dbs} but no "
            f"Database was provided for {missing}; pass them via `databases`"
        )

    try:
        with np.errstate(all="raise"):  # e.g. a zero head_dim's 1/sqrt(0)
            model = MTMLFQO(config)
    except (TypeError, ValueError, ArithmeticError) as error:
        raise CheckpointError(f"checkpoint {path!r} config builds no model: {error}") from error
    model_state = {
        name[len(_MODEL_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_MODEL_PREFIX)
    }
    try:
        model.load_state_dict(model_state)
    except (KeyError, ValueError) as error:
        raise CheckpointError(f"incompatible (S)/(T) state: {error}") from error

    for db_name in saved_dbs:
        try:
            with np.errstate(all="raise"):
                featurizer = DatabaseFeaturizer(by_name[db_name], config)
        except (TypeError, ValueError, ArithmeticError) as error:
            raise CheckpointError(
                f"checkpoint {path!r} config builds no featurizer for {db_name!r}: {error}"
            ) from error
        saved_schema = schemas[db_name]
        if featurizer.schema_signature() != saved_schema:
            raise CheckpointError(
                f"database {db_name!r} does not match the checkpointed schema: "
                f"saved {saved_schema} vs provided "
                f"{featurizer.schema_signature()}"
            )
        prefix = f"{_FEATURIZER_PREFIX}{db_name}/"
        featurizer_state = {
            name[len(prefix):]: value
            for name, value in arrays.items()
            if name.startswith(prefix)
        }
        try:
            featurizer.load_state_dict(featurizer_state)
        except (KeyError, ValueError) as error:
            raise CheckpointError(
                f"incompatible featurizer state for {db_name!r}: {error}"
            ) from error
        model.attach_featurizer(db_name, featurizer)

    model.eval()
    # Restore last: attach_featurizer bumps the counter during rebuild,
    # and serving caches key on it — the saved identity must win.
    model.restore_version(version)
    return model


def load_optimizer_state(path: str, optimizer: Adam) -> Adam:
    """Warm-start ``optimizer`` from a checkpoint saved with one.

    The optimizer must be built over *named* parameters whose name set
    matches the saved state (e.g. ``Adam(model.named_parameters())`` for
    a model loaded from the same checkpoint); any mismatch raises, it
    never misaligns.
    """
    meta, arrays = _read_archive(path, verify_digest=True)
    saved = meta.get("optimizer")
    if saved is None:
        raise CheckpointError(f"checkpoint {path!r} carries no optimizer state")
    try:
        state = {
            "t": saved["t"],
            "m": {key: arrays[f"{_OPTIM_PREFIX}m/{key}"] for key in saved["keys"]},
            "v": {key: arrays[f"{_OPTIM_PREFIX}v/{key}"] for key in saved["keys"]},
        }
        optimizer.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint {path!r} has unusable optimizer state: {error}") from error
    return optimizer
