"""Seeded inputs and the timed set-up every workload starts from.

Everything random derives from the workload seed: the database, the
queries of each set, the Zipf request stream and the training shuffle.
The program under test only ever sees the generated inputs.

Set-up is what a deployment pays before it can answer: generate the
database, label queries by executing them (true cardinalities, costs,
exact optimal join orders), train the per-table featurizer and, for the
planning workloads, train the model.  It runs several times per run and
the median is reported, so one slow repetition does not move it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import DatabaseFeaturizer, JointTrainer, ModelConfig, MTMLFQO
from repro.core.serializer import query_signature
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

NUM_TABLES = 10
ROW_RANGE = (200, 1500)
ATTR_RANGE = (2, 4)
TABLE_COUNTS = (3, 4, 5, 6)
FEATURIZER_QUERIES = 6      # single-table queries per table for Enc_i
FEATURIZER_EPOCHS = 2
SETUP_EPOCHS = 2            # joint epochs of the planning workloads' model
SETUP_REPEATS = 3


def model_config() -> ModelConfig:
    return ModelConfig(d_model=48, shared_layers=2, decoder_layers=2)


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit seeds for each random stream of one run."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def zipf_stream(seed: int, pool_size: int, length: int, exponent: float = 1.0) -> np.ndarray:
    """Pool indices of a Zipf(``exponent``) request stream.

    Which queries are hot changes with the seed, but not how many tables
    they join: the pool interleaves the table counts, and popularity
    rank ``r`` goes to a seeded pick among the pool's queries of table
    count ``r % 4``.  Otherwise a seed whose few hottest queries happen
    to be 6-table joins would serve a heavier mix than the next seed.
    """
    classes = len(TABLE_COUNTS)
    if pool_size % classes:
        raise ValueError(f"pool size {pool_size} is not a multiple of {classes}")
    rng = np.random.default_rng(seed)
    picks = [rng.permutation(np.arange(c, pool_size, classes)) for c in range(classes)]
    rank_to_item = np.array([picks[r % classes][r // classes] for r in range(pool_size)])
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** exponent
    ranks = rng.choice(pool_size, size=length, p=weights / weights.sum())
    return rank_to_item[ranks]


@dataclass
class Fixture:
    db: object
    config: ModelConfig
    featurizer: DatabaseFeaturizer
    train_items: list
    eval_items: list
    model: MTMLFQO | None
    train_loss: float | None
    stages: dict = field(default_factory=dict)


def labeled_sets(db, seed: int, per_size: list[int]) -> list[list]:
    """Distinct labeled queries, ``per_size[j]`` of each table count per set.

    Every returned query carries an optimal-order label; queries whose
    labeling hits the execution bound are skipped and replaced.  Sets
    are disjoint, and within a set the table counts are interleaved so
    any consecutive block of ``4 * k`` queries holds ``k`` of each.
    """
    seen: set = set()
    labeler = QueryLabeler(db)
    sets: list[list[list]] = [[[] for _ in TABLE_COUNTS] for _ in per_size]
    for column, tables in enumerate(TABLE_COUNTS):
        generator = WorkloadGenerator(
            db, WorkloadConfig(min_tables=tables, max_tables=tables, seed=seed + tables)
        )
        for set_index, wanted in enumerate(per_size):
            bucket = sets[set_index][column]
            attempts = 0
            while len(bucket) < wanted:
                attempts += 1
                if attempts > 50 * wanted:
                    raise RuntimeError(f"could not generate {wanted} distinct {tables}-table queries")
                query = generator.generate_query(tables)
                signature = query_signature(query)
                if query.num_tables != tables or signature in seen:
                    continue
                item = labeler.label(query, with_optimal_order=True)
                if item is None or item.optimal_order is None:
                    continue
                seen.add(signature)
                bucket.append(item)
    return [[item for row in zip(*columns) for item in row] for columns in sets]


def build(seed: int, train_per_size: int, eval_per_size: int, train_model: bool) -> Fixture:
    """One full set-up; ``stages`` holds the seconds each stage took."""
    db_seed, query_seed, train_seed = sub_seeds(seed, 3)
    stages = {}
    start = time.perf_counter()
    db = generate_database(seed=db_seed, num_tables=NUM_TABLES, row_range=ROW_RANGE,
                           attr_range=ATTR_RANGE)
    stages["datagen_s"] = time.perf_counter() - start

    start = time.perf_counter()
    train_items, eval_items = labeled_sets(
        db, query_seed, [train_per_size, eval_per_size]
    )
    stages["label_s"] = time.perf_counter() - start

    config = model_config()
    start = time.perf_counter()
    featurizer = DatabaseFeaturizer(db, config)
    featurizer.train_encoders(queries_per_table=FEATURIZER_QUERIES, epochs=FEATURIZER_EPOCHS)
    stages["featurizer_s"] = time.perf_counter() - start

    model, train_loss = None, None
    start = time.perf_counter()
    if train_model:
        model = MTMLFQO(config)
        model.attach_featurizer(db.name, featurizer)
        result = JointTrainer(model).train(
            [(db.name, item) for item in train_items],
            epochs=SETUP_EPOCHS, batch_size=16, seed=train_seed,
        )
        train_loss = result.final_loss
    stages["train_s"] = time.perf_counter() - start
    return Fixture(db, config, featurizer, train_items, eval_items, model, train_loss, stages)


def timed_setup(
    seed: int, train_per_size: int, eval_per_size: int, train_model: bool
) -> tuple[Fixture, dict, int]:
    """Set up ``SETUP_REPEATS`` times from the same seed.

    Returns the last fixture, the median seconds of each stage and of
    the whole set-up, and how many repetitions disagreed with the first
    one (the same seed must give the same inputs and the same model).
    """
    runs = []
    mismatches = 0
    fixture = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh = build(seed, train_per_size, eval_per_size, train_model)
        total = time.perf_counter() - start
        runs.append({**fresh.stages, "setup_s": total})
        if fixture is not None and not same_inputs(fixture, fresh):
            mismatches += 1
        fixture = fresh
    medians = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    return fixture, medians, mismatches


def same_inputs(a: Fixture, b: Fixture) -> bool:
    def signatures(items):
        return [(query_signature(item.query), tuple(item.optimal_order)) for item in items]

    return (
        signatures(a.train_items) == signatures(b.train_items)
        and signatures(a.eval_items) == signatures(b.eval_items)
        and a.train_loss == b.train_loss
    )
