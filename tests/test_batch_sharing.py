"""Per-query planning work shared across a ``predict_join_orders`` batch.

Two optimizations must change nothing but speed, and the reference for
each is the plain algorithm spelled out here:

- the cost rerank plans every beam candidate of a query against one
  :class:`QueryEstimateMemo`; the reference plans each candidate against
  a fresh :class:`HistogramEstimator`;
- the inference path encodes cache-missing scan filters in stacked
  ``Enc_i`` forwards (``DatabaseFeaturizer.encode_filters``); the
  reference runs one solo ``encode_filter`` per scan node.
"""

import contextlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.core import MTMLFQO, ModelConfig
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.optimizer import HistogramEstimator, QueryEstimateMemo, plan_with_order
from repro.optimizer import selectivity
from repro.sql.predicates import Conjunction
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5, num_tables=6, row_range=(60, 200), attr_range=(2, 4))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=4))
    items = QueryLabeler(db).label_many(generator.generate(16))
    assert len(items) >= 10
    return items


def fresh_model(db, featurizer) -> MTMLFQO:
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    return model


def connected_subsets(query):
    """Every connected table subset of ``query``, as sorted tuples."""
    out = []
    for size in range(1, query.num_tables + 1):
        for combo in itertools.combinations(sorted(query.tables), size):
            if selectivity._subset_connected(query, frozenset(combo)):
                out.append(combo)
    return out


def built_in_order(tables) -> frozenset:
    """A frozenset grown one table at a time, the way plan nodes grow."""
    subset = frozenset()
    for table in tables:
        subset = subset | {table}
    return subset


# ---------------------------------------------------------------------------
# Rerank: memoized estimates
# ---------------------------------------------------------------------------
class TestQueryEstimateMemo:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000), shuffle=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_plain_estimator_on_every_connected_subset(self, db, seed, shuffle):
        query = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=6, seed=seed)).generate(1)[0]
        plain = HistogramEstimator(db)
        memo = QueryEstimateMemo(HistogramEstimator(db), query)
        rng = random.Random(shuffle)
        for tables in connected_subsets(query):
            # Equal subsets grown in different orders may iterate
            # differently; each must match the plain estimator on itself.
            for _ in range(2):
                order = list(tables)
                rng.shuffle(order)
                subset = built_in_order(order)
                expected = plain.estimate(query, subset)
                assert memo.estimate(query, subset) == expected
                assert memo.estimate(query, subset) == expected  # the memo hit
        for table in query.tables:
            assert memo.base_rows(table) == plain.base_rows(table)

    def test_scans_each_table_once(self, db, labeled, monkeypatch):
        calls = []
        original = HistogramEstimator.scan_rows

        def counting(self, query, table):
            calls.append(table)
            return original(self, query, table)

        monkeypatch.setattr(HistogramEstimator, "scan_rows", counting)
        query = labeled[0].query
        memo = QueryEstimateMemo(HistogramEstimator(db), query)
        for tables in connected_subsets(query):
            memo.estimate(query, frozenset(tables))
            memo.estimate(query, frozenset(tables))
        assert sorted(calls) == sorted(query.tables)

    def test_rejects_a_different_query(self, db, labeled):
        memo = QueryEstimateMemo(HistogramEstimator(db), labeled[0].query)
        other = labeled[1].query
        with pytest.raises(ValueError, match="only the query"):
            memo.estimate(other, frozenset(other.tables[:1]))

    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_probe_plans_match_plain_estimator(self, db, labeled, featurizer, beam_width):
        model = fresh_model(db, featurizer)
        all_candidates = model.beam_candidates_batch(
            db.name, labeled, beam_width=beam_width, enforce_legality=True
        )
        for item, candidates in zip(labeled, all_candidates):
            memo = QueryEstimateMemo(HistogramEstimator(db), item.query)
            for candidate in candidates:
                order = candidate.tables(item.query.tables)
                shared = plan_with_order(item.query, order, memo)
                reference = plan_with_order(item.query, order, HistogramEstimator(db))
                pairs = list(zip(shared.nodes_preorder(), reference.nodes_preorder()))
                assert len(pairs) == len(reference.nodes_preorder())
                for a, b in pairs:
                    assert a.tables == b.tables
                    assert a.scan_op is b.scan_op
                    assert a.join_op is b.join_op
                    assert a.estimated_cost == b.estimated_cost

    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_rerank_picks_the_orders_of_plain_estimators(
        self, db, labeled, featurizer, beam_width, monkeypatch
    ):
        model = fresh_model(db, featurizer)
        shared = model.predict_join_orders(db.name, labeled, beam_width=beam_width)
        # The reference: no memo, a plain estimator for every query.
        monkeypatch.setattr(
            selectivity, "QueryEstimateMemo", lambda estimator, query: HistogramEstimator(estimator.db)
        )
        model.clear_cache()
        reference = model.predict_join_orders(db.name, labeled, beam_width=beam_width)
        assert shared == reference


# ---------------------------------------------------------------------------
# Featurize: stacked Enc_i forwards
# ---------------------------------------------------------------------------
def mixed_filters(db, labeled) -> list[Conjunction]:
    """Workload filters plus empty filters on every table, with duplicates."""
    filters = [item.query.filter_for(table) for item in labeled for table in item.query.tables]
    filters += [Conjunction(table=table, predicates=()) for table in db.table_names]
    return filters + filters[:7]


class TestStackedFilterEncode:
    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "tape"])
    def test_stacked_rows_equal_solo_encodes(self, db, labeled, featurizer, grad):
        filters = mixed_filters(db, labeled)
        groups: dict[tuple, list[Conjunction]] = {}
        for conj in filters:
            groups.setdefault((conj.table, len(conj.predicates)), []).append(conj)
        assert any(len(group) > 1 for group in groups.values())
        assert any(count == 0 for _, count in groups)
        assert len({table for table, _ in groups}) > 1
        with contextlib.nullcontext() if grad else nn.no_grad():
            for group in groups.values():
                stacked = featurizer.encode_filters(group).data
                assert stacked.shape == (len(group), SMALL.d_model)
                for row, conj in zip(stacked, group):
                    solo = featurizer.encode_filter(conj).data
                    assert np.array_equal(row, solo.reshape(-1))

    def test_rejects_groups_that_would_need_padding(self, db, labeled, featurizer):
        filters = mixed_filters(db, labeled)
        by_count = {}
        for conj in filters:
            by_count.setdefault(len(conj.predicates), conj)
        assert len(by_count) > 1
        with pytest.raises(ValueError, match="one table with one predicate count"):
            featurizer.encode_filters(list(by_count.values()))
        tables = [Conjunction(table=t, predicates=()) for t in db.table_names[:2]]
        with pytest.raises(ValueError, match="one table with one predicate count"):
            featurizer.encode_filters(tables)

    def test_cold_batch_runs_no_solo_filter_encodes(self, db, labeled, featurizer, monkeypatch):
        solo_calls = []
        original = DatabaseFeaturizer.encode_filter

        def counting(self, conjunction):
            solo_calls.append(conjunction)
            return original(self, conjunction)

        monkeypatch.setattr(DatabaseFeaturizer, "encode_filter", counting)
        model = fresh_model(db, featurizer)
        model.predict_join_orders(db.name, labeled, beam_width=4)
        assert solo_calls == []
        scan_keys = [key for key in model._node_cache._entries if key[1] == "scan"]
        assert scan_keys

    def test_prefill_matches_solo_encodes_per_node(self, db, labeled, featurizer, monkeypatch):
        model = fresh_model(db, featurizer)
        orders = model.predict_join_orders(db.name, labeled, beam_width=4)
        prefilled = dict(model._node_cache._entries)
        encoded = [model.encode_query(db.name, item).features.copy() for item in labeled]
        # The reference: no prefill, one solo encode_filter per scan node.
        monkeypatch.setattr(MTMLFQO, "_prefill_filter_encodings", lambda self, db_name, items: None)
        reference = fresh_model(db, featurizer)
        assert reference.predict_join_orders(db.name, labeled, beam_width=4) == orders
        for item, features in zip(labeled, encoded):
            assert np.array_equal(reference.encode_query(db.name, item).features, features)
        for key, content in prefilled.items():
            if key[1] == "scan":
                assert np.array_equal(reference._node_cache.get(key), content)
