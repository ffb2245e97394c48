"""Histogram-based cardinality estimation (the "PostgreSQL" baseline).

Implements the textbook System-R/PostgreSQL estimator:

- per-column selectivities from ANALYZE statistics (MCVs for equality,
  equi-depth histograms for ranges, magic constants for LIKE);
- independence assumption across predicates on a table;
- equi-join selectivity ``1 / max(ndv(a), ndv(b))``;
- independence across join predicates.

Its characteristic failure mode — huge underestimates on correlated
predicates and multi-way joins — is precisely the PostgreSQL row of the
paper's Table 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import DisconnectedQueryError

from ..sql.predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
)
from ..sql.query import Query
from ..storage.catalog import Database

__all__ = [
    "CardinalityEstimator",
    "HistogramEstimator",
    "QueryEstimateMemo",
    "TrueCardinalityOracle",
]

# PostgreSQL's default pattern selectivities (utils/adt/selfuncs.h).
_DEFAULT_MATCH_SEL = 0.005
_PREFIX_MATCH_SEL = 0.02


class CardinalityEstimator:
    """Interface: estimate the cardinality of a connected table subset.

    Implementations must return the estimated number of output rows of
    joining (with all applicable join predicates) and filtering (with
    all applicable filter predicates) the tables in ``subset``.
    """

    def estimate(self, query: Query, subset: frozenset) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def base_rows(self, table: str) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class HistogramEstimator(CardinalityEstimator):
    """ANALYZE-statistics estimator with the independence assumption."""

    def __init__(self, db: Database):
        self.db = db

    # -- single predicates ---------------------------------------------------
    def predicate_selectivity(self, predicate) -> float:
        stats = self.db.statistics(predicate.table).column(predicate.column_names()[0])
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, stats)
        if isinstance(predicate, BetweenPredicate):
            if stats.histogram is None:
                return 0.25
            return stats.histogram.selectivity_range(predicate.low, predicate.high)
        if isinstance(predicate, InPredicate):
            total = sum(stats.equality_selectivity(v) for v in predicate.values)
            return float(min(total, 1.0))
        if isinstance(predicate, LikePredicate):
            sel = _PREFIX_MATCH_SEL if not predicate.pattern.startswith("%") else _DEFAULT_MATCH_SEL
            return 1.0 - sel if predicate.negated else sel
        raise TypeError(f"unsupported predicate type {type(predicate).__name__}")

    def _comparison_selectivity(self, predicate: Comparison, stats) -> float:
        if predicate.op is CompareOp.EQ:
            return stats.equality_selectivity(predicate.value)
        if predicate.op is CompareOp.NE:
            return max(1.0 - stats.equality_selectivity(predicate.value), 0.0)
        if stats.histogram is None:
            return 0.33  # PostgreSQL's DEFAULT_INEQ_SEL
        value = float(predicate.value)
        le = stats.histogram.selectivity_le(value)
        if predicate.op in (CompareOp.LT, CompareOp.LE):
            return le
        return max(1.0 - le, 0.0)

    # -- tables and subsets ----------------------------------------------------
    def scan_selectivity(self, conjunction: Conjunction) -> float:
        sel = 1.0
        for predicate in conjunction.predicates:
            sel *= self.predicate_selectivity(predicate)
        return float(np.clip(sel, 0.0, 1.0))

    def scan_rows(self, query: Query, table: str) -> float:
        base = self.db.statistics(table).num_rows
        return base * self.scan_selectivity(query.filter_for(table))

    def join_selectivity(self, join) -> float:
        left_stats = self.db.statistics(join.left).column(join.left_column)
        right_stats = self.db.statistics(join.right).column(join.right_column)
        ndv = max(left_stats.n_distinct, right_stats.n_distinct, 1)
        return 1.0 / ndv

    def estimate(self, query: Query, subset: frozenset) -> float:
        return self._subset_rows(query, subset, lambda table: self.scan_rows(query, table))

    def _subset_rows(self, query: Query, subset: frozenset, scan_rows) -> float:
        """Independence product over ``subset``, in its iteration order."""
        rows = 1.0
        for table in subset:
            rows *= max(scan_rows(table), 0.0)
        for join in query.joins:
            if join.left in subset and join.right in subset:
                rows *= self.join_selectivity(join)
        return max(rows, 0.0)

    def base_rows(self, table: str) -> float:
        return float(self.db.statistics(table).num_rows)


class QueryEstimateMemo(CardinalityEstimator):
    """One query's :class:`HistogramEstimator` estimates, each computed once.

    Planning many join orders of one query (the cost rerank's beam
    candidates) asks for the same table scans and the same subsets over
    and over.  The memo keeps ``scan_rows`` per table and ``estimate``
    per subset for the one query it was built for.  It computes a miss
    with the estimator's own product, so every float is bit-equal to a
    fresh estimator's (DESIGN.md section 3).

    Subsets are keyed by their iteration order, not by set equality:
    two equal frozensets built in different insertion orders may iterate
    differently, and the product of the scan rows follows that order.
    """

    def __init__(self, estimator: HistogramEstimator, query: Query):
        self.estimator = estimator
        self.query = query
        self._scan_rows: dict[str, float] = {}
        self._estimates: dict[tuple, float] = {}

    def scan_rows(self, table: str) -> float:
        rows = self._scan_rows.get(table)
        if rows is None:
            rows = self._scan_rows[table] = self.estimator.scan_rows(self.query, table)
        return rows

    def estimate(self, query: Query, subset: frozenset) -> float:
        if query is not self.query:
            raise ValueError("QueryEstimateMemo serves only the query it was built for")
        key = tuple(subset)
        rows = self._estimates.get(key)
        if rows is None:
            rows = self._estimates[key] = self.estimator._subset_rows(query, subset, self.scan_rows)
        return rows

    def base_rows(self, table: str) -> float:
        return self.estimator.base_rows(table)


class TrueCardinalityOracle(CardinalityEstimator):
    """Exact cardinalities obtained by actually executing sub-plans.

    This is the substitute for the paper's ECQO program [34]: exact
    query optimization requires the true cardinality of every connected
    sub-query, which we obtain from the execution engine with
    memoization.  Exponential in the number of tables — the paper
    likewise only ran ECQO for queries touching <= 8 tables.
    """

    def __init__(self, db: Database, max_intermediate_rows: int | None = 20_000_000):
        self.db = db
        self.max_intermediate_rows = max_intermediate_rows
        self._memo: dict[tuple, object] = {}

    def _key(self, query: Query, subset: frozenset) -> tuple:
        return (id(query), subset)

    def _intermediate(self, query: Query, subset: frozenset):
        from ..engine.operators import execute_join, execute_scan
        from ..engine.plan import join_node, scan_node

        key = self._key(query, subset)
        if key in self._memo:
            return self._memo[key]
        if len(subset) == 1:
            table = next(iter(subset))
            node = scan_node(table, query.filter_for(table))
            intermediate, _ = execute_scan(node, self.db)
        else:
            # Peel one table connected to the rest, join recursively.
            ordered = sorted(subset)
            peel = None
            for candidate in ordered:
                rest = subset - {candidate}
                if query.joins_between(set(rest), {candidate}) and _subset_connected(query, rest):
                    peel = candidate
                    break
            if peel is None:
                raise DisconnectedQueryError(f"subset {sorted(subset)} is not connected in query joins")
            rest = subset - {peel}
            left = self._intermediate(query, rest)
            right = self._intermediate(query, frozenset([peel]))
            predicates = query.joins_between(set(rest), {peel})
            node = join_node(
                _dummy_plan(rest, query), _dummy_plan(frozenset([peel]), query), predicates
            )
            from ..engine.executor import ExecutionLimitError
            from ..engine.operators import JoinExpansionError

            try:
                intermediate, _ = execute_join(
                    node, left, right, self.db, max_rows=self.max_intermediate_rows
                )
            except JoinExpansionError as exc:
                raise ExecutionLimitError(str(exc)) from exc
        if self.max_intermediate_rows is not None and intermediate.cardinality > self.max_intermediate_rows:
            from ..engine.executor import ExecutionLimitError

            raise ExecutionLimitError(
                f"true-cardinality oracle intermediate exceeds cap on subset {sorted(subset)}"
            )
        self._memo[key] = intermediate
        return intermediate

    def estimate(self, query: Query, subset: frozenset) -> float:
        return float(self._intermediate(query, subset).cardinality)

    def base_rows(self, table: str) -> float:
        return float(self.db.table(table).num_rows)

    def clear_cache(self) -> None:
        self._memo.clear()


def _subset_connected(query: Query, subset: frozenset) -> bool:
    if len(subset) <= 1:
        return True
    tables = sorted(subset)
    index = {t: i for i, t in enumerate(tables)}
    adjacency = [[] for _ in tables]
    for join in query.joins:
        if join.left in subset and join.right in subset:
            adjacency[index[join.left]].append(index[join.right])
            adjacency[index[join.right]].append(index[join.left])
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(tables)


def _dummy_plan(subset: frozenset, query: Query):
    """A structural stand-in plan node covering ``subset`` (for execute_join)."""
    from ..engine.plan import PlanNode, scan_node

    if len(subset) == 1:
        table = next(iter(subset))
        return scan_node(table, query.filter_for(table))
    return PlanNode(tables=subset, left=scan_node(sorted(subset)[0]), right=scan_node(sorted(subset)[1]))
