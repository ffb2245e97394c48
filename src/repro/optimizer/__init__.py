"""``repro.optimizer`` — classical cost-based query optimization.

Histogram selectivity estimation (the "PostgreSQL" baseline), exact DP
join enumeration with a greedy fallback, and the true-cardinality
optimal-order oracle standing in for the paper's ECQO program.
"""

from .join_enum import PlannedQuery, dp_join_enumeration, greedy_join_order
from .optimal import optimal_join_order, optimal_plan
from .planner import PostgresStylePlanner, plan_with_order
from .selectivity import (
    CardinalityEstimator,
    HistogramEstimator,
    QueryEstimateMemo,
    TrueCardinalityOracle,
)

__all__ = [
    "CardinalityEstimator",
    "HistogramEstimator",
    "QueryEstimateMemo",
    "TrueCardinalityOracle",
    "dp_join_enumeration",
    "greedy_join_order",
    "PlannedQuery",
    "PostgresStylePlanner",
    "plan_with_order",
    "optimal_plan",
    "optimal_join_order",
]
