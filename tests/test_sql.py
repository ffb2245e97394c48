"""Tests for predicates, the query model and the SQL parser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
    Query,
    SQLSyntaxError,
    like_to_regex,
    parse_query,
)
from repro.storage import JoinRelation, Table


@pytest.fixture
def table():
    return Table.from_dict(
        "t",
        {
            "id": [1, 2, 3, 4, 5],
            "score": [0.1, 0.5, 0.9, 0.5, 0.3],
            "name": ["alpha", "beta", "alphabet", "gamma", "beta"],
        },
    )


class TestComparison:
    def test_numeric_ops(self, table):
        assert Comparison("t", "id", CompareOp.LT, 3).evaluate(table).sum() == 2
        assert Comparison("t", "id", CompareOp.GE, 3).evaluate(table).sum() == 3
        assert Comparison("t", "score", CompareOp.EQ, 0.5).evaluate(table).sum() == 2
        assert Comparison("t", "score", CompareOp.NE, 0.5).evaluate(table).sum() == 3

    def test_string_equality(self, table):
        mask = Comparison("t", "name", CompareOp.EQ, "beta").evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, False, False, True])

    def test_str_rendering(self):
        assert str(Comparison("t", "id", CompareOp.LE, 7)) == "t.id <= 7"
        assert str(Comparison("t", "name", CompareOp.EQ, "x")) == "t.name = 'x'"


class TestBetweenIn:
    def test_between_inclusive(self, table):
        mask = BetweenPredicate("t", "id", 2, 4).evaluate(table)
        assert mask.sum() == 3

    def test_in_numeric(self, table):
        mask = InPredicate("t", "id", (1, 5, 99)).evaluate(table)
        assert mask.sum() == 2

    def test_in_string(self, table):
        mask = InPredicate("t", "name", ("beta", "gamma")).evaluate(table)
        assert mask.sum() == 3


class TestLike:
    def test_prefix(self, table):
        mask = LikePredicate("t", "name", "alpha%").evaluate(table)
        assert mask.sum() == 2

    def test_contains(self, table):
        mask = LikePredicate("t", "name", "%et%").evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, True, False, True])

    def test_underscore(self, table):
        mask = LikePredicate("t", "name", "bet_").evaluate(table)
        assert mask.sum() == 2

    def test_negated(self, table):
        like = LikePredicate("t", "name", "alpha%").evaluate(table)
        notlike = LikePredicate("t", "name", "alpha%", negated=True).evaluate(table)
        np.testing.assert_array_equal(like, ~notlike)

    def test_exact_match_no_wildcards(self, table):
        mask = LikePredicate("t", "name", "gamma").evaluate(table)
        assert mask.sum() == 1

    def test_regex_metacharacters_escaped(self):
        regex = like_to_regex("a.b%")
        assert regex.match("a.bXX")
        assert not regex.match("aXbXX")

    @given(st.text(alphabet="ab%_", min_size=0, max_size=8), st.text(alphabet="ab", min_size=0, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_like_matches_reference_implementation(self, pattern, value):
        """LIKE via regex agrees with a simple recursive reference matcher."""

        def ref(p, v):
            if not p:
                return not v
            if p[0] == "%":
                return any(ref(p[1:], v[i:]) for i in range(len(v) + 1))
            if not v:
                return False
            if p[0] == "_" or p[0] == v[0]:
                return ref(p[1:], v[1:])
            return False

        assert (like_to_regex(pattern).match(value) is not None) == ref(pattern, value)


class TestConjunction:
    def test_empty_is_true(self, table):
        conj = Conjunction(table="t", predicates=())
        assert conj.evaluate(table).all()
        assert str(conj) == "TRUE"

    def test_and_semantics(self, table):
        conj = Conjunction(
            table="t",
            predicates=(
                Comparison("t", "id", CompareOp.GT, 1),
                Comparison("t", "score", CompareOp.LE, 0.5),
            ),
        )
        assert conj.evaluate(table).sum() == 3

    def test_cross_table_predicate_rejected(self):
        with pytest.raises(ValueError):
            Conjunction(table="t", predicates=(Comparison("other", "id", CompareOp.EQ, 1),))


class TestQueryModel:
    def _query(self):
        return Query(
            tables=["a", "b", "c"],
            joins=[JoinRelation("a", "bid", "b", "id"), JoinRelation("b", "cid", "c", "id")],
            filters={"a": Conjunction(table="a", predicates=(Comparison("a", "x", CompareOp.GT, 0),))},
        )

    def test_adjacency(self):
        adj = self._query().adjacency_matrix()
        assert adj[0, 1] and adj[1, 2] and not adj[0, 2]
        assert (adj == adj.T).all()

    def test_connectivity(self):
        assert self._query().is_connected()
        disconnected = Query(tables=["a", "b"], joins=[])
        assert not disconnected.is_connected()
        single = Query(tables=["a"])
        assert single.is_connected()

    def test_join_outside_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], joins=[JoinRelation("a", "x", "zz", "y")])

    def test_filter_on_missing_table_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], filters={"b": Conjunction(table="b", predicates=())})

    def test_joins_between(self):
        q = self._query()
        between = q.joins_between({"a"}, {"b"})
        assert len(between) == 1
        assert between[0].left == "a"
        reversed_between = q.joins_between({"b"}, {"a"})
        assert reversed_between[0].left == "b"

    def test_to_sql_roundtrip(self):
        q = self._query()
        reparsed = parse_query(q.to_sql())
        assert reparsed.tables == q.tables
        assert reparsed.joins == q.joins
        assert set(reparsed.filters) == set(q.filters)


class TestParser:
    def test_basic_query(self):
        q = parse_query("SELECT COUNT(*) FROM a, b WHERE a.bid = b.id AND a.x > 5")
        assert q.tables == ["a", "b"]
        assert q.joins == [JoinRelation("a", "bid", "b", "id")]
        preds = q.filters["a"].predicates
        assert preds[0] == Comparison("a", "x", CompareOp.GT, 5)

    def test_no_where(self):
        q = parse_query("SELECT COUNT(*) FROM solo;")
        assert q.tables == ["solo"]
        assert not q.joins

    def test_like(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name LIKE '%ab%'")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, LikePredicate)
        assert pred.pattern == "%ab%"

    def test_not_like(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name NOT LIKE 'x%'")
        assert q.filters["t"].predicates[0].negated

    def test_between(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v BETWEEN 1 AND 10")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, BetweenPredicate)
        assert (pred.low, pred.high) == (1.0, 10.0)

    def test_in_list(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v IN (1, 2, 3)")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, InPredicate)
        assert pred.values == (1, 2, 3)

    def test_string_literal_with_quote(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name = 'o''brien'")
        assert q.filters["t"].predicates[0].value == "o'brien"

    def test_negative_and_float_literals(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v > -2.5")
        assert q.filters["t"].predicates[0].value == pytest.approx(-2.5)

    def test_neq_spellings(self):
        for op in ("!=", "<>"):
            q = parse_query(f"SELECT COUNT(*) FROM t WHERE t.v {op} 3")
            assert q.filters["t"].predicates[0].op is CompareOp.NE

    def test_multi_join_query(self):
        q = parse_query(
            "SELECT COUNT(*) FROM a, b, c "
            "WHERE a.bid = b.id AND b.cid = c.id AND c.z LIKE 'k%' AND a.w <= 9"
        )
        assert len(q.joins) == 2
        assert len(q.filters["c"].predicates) == 1
        assert len(q.filters["a"].predicates) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM",
            "SELECT COUNT(*) FROM t WHERE",
            "SELECT COUNT(*) FROM t WHERE name = 3",  # unqualified column
            "SELECT COUNT(*) FROM t WHERE t.a < t.b",  # non-equi column pair
            "SELECT COUNT(*) FROM a WHERE a.x = zz.y",  # join to unknown table
            "SELECT COUNT(*) FROM t extra_garbage",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse_query(bad)

    @pytest.mark.parametrize(
        "condition",
        [
            "t.a = movie_in",  # unquoted non-numeric literal
            "t.a IN (abc)",
            "t.a IN (1, abc)",
            "t.a BETWEEN 'x' AND 3",  # BETWEEN bounds must be numbers
            "t.a BETWEEN 1 AND 'y'",
            "t.a = inf",  # identifiers float() would accept are not numbers
            "t.a LIKE 5",  # LIKE needs a quoted pattern
            "t.a NOT LIKE abc",
        ],
    )
    def test_bad_literals_raise_syntax_error(self, condition):
        with pytest.raises(SQLSyntaxError):
            parse_query(f"SELECT COUNT(*) FROM t WHERE {condition}")


VALID_SQL = [
    "SELECT COUNT(*) FROM a, b WHERE a.bid = b.id AND a.x > 5",
    "SELECT COUNT(*) FROM t WHERE t.name NOT LIKE 'x%' AND t.v BETWEEN 1 AND 2.5;",
    "SELECT COUNT(*) FROM t WHERE t.v IN (1, -2, 'o''b') AND t.w <> 3",
]
TOKEN_POOL = [
    "movie_in", "abc", "inf", "nan", "t.a", "b.id", "'x'", "''", "5", "-2.5",
    "(", ")", ",", ";", "*", "=", "<", "<>", "AND", "LIKE", "NOT", "BETWEEN",
    "IN", "WHERE", "FROM", "'", "-", ".",
]


def _parses_or_syntax_error(sql: str) -> None:
    try:
        result = parse_query(sql)
    except SQLSyntaxError:
        return
    assert isinstance(result, Query)


class TestParserBoundary:
    """``parse_query`` fails only with ``SQLSyntaxError``, never another type."""

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        _parses_or_syntax_error(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_queries(self, data):
        tokens = data.draw(st.sampled_from(VALID_SQL)).split()
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, len(tokens) - 1))
            kind = data.draw(st.sampled_from(["drop", "replace", "insert"]))
            if kind == "drop" and len(tokens) > 1:
                del tokens[index]
            elif kind == "replace":
                tokens[index] = data.draw(st.sampled_from(TOKEN_POOL))
            else:
                tokens.insert(index, data.draw(st.sampled_from(TOKEN_POOL)))
        _parses_or_syntax_error(" ".join(tokens))
