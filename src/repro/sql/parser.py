"""A small SQL parser for the supported query dialect.

Accepts the COUNT(*) select-project-join subset used throughout the
paper (Figure 2's input format)::

    SELECT COUNT(*) FROM t1, t2, t3
    WHERE t1.id = t2.t1_id AND t2.x > 5 AND t3.name LIKE '%abc%' ...

Join predicates are ``table.col = table.col``; filter predicates are
comparisons against literals, BETWEEN, IN lists and (NOT) LIKE.
The parser produces a :class:`repro.sql.Query`.
"""

from __future__ import annotations

import re

from ..storage.schema import JoinRelation
from .predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
)
from .query import Query

__all__ = ["parse_query", "SQLSyntaxError"]


class SQLSyntaxError(ValueError):
    """Raised when the input is not in the supported SQL subset."""


_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),;*])
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if not match or match.start() != pos:
            raise SQLSyntaxError(f"unexpected character at offset {pos}: {text[pos]!r}")
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, expected: str) -> None:
        token = self.next()
        if token.upper() != expected.upper():
            raise SQLSyntaxError(f"expected {expected!r}, got {token!r}")

    def accept(self, candidate: str) -> bool:
        token = self.peek()
        if token is not None and token.upper() == candidate.upper():
            self.pos += 1
            return True
        return False


def _unquote(token: str) -> str:
    return token[1:-1].replace("''", "'")


def _parse_value(token: str):
    """A literal: a quoted string, an int or a decimal number."""
    if token.startswith("'"):
        return _unquote(token)
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if re.fullmatch(r"-?\d+\.\d+", token):
        return float(token)
    raise SQLSyntaxError(f"expected a quoted string or a number, got {token!r}")


def _parse_number(token: str) -> float:
    value = _parse_value(token)
    if isinstance(value, str):
        raise SQLSyntaxError(f"expected a number, got {token!r}")
    return float(value)


def _parse_pattern(token: str) -> str:
    if not token.startswith("'"):
        raise SQLSyntaxError(f"LIKE needs a quoted pattern, got {token!r}")
    return _unquote(token)


def _split_column_ref(token: str) -> tuple[str, str]:
    if "." not in token:
        raise SQLSyntaxError(f"column references must be table-qualified: {token!r}")
    table, column = token.split(".", 1)
    return table, column


def parse_query(sql: str) -> Query:
    """Parse a COUNT(*) SPJ query into a :class:`Query`."""
    stream = _TokenStream(_tokenize(sql))
    stream.expect("SELECT")
    stream.expect("COUNT")
    stream.expect("(")
    stream.expect("*")
    stream.expect(")")
    stream.expect("FROM")

    tables: list[str] = []
    while True:
        token = stream.next()
        if "." in token or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            raise SQLSyntaxError(f"bad table name {token!r}")
        tables.append(token)
        if not stream.accept(","):
            break

    joins: list[JoinRelation] = []
    filters: dict[str, list] = {}

    if stream.accept("WHERE"):
        while True:
            _parse_condition(stream, joins, filters)
            if not stream.accept("AND"):
                break

    token = stream.peek()
    if token == ";":
        stream.next()
        token = stream.peek()
    if token is not None:
        raise SQLSyntaxError(f"trailing tokens starting at {token!r}")

    for join in joins:
        if join.left not in tables or join.right not in tables:
            raise SQLSyntaxError(f"join {join} references a table not in FROM")
    for table in filters:
        if table not in tables:
            raise SQLSyntaxError(f"filter on {table!r} but FROM lists {tables}")
    conjunctions = {
        table: Conjunction(table=table, predicates=tuple(preds))
        for table, preds in filters.items()
    }
    return Query(tables=tables, joins=joins, filters=conjunctions)


def _parse_condition(stream: _TokenStream, joins: list, filters: dict) -> None:
    left = stream.next()
    table, column = _split_column_ref(left)

    if stream.accept("NOT"):
        stream.expect("LIKE")
        pattern = _parse_pattern(stream.next())
        filters.setdefault(table, []).append(
            LikePredicate(table=table, column=column, pattern=pattern, negated=True)
        )
        return
    if stream.accept("LIKE"):
        pattern = _parse_pattern(stream.next())
        filters.setdefault(table, []).append(
            LikePredicate(table=table, column=column, pattern=pattern)
        )
        return
    if stream.accept("BETWEEN"):
        low = _parse_number(stream.next())
        stream.expect("AND")
        high = _parse_number(stream.next())
        filters.setdefault(table, []).append(
            BetweenPredicate(table=table, column=column, low=low, high=high)
        )
        return
    if stream.accept("IN"):
        stream.expect("(")
        values = []
        while True:
            values.append(_parse_value(stream.next()))
            if not stream.accept(","):
                break
        stream.expect(")")
        filters.setdefault(table, []).append(
            InPredicate(table=table, column=column, values=tuple(values))
        )
        return

    op_token = stream.next()
    if op_token == "<>":
        op_token = "!="
    try:
        op = CompareOp(op_token)
    except ValueError:
        raise SQLSyntaxError(f"unsupported operator {op_token!r}") from None

    right = stream.next()
    is_column = (
        right[0].isalpha() or right[0] == "_"
    ) and "." in right and not right.startswith("'")
    if is_column and op is CompareOp.EQ:
        rtable, rcolumn = _split_column_ref(right)
        joins.append(JoinRelation(table, column, rtable, rcolumn))
        return
    if is_column:
        raise SQLSyntaxError("column-to-column predicates other than equi-join are unsupported")
    filters.setdefault(table, []).append(
        Comparison(table=table, column=column, op=op, value=_parse_value(right))
    )
