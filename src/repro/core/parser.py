"""A small textual query language for imprecise queries.

The paper writes queries as ``Q :- CarDB(Model like Camry, Price <
10000)``; this module parses that surface form (and a bare-conjunction
variant) into :class:`ImpreciseQuery` objects so CLIs, logs and tests
can speak the paper's own notation::

    parse_query("CarDB(Model like Camry, Price < 10000)")
    parse_query("Model like 'Econoline Van' AND Price < 10000",
                relation="CarDB")

Grammar (case-insensitive keywords)::

    query       := relation "(" conjunction ")" | conjunction
    conjunction := condition (("," | "AND") condition)*
    condition   := attribute ("like" | "=" | "!=" | "<" | "<=" | ">" | ">=") value
    value       := quoted string | bareword | number

Bare values are parsed as numbers when they look numeric, strings
otherwise; quoting forces a string (``Year like '1985'``).

The command line and the server take the same query in two forms, text
or ``Attr=Value`` likeness constraints (``Model=Camry Price=10000``).
:func:`parse_binding` reads one constraint and :func:`build_query`
turns either form into a query checked against the schema; ``repro
query``, ``repro trace`` and ``/query`` all call them.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.core.query import ImpreciseQuery, LikeConstraint, PreciseConstraint
from repro.db import QueryError, RelationSchema, parse_op

__all__ = [
    "parse_query",
    "ParseError",
    "build_query",
    "coerce_value",
    "parse_binding",
]


class ParseError(QueryError):
    """The query text does not match the grammar."""


_RELATION_FORM = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*\((.*)\)\s*$", re.DOTALL)

_CONDITION = re.compile(
    r"""^\s*
    (?P<attribute>[A-Za-z_][\w.-]*)\s*
    (?P<op>like|LIKE|Like|!=|<=|>=|=|<|>)\s*
    (?P<value>'[^']*'|"[^"]*"|[^\s].*?)\s*$""",
    re.VERBOSE,
)


def _split_conjunction(text: str) -> list[str]:
    """Split on commas / AND outside quotes."""
    parts: list[str] = []
    current: list[str] = []
    quote: str | None = None
    tokens = re.split(r"(\s+[Aa][Nn][Dd]\s+|,|'[^']*'|\"[^\"]*\")", text)
    for token in tokens:
        if token is None or token == "":
            continue
        if quote is None and (
            token == "," or re.fullmatch(r"\s+[Aa][Nn][Dd]\s+", token)
        ):
            parts.append("".join(current))
            current = []
        else:
            current.append(token)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def coerce_value(raw: str) -> object:
    """A bare value as an int, else a float, else the string itself."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_value(raw: str) -> object:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    return coerce_value(raw)


def _parse_condition(text: str):
    match = _CONDITION.match(text)
    if match is None:
        raise ParseError(f"cannot parse condition {text!r}")
    attribute = match.group("attribute")
    operator = match.group("op").lower()
    value = _parse_value(match.group("value"))
    if operator == "like":
        return LikeConstraint(attribute, value)
    return PreciseConstraint(parse_op(attribute, operator, value))


def parse_query(text: str, relation: str | None = None) -> ImpreciseQuery:
    """Parse the paper-style textual form into an :class:`ImpreciseQuery`.

    ``relation`` supplies the target relation for the bare-conjunction
    form; the ``Relation(...)`` form carries its own (and overrides the
    argument, raising if both are present and disagree).

    >>> q = parse_query("CarDB(Model like Camry, Price < 10000)")
    >>> q.describe()
    "CarDB(Model like 'Camry', Price < 10000)"
    """
    if not text or not text.strip():
        raise ParseError("empty query text")
    form = _RELATION_FORM.match(text)
    if form is not None:
        parsed_relation, body = form.group(1), form.group(2)
        if relation is not None and relation != parsed_relation:
            raise ParseError(
                f"query names relation {parsed_relation!r} but "
                f"{relation!r} was requested"
            )
        relation = parsed_relation
    else:
        body = text
        if relation is None:
            raise ParseError(
                "bare conjunction needs an explicit relation= argument"
            )
    conditions = tuple(
        _parse_condition(part) for part in _split_conjunction(body)
    )
    if not conditions:
        raise ParseError(f"no conditions found in {text!r}")
    return ImpreciseQuery(relation, conditions)


def parse_binding(text: str) -> tuple[str, object]:
    """One ``Attr=Value`` likeness constraint, its value coerced.

    >>> parse_binding("Price=10000")
    ('Price', 10000)
    """
    if "=" not in text:
        raise ValueError(f"constraint {text!r} must look like Attribute=Value")
    attribute, _, raw = text.partition("=")
    return attribute, coerce_value(raw)


def build_query(
    schema: RelationSchema,
    text: str | None,
    bindings: Mapping[str, object],
) -> ImpreciseQuery:
    """The query given as ``text`` or as likeness ``bindings``, not both.

    Raises ValueError unless exactly one form is given, and a
    :class:`~repro.db.errors.DatabaseError` when the query does not fit
    ``schema`` (see :meth:`ImpreciseQuery.validate_against`).
    """
    if text and bindings:
        raise ValueError("use either text or Attr=Value constraints, not both")
    if not text and not bindings:
        raise ValueError("provide text or at least one Attr=Value constraint")
    if text:
        query = parse_query(text, relation=schema.name)
    else:
        query = ImpreciseQuery.like(schema.name, **bindings)
    query.validate_against(schema)
    return query
