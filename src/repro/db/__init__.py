"""Relational substrate: the "autonomous Web database" AIMQ runs against.

This package implements everything the paper assumes on the database
side: typed relation schemas, an in-memory boolean query engine with
hash and sorted indexes, conjunctive selection queries, CSV persistence,
and the :class:`AutonomousWebDatabase` facade that restricts access to a
Web-form-style probing interface.
"""

from repro.db.errors import (
    DatabaseError,
    ProbeLimitExceededError,
    ProbeTimeoutError,
    QueryError,
    SchemaError,
    SourceThrottledError,
    SourceUnavailableError,
    TransientProbeError,
    TransientSourceError,
    TypeMismatchError,
    UnknownAttributeError,
    UnsupportedPredicateError,
)
from repro.db.executor import ExecutionStats, Executor, QueryResult
from repro.db.faults import FAULT_KINDS, FaultDecision, FaultPolicy, FaultSpec
from repro.db.predicates import (
    Between,
    Eq,
    Ge,
    Gt,
    IsIn,
    Le,
    Lt,
    Ne,
    Predicate,
    parse_op,
)
from repro.db.probe_cache import ProbeCache, canonical_probe_key
from repro.db.query import SelectionQuery
from repro.db.schema import Attribute, AttributeKind, RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase, ProbeLog

__all__ = [
    "Attribute",
    "AttributeKind",
    "AutonomousWebDatabase",
    "Between",
    "DatabaseError",
    "Eq",
    "ExecutionStats",
    "Executor",
    "FAULT_KINDS",
    "FaultDecision",
    "FaultPolicy",
    "FaultSpec",
    "Ge",
    "Gt",
    "IsIn",
    "Le",
    "Lt",
    "Ne",
    "Predicate",
    "ProbeCache",
    "ProbeLimitExceededError",
    "ProbeLog",
    "ProbeTimeoutError",
    "SourceThrottledError",
    "SourceUnavailableError",
    "TransientProbeError",
    "TransientSourceError",
    "canonical_probe_key",
    "parse_op",
    "QueryError",
    "QueryResult",
    "RelationSchema",
    "SchemaError",
    "SelectionQuery",
    "Table",
    "TypeMismatchError",
    "UnknownAttributeError",
    "UnsupportedPredicateError",
]
