"""SQL pushdown backends: one driver interface, many engines.

The CQ version of the many-adapters-one-driver shape: a
:class:`~.base.SqlBackend` executes whole operations against an
independent SQL engine over tables of value-pool codes, the
:mod:`~.compiler` turns conjunctive queries into single-statement
``SELECT DISTINCT`` / ``EXISTS`` / ``COUNT`` pushdowns, and the
:class:`~.dispatch.PushdownArbiter` lets
``QueryEngine(backend=SqliteBackend())`` choose native-vs-pushdown per
shape from observed latencies.  See ``docs/backends.md``.
"""

from .base import (
    SqlBackend,
    canonical_relation,
    canonical_row,
    canonical_rows,
    canonical_value,
)
from .compiler import CompiledSql, compile_query
from .dbapi import DbApiBackend
from .dispatch import BACKEND, NATIVE, PushdownArbiter
from .sqlite import SqliteBackend

__all__ = [
    "BACKEND",
    "CompiledSql",
    "DbApiBackend",
    "NATIVE",
    "PushdownArbiter",
    "SqlBackend",
    "SqliteBackend",
    "canonical_relation",
    "canonical_row",
    "canonical_rows",
    "canonical_value",
    "compile_query",
]
