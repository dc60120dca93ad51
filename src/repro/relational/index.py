"""Hash indexes over relations.

The naive backtracking evaluator probes relations billions of times on large
instances; a hash index on the bound positions turns each probe from a scan
into a dictionary lookup.

Since the columnar-kernel rewrite, the index storage itself lives *on the
relation* (:meth:`Relation._index` — built lazily, cached for the
relation's lifetime, safe because relations are immutable).
:class:`HashIndex` is kept as the stable public API: a thin view over the
per-relation cache, so an index built through any entry point
(``select_eq``, an evaluator, or this module) is shared by all of them.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Sequence, Tuple

from .relation import Relation, Row

#: Sentinel that can never appear as an index key (private object identity).
_NO_SUCH_KEY = object()


class HashIndex:
    """An index of a relation's rows keyed by a subset of column positions.

    ``HashIndex(rel, (0, 2))`` maps each (value@0, value@2) pair to the list
    of full rows having those values — the access pattern of the backtracking
    evaluator when positions 0 and 2 of an atom are already bound.
    """

    __slots__ = ("positions", "_buckets")

    def __init__(self, relation: Relation, positions: Sequence[int]) -> None:
        self.positions: Tuple[int, ...] = tuple(positions)
        # Delegates to the relation's own cache: the buckets are built at
        # most once per (relation, positions) pair process-wide.
        self._buckets = relation._index(self.positions)

    def _key(self, key: Sequence[Any]) -> Any:
        # Single-position indexes store raw values as keys (see
        # Relation._index); normalize the sequence form used by callers.
        normalized = tuple(key)
        if len(self.positions) == 1:
            if len(normalized) != 1:
                return _NO_SUCH_KEY  # wrong-arity key: matches nothing
            return normalized[0]
        return normalized

    def lookup(self, key: Sequence[Any]) -> List[Row]:
        """Rows whose indexed positions equal *key* (possibly empty)."""
        return list(self._buckets.get(self._key(key), ()))

    def keys(self) -> FrozenSet[Tuple[Any, ...]]:
        """All distinct index keys, as tuples."""
        if len(self.positions) == 1:
            return frozenset((k,) for k in self._buckets)
        return frozenset(self._buckets)

    def __len__(self) -> int:
        return len(self._buckets)

