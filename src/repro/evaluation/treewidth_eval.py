"""Bounded-treewidth conjunctive-query evaluation (extension).

The acyclic case (treewidth-style width 1 over the join tree) is the
paper's tractable island; the literature that followed generalized it to
bounded (hyper)treewidth.  This engine makes that generalization concrete:

1. build a tree decomposition of the query's primal graph (heuristic);
2. materialize one *bag relation* per bag — the join of the candidate
   relations of the atoms assigned to the bag, completed with per-variable
   candidate columns for bag variables no assigned atom covers (size
   ≤ n^(w+1) for width w);
3. the bags with the decomposition tree form an *acyclic* query, which the
   Yannakakis engine finishes in polynomial combined complexity.

For an acyclic input query the width-1 decomposition makes this coincide
with plain Yannakakis up to constants.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import QueryError
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Variable
from ..relational.database import Database
from ..relational.relation import Relation
from ..hypergraph.treewidth import (
    TreeDecomposition,
    tree_decomposition,
    verify_decomposition,
)
from .instantiation import atom_candidate_relation
from .yannakakis import YannakakisEvaluator


class TreewidthEvaluator:
    """CQ evaluation through a tree decomposition of the primal graph."""

    def __init__(self, heuristic: str = "min_fill") -> None:
        self._heuristic = heuristic
        self._yannakakis = YannakakisEvaluator()

    def decomposition(self, query: ConjunctiveQuery) -> TreeDecomposition:
        """The decomposition this engine would use for *query*."""
        hypergraph = query.hypergraph()
        decomposition = tree_decomposition(hypergraph, heuristic=self._heuristic)
        if not verify_decomposition(hypergraph, decomposition):
            raise QueryError("internal error: invalid tree decomposition")
        return decomposition

    def width(self, query: ConjunctiveQuery) -> int:
        """The width of the heuristic decomposition (≥ true treewidth)."""
        return self.decomposition(query).width

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: Optional[TreeDecomposition] = None,
    ) -> Relation:
        """Q(d), in time n^O(w) · poly(output) for decomposition width w.

        *decomposition* optionally supplies a precomputed (trusted) tree
        decomposition of the primal graph — the adaptive engine's cached
        plans carry one, skipping the elimination-order heuristic.
        """
        bag_query, bag_database = self._bag_instance(
            query, database, decomposition
        )
        return self._yannakakis.evaluate(bag_query, bag_database)

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: Optional[TreeDecomposition] = None,
    ) -> bool:
        """Is Q(d) nonempty?"""
        bag_query, bag_database = self._bag_instance(
            query, database, decomposition
        )
        return self._yannakakis.decide(bag_query, bag_database)

    # ------------------------------------------------------------------

    def _bag_instance(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: Optional[TreeDecomposition] = None,
    ) -> Tuple[ConjunctiveQuery, Database]:
        if query.inequalities or query.comparisons:
            raise QueryError(
                "TreewidthEvaluator handles purely relational queries"
            )
        if decomposition is None:
            decomposition = self.decomposition(query)
        bags = decomposition.bags

        # Assign each atom to the first bag containing all its variables.
        assigned: Dict[int, List[Atom]] = {i: [] for i in range(len(bags))}
        for atom in query.atoms:
            names = frozenset(v.name for v in atom.variables())
            for i, bag in enumerate(bags):
                if names <= {v.name for v in bag}:
                    assigned[i].append(atom)
                    break
            else:
                raise QueryError(f"no bag covers atom {atom!r}")

        # Sound per-variable candidate sets: intersect the value columns of
        # every atom mentioning the variable.
        candidates: Dict[str, FrozenSet] = {}
        for atom in query.atoms:
            rel = atom_candidate_relation(atom, database[atom.relation])
            for v in atom.variables():
                column = rel.column(v.name)
                if v.name in candidates:
                    candidates[v.name] = candidates[v.name] & column
                else:
                    candidates[v.name] = column

        bag_relations: Dict[str, Relation] = {}
        bag_atoms: List[Atom] = []
        for i, bag in enumerate(bags):
            bag_vars = tuple(sorted(v.name for v in bag))
            current: Optional[Relation] = None
            for atom in assigned[i]:
                piece = atom_candidate_relation(atom, database[atom.relation])
                current = piece if current is None else current.natural_join(piece)
            covered = set(current.attributes) if current is not None else set()
            for name in bag_vars:
                if name in covered:
                    continue
                column = Relation.from_rows((name,), ((v,) for v in candidates.get(name, frozenset())))
                current = column if current is None else current.natural_join(column)
            assert current is not None
            bag_name = f"BAG_{i}"
            bag_relations[bag_name] = current.project(bag_vars)
            bag_atoms.append(Atom(bag_name, tuple(Variable(n) for n in bag_vars)))

        bag_query = ConjunctiveQuery(
            query.head_terms, bag_atoms, head_name=query.head_name
        )
        # No declared domain: the bags draw every value from the input, and
        # the Yannakakis passes never read ``domain()`` — declaring it would
        # only re-scan every bag row to validate it.
        return bag_query, Database(bag_relations)
