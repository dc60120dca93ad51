"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical polynomial-combined-complexity evaluation of acyclic joins
([18] in the paper; the basis of §5):

1. compute the candidate relation S_j = π_{U_j} σ_{F_j}(R_{i_j}) per atom;
2. build a join tree of the query hypergraph;
3. *full reducer*: a bottom-up then a top-down semijoin pass, after which
   the relations are globally consistent (every tuple participates in the
   join);
4. a final bottom-up join-and-project pass that assembles the projection of
   the join onto the output variables, with intermediates bounded by
   |input| · |output|.

The emptiness / decision variants stop after the bottom-up pass.  Queries
with inequality or comparison atoms are rejected here — that is exactly the
extension Theorem 2 (``repro.inequalities``) provides.

Durand–Grandjean show acyclic queries are evaluable in essentially linear
time; the gain is the algorithm's, so every query runs as one shard, and
the evaluator is organised around the passes themselves:

* **head-aware rooting** — before the passes, the join tree is re-rooted at
  the node covering the most head variables (sound for any root: the join
  tree property is a property of the undirected tree).  With the head
  concentrated at the root, upward edges stop dragging head columns
  through every intermediate instead of materializing cross-product-sized
  carriers;
* **semijoin-shaped upward joins** — an upward join-project edge whose kept
  columns all exist in the parent (``keep ⊆ parent attributes``, the common
  case once the head sits at the root) *is* a semijoin, and runs as one;
* **level scheduling** — tree edges are grouped by child depth; within a
  level, each parent absorbs its children in turn (the semijoin chain);
* **kernel semijoins** — every semijoin is
  :meth:`~repro.relational.relation.Relation.semijoin`, which walks the
  probe side's index buckets when they are warm and probes key codes
  otherwise.  A cancellation check-point precedes each one, so an expired
  deadline aborts between any two semijoins.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.joins import JoinAlgorithm, hash_join
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import answers_relation, candidate_relations


class YannakakisEvaluator:
    """Acyclic-query evaluation in polynomial combined complexity.

    Parameters
    ----------
    join_algorithm:
        Join for the upward edges that carry columns into their parent.
        The default hash join pushes the projection into the join
        (``Relation._join_keep``); any other algorithm gets the explicit
        project-then-join equivalent.
    """

    def __init__(self, join_algorithm: JoinAlgorithm = hash_join) -> None:
        self._join = join_algorithm

    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> bool:
        """Is Q(d) nonempty?  One bottom-up semijoin pass.

        *join_tree* optionally supplies a precomputed join tree of the
        query hypergraph (the adaptive engine's cached plans carry one),
        skipping the GYO reduction.
        """
        return self.reduce_bottom_up(query, database, join_tree) is not None

    def reduce_bottom_up(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        root: Optional[int] = None,
    ) -> Optional[Relation]:
        """The root's candidate relation after one bottom-up semijoin pass.

        Stops exactly where ``decide`` does — no top-down pass, no joins —
        but returns the reduced *root relation* instead of its emptiness:
        after the upward pass every surviving root tuple participates in a
        global match, so the survivors are the root-projected answers.
        *root* optionally re-roots the (possibly supplied) join tree first;
        the N-wide batch decision roots at the injected parameter atom
        and reads each member's decision off the surviving vectors.
        Returns ``None`` when the query is globally empty.
        """
        prepared = self._prepare(query, database, join_tree)
        if prepared is None:
            return None
        relations, tree = prepared
        if root is not None and root != tree.root:
            tree = tree.rooted_at(root)
        for groups in tree.levels():
            for parent, children in groups:
                result = _absorb(relations, parent, children)
                if result.is_empty():
                    return None
                relations[parent] = result
        reduced = relations[tree.root]
        return None if reduced.is_empty() else reduced

    def contains(
        self, query: ConjunctiveQuery, database: Database, candidate: Sequence[Any]
    ) -> bool:
        """Decision problem candidate ∈ Q(d) via constant substitution."""
        try:
            decided = query.decision_instance(candidate)
        except QueryError:
            return False
        return self.decide(decided, database)

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> Relation:
        """Q(d) in time polynomial in input + output (full Yannakakis)."""
        prepared = self._prepare(query, database, join_tree)
        head_names = tuple(v.name for v in query.head_variables())
        if prepared is None:
            return answers_relation(query.head_terms, Relation.from_rows(head_names))
        relations, tree = prepared
        head_set = set(head_names)
        tree = _reroot_for_head(tree, head_set)

        relations = self.full_reduction(relations, tree)
        if relations[tree.root].is_empty():
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        # Upward join-and-project pass (paper's Algorithm 2, step 2, in the
        # plain setting): carry shared attributes plus output attributes.
        fused = self._join is hash_join
        for groups in tree.levels():
            for parent, children in groups:
                for node in children:
                    parent_rel = relations[parent]
                    child_rel = relations[node]
                    parent_vars = set(parent_rel.attributes)
                    keep = tuple(
                        a
                        for a in child_rel.attributes
                        if a in parent_vars or a in head_set
                    )
                    check_cancelled()
                    if all(a in parent_vars for a in keep):
                        # keep ⊆ parent: the join adds no columns — it *is*
                        # a semijoin.
                        relations[parent] = parent_rel.semijoin(child_rel)
                    elif fused:
                        relations[parent] = parent_rel._join_keep(child_rel, keep)
                    else:
                        relations[parent] = self._join(
                            parent_rel, child_rel.project(keep)
                        )

        root = relations[tree.root]
        answer_vars = root.project(
            tuple(a for a in root.attributes if a in head_set)
        ).project(head_names)
        return answers_relation(query.head_terms, answer_vars)

    # ------------------------------------------------------------------

    def bottom_up_reduction(
        self, relations: Dict[int, Relation], tree: JoinTree
    ) -> Dict[int, Relation]:
        """The upward half of the full reducer — one semijoin pass.

        After it, every relation is reduced against its entire *subtree*
        (leaves first), so the root is globally consistent while non-root
        relations may keep upward-dangling tuples.  Enough for any reader
        that only consumes root-side state — the counting fold reads root
        annotations and the covered count re-roots at the covering atom —
        at half the passes of :meth:`full_reduction`.
        """
        reduced = dict(relations)
        for groups in tree.levels():
            for parent, children in groups:
                reduced[parent] = _absorb(reduced, parent, children)
        return reduced

    def full_reduction(
        self, relations: Dict[int, Relation], tree: JoinTree
    ) -> Dict[int, Relation]:
        """Semijoin full reducer: bottom-up then top-down pass.

        Returns a new mapping in which the relations are globally
        consistent: P_u = π_{attrs(P_u)}(P_1 ⋈ ... ⋈ P_s).  The top-down
        pass walks the levels root first, so every child is reduced
        against its already-reduced parent exactly once.
        """
        reduced = self.bottom_up_reduction(relations, tree)
        for groups in reversed(tree.levels()):
            for parent, children in groups:
                for node in children:
                    check_cancelled()
                    reduced[node] = reduced[node].semijoin(reduced[parent])
        return reduced

    # ------------------------------------------------------------------

    def _prepare(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> Optional[Tuple[Dict[int, Relation], JoinTree]]:
        """Candidate relations + join tree; None when trivially empty."""
        if query.inequalities or query.comparisons:
            raise QueryError(
                "YannakakisEvaluator handles purely relational acyclic "
                "queries; use repro.inequalities for queries with != atoms"
            )
        tree = join_tree
        if tree is None:
            tree = JoinTree.from_hypergraph(query.hypergraph())
        candidates = candidate_relations(query.atoms, database)
        relations = {i: rel for i, rel in enumerate(candidates)}
        if any(rel.is_empty() for rel in relations.values()):
            return None
        return relations, tree


def _absorb(
    relations: Dict[int, Relation], parent: int, children: Sequence[int]
) -> Relation:
    """One bottom-up step: *parent*'s relation semijoined with each child's
    in turn (the semijoin chain), a cancellation check-point before each."""
    current = relations[parent]
    for node in children:
        check_cancelled()
        current = current.semijoin(relations[node])
    return current


# ----------------------------------------------------------------------
# Head-aware rooting
# ----------------------------------------------------------------------


def _reroot_for_head(tree: JoinTree, head_names: set) -> JoinTree:
    """The same undirected join tree, rooted where the head lives.

    Picks the node whose variable set covers the most head variables
    (lowest index on ties) and re-roots there
    (:meth:`~repro.hypergraph.join_tree.JoinTree.rooted_at`).  This
    rooting makes the upward join-project pass reach the head with the
    fewest column-carrying (non-semijoin) edges.

    Deliberately recomputed per evaluation: the walk is O(query), noise
    next to the data passes, and caching it would need an identity-safe
    key on the (plan-owned) input tree.
    """
    if not head_names:
        return tree
    best = max(
        tree.nodes(),
        key=lambda i: (
            len(head_names & {v.name for v in tree.node_vars[i]}),
            -i,
        ),
    )
    return tree.rooted_at(best)
