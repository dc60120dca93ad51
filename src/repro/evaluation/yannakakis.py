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
time; operationally the passes are *data-parallel*, and the evaluator is
organised around that:

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
  level, edges are grouped by parent (a parent absorbs its children
  sequentially, which is the semijoin chain) and, on sharded calls, the
  per-parent groups fan out across the optional worker pool;
* **sharded semijoins** — every semijoin runs through
  :func:`repro.parallel.ops.parallel_semijoin` with the per-call
  ``shard_count`` (1 unless the engine's plan says the inputs are large):
  co-partitioned hash shards and bucket-centric kernels where the operands'
  caches are warm or real workers exist, the kernel's row-scan semijoin
  otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..parallel.ops import parallel_semijoin
from ..parallel.pool import WorkerPool
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
    pool:
        Worker pool for level fan-out and sharded semijoins (tasks run
        inline when omitted).
    """

    def __init__(
        self,
        join_algorithm: JoinAlgorithm = hash_join,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self._join = join_algorithm
        self._pool = pool

    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        shard_count: int = 1,
    ) -> bool:
        """Is Q(d) nonempty?  One bottom-up semijoin pass.

        *join_tree* optionally supplies a precomputed join tree of the
        query hypergraph (the adaptive engine's cached plans carry one),
        skipping the GYO reduction.
        """
        reduced = self.reduce_bottom_up(
            query, database, join_tree, shard_count=shard_count
        )
        return reduced is not None

    def reduce_bottom_up(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        root: Optional[int] = None,
        shard_count: int = 1,
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
        # Cancellation check-points: every semijoin (parallel_semijoin), so
        # between any two of them no external state is held.
        for groups in tree.levels():
            for (parent, _), result in zip(
                groups, self._reduce_level(relations, groups, shard_count)
            ):
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
        shard_count: int = 1,
    ) -> Relation:
        """Q(d) in time polynomial in input + output (full Yannakakis)."""
        prepared = self._prepare(query, database, join_tree)
        head_names = tuple(v.name for v in query.head_variables())
        if prepared is None:
            return answers_relation(query.head_terms, Relation.from_rows(head_names))
        relations, tree = prepared
        head_set = set(head_names)
        tree = _reroot_for_head(tree, head_set)

        relations = self.full_reduction(relations, tree, shard_count)
        if relations[tree.root].is_empty():
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        # Upward join-and-project pass (paper's Algorithm 2, step 2, in the
        # plain setting): carry shared attributes plus output attributes.
        fused = self._join is hash_join
        for groups in tree.levels():
            check_cancelled()
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
                    if all(a in parent_vars for a in keep):
                        # keep ⊆ parent: the join adds no columns — it *is*
                        # a semijoin.
                        relations[parent] = parallel_semijoin(
                            parent_rel, child_rel, shard_count, self._pool
                        )
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
        self,
        relations: Dict[int, Relation],
        tree: JoinTree,
        shard_count: int = 1,
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
            for (parent, _), result in zip(
                groups, self._reduce_level(reduced, groups, shard_count)
            ):
                reduced[parent] = result
        return reduced

    def full_reduction(
        self,
        relations: Dict[int, Relation],
        tree: JoinTree,
        shard_count: int = 1,
    ) -> Dict[int, Relation]:
        """Semijoin full reducer: bottom-up then top-down pass.

        Returns a new mapping in which the relations are globally
        consistent: P_u = π_{attrs(P_u)}(P_1 ⋈ ... ⋈ P_s).  The top-down
        pass fans per-edge tasks out one level at a time (every child is
        written exactly once).
        """
        reduced = self.bottom_up_reduction(relations, tree, shard_count)
        for groups in reversed(tree.levels()):
            edges = [(node, parent) for parent, children in groups for node in children]

            def reduce_child(edge: Tuple[int, int]) -> Relation:
                node, parent = edge
                return parallel_semijoin(
                    reduced[node], reduced[parent], shard_count, self._pool
                )

            results = self._fan_out(reduce_child, edges, shard_count)
            for (node, _), result in zip(edges, results):
                reduced[node] = result
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

    def _reduce_level(
        self,
        relations: Dict[int, Relation],
        groups: Sequence[Tuple[int, Tuple[int, ...]]],
        shard_count: int,
    ) -> List[Relation]:
        """One bottom-up level: each parent's semijoin chain over its
        children, the per-parent chains fanned across the pool.  Tasks only
        read *relations*; the caller commits the returned results."""

        def reduce_parent(group: Tuple[int, Tuple[int, ...]]) -> Relation:
            parent, children = group
            current = relations[parent]
            for node in children:
                current = parallel_semijoin(
                    current, relations[node], shard_count, self._pool
                )
            return current

        return self._fan_out(reduce_parent, groups, shard_count)

    def _fan_out(self, fn, tasks, shard_count: int):
        # Fan out only where the plan sharded: a one-shard plan's inputs
        # are too small for thread hand-offs to pay.
        pool = self._pool
        if shard_count > 1 and pool is not None and pool.supports_closures:
            return pool.map(fn, tasks)
        return [fn(task) for task in tasks]


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
