"""Inter-query parallelism for the engine and the service.

Every query runs as one shard: the acyclic passes gain from the algorithm
(Yannakakis, Durand–Grandjean), not from splitting the data.  What stays
parallel is the fan-out *across* queries.  This package provides:

* batch lifting (:func:`lift_batch_group`) — N-wide execution of
  same-shape query batches through a parameter relation;
* :class:`WorkerPool` — serial / thread / process fan-out for batch
  members and service dispatch.

See ``docs/parallel.md``.
"""

from ..evaluation.yannakakis import YannakakisEvaluator
from ..relational.joins import hash_join
from .batch import LiftedBatch, lift_batch_group
from .pool import POOL_MODES, WorkerPool, default_worker_count


class ParallelYannakakisEvaluator(YannakakisEvaluator):
    """Compatibility shim for the benchmark harness (``perfbench/``): accepts
    and ignores ``pool=`` and ``shard_count=``.  Remove when perfbench/ next changes."""

    def __init__(self, join_algorithm=hash_join, pool=None) -> None:
        super().__init__(join_algorithm)

    def evaluate(self, query, database, join_tree=None, shard_count=1):
        return super().evaluate(query, database, join_tree)


__all__ = [
    "LiftedBatch",
    "POOL_MODES",
    "ParallelYannakakisEvaluator",
    "WorkerPool",
    "default_worker_count",
    "lift_batch_group",
]
