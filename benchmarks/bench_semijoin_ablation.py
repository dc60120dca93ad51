"""T2-ABL-SEMI — ablation: pushing ≠-selections down vs checking at the root.

DESIGN.md calls out two design choices in the Theorem 2 engine:

1. σ_F *pushed down* the join tree at every merge (the paper's Algorithm 1)
   versus the carry-to-root mode of the §5 formula extension, which defers
   all inequality checking to a single root selection — same answers,
   bigger intermediates.
2. Join algorithm: hash join versus the paper's sort-merge accounting.

Both ablations run on the same conjunctive ≠-workload and must agree with
the ground truth; the table reports the cost difference.
"""

from repro.benchlib import print_table, time_thunk
from repro.evaluation import NaiveEvaluator, YannakakisEvaluator
from repro.inequalities import (
    AcyclicInequalityEvaluator,
    FormulaInequalityEvaluator,
    GreedyPerfectHashFamily,
)
from repro.query import conjunction_of, parse_query
from repro.relational import hash_join, sort_merge_join
from repro.workloads import chain_database, path_query


def test_pushdown_versus_root_check(benchmark):
    db = chain_database(layers=5, width=6, p=0.6, seed=8)
    base = parse_query(
        "G(x0) :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4)."
    )
    with_ineqs = parse_query(
        "G(x0) :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), "
        "x0 != x2, x1 != x4."
    )
    phi = conjunction_of(list(with_ineqs.inequalities))
    truth = NaiveEvaluator().evaluate(with_ineqs, db)

    pushdown = AcyclicInequalityEvaluator(GreedyPerfectHashFamily(seed=1))
    root_check = FormulaInequalityEvaluator(GreedyPerfectHashFamily(seed=1))

    t_push, r_push = time_thunk(lambda: pushdown.evaluate(with_ineqs, db), repeats=1)
    t_root, r_root = time_thunk(lambda: root_check.evaluate(base, phi, db), repeats=1)
    assert r_push == truth
    assert r_root == truth

    rows = [
        ("pushed-down sigma_F (Algorithm 1)", t_push, r_push.cardinality),
        ("carry-to-root + root selection", t_root, r_root.cardinality),
    ]
    print_table(
        ("variant", "seconds", "answers"),
        rows,
        title="Ablation: inequality selection placement",
    )

    # Join-algorithm ablation on plain acyclic evaluation.  The full head
    # makes every upward edge carry columns, so the join algorithm runs
    # (a head inside one atom would turn them all into semijoins).
    query = path_query(4, head_arity=5)
    join_rows = []
    for name, algorithm in (("hash", hash_join), ("sort_merge", sort_merge_join)):
        evaluator = YannakakisEvaluator(join_algorithm=algorithm)
        seconds, result = time_thunk(lambda: evaluator.evaluate(query, db), repeats=1)
        join_rows.append((name, seconds, result.cardinality))
    assert join_rows[0][2] == join_rows[1][2]
    print_table(
        ("join algorithm", "seconds", "answers"),
        join_rows,
        title="Ablation: join algorithm inside Yannakakis",
    )

    benchmark(lambda: pushdown.evaluate(with_ineqs, db))
