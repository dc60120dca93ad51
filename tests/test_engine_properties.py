"""Property tests: the adaptive engine agrees with every applicable
evaluator on randomized acyclic and cyclic queries.

The engine's whole contract is that dispatch is invisible: whatever the
planner picks, ``execute`` returns exactly what the generic backtracking
oracle returns, and — where their preconditions hold — what Yannakakis,
the treewidth evaluator, and the Theorem 2 machinery return.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConjunctiveQuery, Database, QueryEngine
from repro.engine.analysis import ACYCLIC, FAST_COUNTING_MODES, counting_mode
from repro.evaluation import (
    CountingYannakakisEvaluator,
    NaiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
)
from repro.inequalities import AcyclicInequalityEvaluator
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    random_acyclic_query,
    random_database,
    random_graph,
)


def database_for(query, domain_size: int, tuples: int, seed: int) -> Database:
    schema = DatabaseSchema(
        RelationSchema(atom.relation, atom.arity) for atom in query.atoms
    )
    return random_database(schema, domain_size, tuples, seed=seed)


def graph_database(n: int, p: float, seed: int) -> Database:
    edges = list(random_graph(n, p, seed=seed).edges())
    rows = edges + [(b, a) for a, b in edges]
    return Database.from_tuples({"E": rows or [(0, 0)]})


class TestAcyclicAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_engine_matches_all_applicable_evaluators(self, seed):
        rng = random.Random(seed)
        query = random_acyclic_query(
            num_atoms=rng.randint(2, 5),
            max_arity=3,
            num_inequalities=0,
            seed=seed,
            head_arity=rng.randint(0, 2),
        )
        database = database_for(query, domain_size=6, tuples=25, seed=seed)
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert YannakakisEvaluator().evaluate(query, database) == reference
        assert TreewidthEvaluator().evaluate(query, database) == reference
        assert engine.decide(query, database) == (not reference.is_empty())

    @pytest.mark.parametrize("seed", range(8))
    def test_engine_matches_on_inequality_queries(self, seed):
        query = path_neq_query(3 + seed % 3, 1 + seed % 2, seed=seed)
        assert query.inequalities
        database = chain_database(
            layers=len(query.atoms) + 1, width=5, p=0.5, seed=seed
        )
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert (
            AcyclicInequalityEvaluator().evaluate(query, database) == reference
        )


class TestYannakakisMatchesNaive:
    """The one evaluator: ``evaluate``, ``decide``, the bottom-up pass at
    every root, and ``count`` agree with the naive backtracking oracle —
    directly, and through an engine with and without a worker pool."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        head_arity=st.integers(0, 3),
        parallel=st.booleans(),
    )
    def test_matches_naive(self, seed, head_arity, parallel):
        rng = random.Random(seed)
        query = random_acyclic_query(
            num_atoms=rng.randint(1, 5),
            max_arity=3,
            num_inequalities=0,
            seed=seed,
            head_arity=head_arity,
        )
        database = database_for(query, domain_size=6, tuples=25, seed=seed)
        naive = NaiveEvaluator()
        reference = naive.evaluate(query, database)
        evaluator = YannakakisEvaluator()

        assert evaluator.evaluate(query, database) == reference
        assert evaluator.decide(query, database) == (not reference.is_empty())
        for root, atom in enumerate(query.atoms):
            witnessed = naive.evaluate(
                ConjunctiveQuery(atom.variables(), query.atoms), database
            )
            reduced = evaluator.reduce_bottom_up(query, database, root=root)
            if witnessed.is_empty():
                assert reduced is None
            else:
                names = tuple(v.name for v in atom.variables())
                assert reduced.project(names).rows == witnessed.rows

        mode = counting_mode(query, ACYCLIC)
        if mode in FAST_COUNTING_MODES:
            counted = CountingYannakakisEvaluator(reducer=evaluator).count(
                query, database, mode=mode
            )
            assert counted.total == reference.cardinality
        with QueryEngine(parallel=parallel, max_workers=2) as engine:
            assert (engine.pool is not None) == parallel
            assert engine.execute(query, database) == reference
            assert engine.decide(query, database) == (not reference.is_empty())
            assert engine.count(query, database) == reference.cardinality


class TestCyclicAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_cycles_match_naive_and_treewidth(self, seed):
        rng = random.Random(seed)
        length = rng.randint(3, 5)
        query = cycle_query(length)
        database = graph_database(n=10, p=0.4, seed=seed)
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert TreewidthEvaluator().evaluate(query, database) == reference
        assert engine.decide(query, database) == (not reference.is_empty())


class TestParameterizedAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_contains_matches_naive_across_bindings(self, seed):
        query = random_acyclic_query(
            num_atoms=3, max_arity=2, num_inequalities=0, seed=seed, head_arity=1
        )
        database = database_for(query, domain_size=5, tuples=20, seed=seed)
        engine = QueryEngine()
        naive = NaiveEvaluator()
        for candidate in sorted(database.domain()):
            assert engine.contains(query, database, (candidate,)) == (
                naive.contains(query, database, (candidate,))
            ), f"seed={seed}, candidate={candidate}"
        # One shape -> one plan for the whole candidate sweep.
        assert engine.cache_stats.misses <= 2
