"""Seeded inputs of the three workloads, and the answer oracle.

Everything here is a pure function of the workload seed: the databases the
server loads, the requests the load generator sends, and the answers those
requests must get.  The server only ever sees the generated database files
and the request frames.

The shape of every instance (which node links to which) comes from the
fixed ``SHAPE_SEED``; the run's seed relabels all its values and draws the
request stream.  Runs with different seeds therefore send different
inputs that cost the same work, so their figures can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import Database, Operation, QueryEngine, Relation, parse_query
from repro.engine import INEQUALITY, NAIVE, TREEWIDTH, YANNAKAKIS
from repro.engine.analysis import shape_signature

EXECUTE, DECIDE, COUNT, REGISTER = "execute", "decide", "count", "register"
ACYCLIC, CYCLIC, NEQ = "acyclic", "cyclic", "neq"

SHAPE_SEED = 7

#: Every wire request carries this budget; no request at HEAD comes close,
#: so a deadline miss is a regression, never noise.
DEADLINE_S = 30.0

# point: a layered chain of ~3k edges whose ~200 first-layer nodes are the
# constants the parameterized path queries bind.
POINT_LAYERS, POINT_WIDTH, POINT_DEGREE = 5, 200, (3, 4)
POINT_SKEW = 0.9
# analytic: path4 over width-64 layers split into 3 blocks (answers ~1.4k
# rows; |E| >= 1024 so the planner shards it), star5 over 200 hubs (1.6k
# rows per arm), a random digraph for the cyclic queries, and the paper's
# acyclic ≠ path over a width-12 chain with p = 0.3, the smallest size at
# which the engine's re-plan switch to the Theorem 2 evaluator happens.
PATH_LAYERS, PATH_WIDTH, PATH_BLOCKS, PATH_DEGREE = 5, 64, 3, (5, 5)
STAR_ARMS, STAR_HUBS, STAR_LEAVES = 5, 200, 8
GRAPH_NODES, GRAPH_P = 260, 0.035
NEQ_LAYERS, NEQ_WIDTH, NEQ_P = 5, 12, 0.3
# churn: each generation is a fresh chain of this scale over new values.
CHURN_LAYERS, CHURN_WIDTH, CHURN_DEGREE = 8, 128, (2, 3)
CHURN_SHAPES = 256  # 2x the engine's default plan-cache capacity of 128
CHURN_QUERIES_PER_GEN = 32


@dataclass(frozen=True)
class Request:
    """One wire request: an operation on a named server database."""

    op: str
    database: str
    query: str
    klass: str

    def operation(self) -> Operation:
        """The operation as the wire client sends it (query text)."""
        return Operation.make(self.op, self.query)

    def local_operation(self) -> Operation:
        """The same operation over the parsed query, for in-process calls."""
        return Operation.make(self.op, parse_query(self.query))


@dataclass(frozen=True)
class Workload:
    """A workload's inputs: the server's databases, and its requests.

    ``requests`` is the workload's request stream (cycled by the closed
    loops); ``generations`` is churn's list of replacement databases, each
    followed by its own requests.
    """

    databases: Dict[str, Database]
    requests: Tuple[Request, ...]
    generations: Tuple[Tuple[Database, Tuple[Request, ...]], ...] = ()
    binary_frames: bool = False
    connections: int = 1


def layered_edges(
    rng: random.Random,
    layers: int,
    width: int,
    degree: Tuple[int, int],
    *,
    base: int = 0,
    blocks: int = 1,
) -> List[Tuple[int, int]]:
    """Edges of a layered DAG: every node of layer i gets a seeded number
    of distinct successors in layer i+1, inside its own block of the width.

    Node (layer, index) is the value ``base + layer * width + index``.
    """
    edges = []
    block = width // blocks
    for layer in range(layers - 1):
        for index in range(width):
            start = min(index // block, blocks - 1) * block
            stop = width if start + 2 * block > width else start + block
            targets = rng.sample(range(start, stop), rng.randint(*degree))
            source = base + layer * width + index
            edges.extend(
                (source, base + (layer + 1) * width + target) for target in targets
            )
    return edges


def _binary(name: str, rows: Iterable[Tuple[int, int]]) -> Relation:
    return Relation.from_rows((f"{name}.0", f"{name}.1"), rows)


def relabel(
    rng: random.Random, relations: Dict[str, List[Tuple[int, int]]], base: int = 0
) -> Tuple[Database, Dict[int, int]]:
    """A database of *relations* with every value renamed by a seeded
    injective map into ``base + [0, 4n)``; returns the database and map."""
    values = sorted({value for rows in relations.values() for row in rows for value in row})
    label = dict(zip(values, rng.sample(range(base, base + 4 * len(values)), len(values))))
    database = Database(
        {
            name: _binary(name, ((label[a], label[b]) for a, b in rows))
            for name, rows in relations.items()
        }
    )
    return database, label


def _path_text(head: str, relation: str, terms: Sequence[str]) -> str:
    body = ", ".join(
        f"{relation}({a}, {b})" for a, b in zip(terms, terms[1:])
    )
    return f"{head} :- {body}."


# ----------------------------------------------------------------------
# point
# ----------------------------------------------------------------------


def point_workload(seed: int, count: int) -> Workload:
    """Parameterized 3- and 4-atom path queries, the start constant drawn
    with a skew over a fixed popularity ranking; 50% execute, 25% decide,
    25% count."""
    shape = random.Random(SHAPE_SEED)
    edges = layered_edges(shape, POINT_LAYERS, POINT_WIDTH, POINT_DEGREE)
    starts = list(range(POINT_WIDTH))
    shape.shuffle(starts)
    rng = random.Random(seed)
    database, label = relabel(rng, {"E": edges})
    weights = [1.0 / (rank + 1) ** POINT_SKEW for rank in range(len(starts))]
    ops = [EXECUTE, EXECUTE, DECIDE, COUNT]
    requests = []
    for start, length, op in zip(
        rng.choices(starts, weights, k=count),
        rng.choices((3, 4), k=count),
        rng.choices(ops, k=count),
    ):
        terms = [str(label[start])] + [f"x{i}" for i in range(1, length + 1)]
        text = _path_text(f"P(x{length})", "E", terms)
        requests.append(Request(op, "chain", text, ACYCLIC))
    return Workload({"chain": database}, tuple(requests), connections=2)


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------


def neq_edges(width: int, seed: int) -> List[Tuple[int, int]]:
    """The ≠ path instance: a layered chain with edge probability p."""
    rng = random.Random(seed)
    return [
        (layer * width + a, (layer + 1) * width + b)
        for layer in range(NEQ_LAYERS - 1)
        for a in range(width)
        for b in range(width)
        if rng.random() < NEQ_P
    ]


#: ``path_neq_query(4, 2)`` over relation N: a 4-atom path with two ≠.
NEQ_QUERY = (
    "PNEQ(x0) :- N(x0, x1), N(x1, x2), N(x2, x3), N(x3, x4), "
    "x1 != x4, x0 != x4."
)
PATH4_QUERY = _path_text("A(x0, x4)", "E", [f"x{i}" for i in range(5)])


def analytic_workload(seed: int) -> Workload:
    """A fixed cycle of large acyclic answers, acyclic counts, cyclic
    listings and the ≠ path."""
    shape = random.Random(SHAPE_SEED)
    path_edges = layered_edges(
        shape, PATH_LAYERS, PATH_WIDTH, PATH_DEGREE, blocks=PATH_BLOCKS
    )
    star_arms = {
        f"A{arm}": [
            (hub, 1000 * arm + leaf)
            for hub in range(STAR_HUBS)
            for leaf in shape.sample(range(4 * STAR_LEAVES), STAR_LEAVES)
        ]
        for arm in range(1, STAR_ARMS + 1)
    }
    graph_edges = [
        (a, b)
        for a in range(GRAPH_NODES)
        for b in range(GRAPH_NODES)
        if a != b and shape.random() < GRAPH_P
    ]
    rng = random.Random(seed)
    paths, _ = relabel(rng, {"E": path_edges})
    star, _ = relabel(rng, star_arms)
    graph, _ = relabel(rng, {"G": graph_edges})
    # chain_database(5, 12, 0.3, seed=7): at this size the engine re-plans
    # the ≠ shape to the Theorem 2 evaluator; at width 8 it does not.
    neq, _ = relabel(rng, {"N": neq_edges(NEQ_WIDTH, SHAPE_SEED)})
    star_query = "S(h, l1) :- " + ", ".join(
        f"A{arm}(h, l{arm})" for arm in range(1, STAR_ARMS + 1)
    ) + "."
    triangle = "T(x, y, z) :- G(x, y), G(y, z), G(z, x)."
    square = "C(x0, x2) :- G(x0, x1), G(x1, x2), G(x2, x3), G(x3, x0)."
    cycle = (
        Request(EXECUTE, "paths", PATH4_QUERY, ACYCLIC),
        Request(EXECUTE, "star", star_query, ACYCLIC),
        Request(COUNT, "paths", PATH4_QUERY, ACYCLIC),
        Request(COUNT, "star", star_query, ACYCLIC),
        Request(EXECUTE, "graph", triangle, CYCLIC),
        Request(EXECUTE, "graph", square, CYCLIC),
        Request(EXECUTE, "neq", NEQ_QUERY, NEQ),
    )
    return Workload(
        {"paths": paths, "star": star, "graph": graph, "neq": neq},
        cycle,
        binary_frames=True,
    )


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------


def churn_shapes(rng: random.Random) -> List[str]:
    """``CHURN_SHAPES`` distinct acyclic query shapes over E, as templates.

    A shape is a path of 2–6 atoms whose every atom has its own direction,
    a head of one or two of its variables, and one variable bound to a
    constant (``{c}`` in the template), which keeps answers small.  Shapes
    are distinct under the engine's own plan-cache signature.
    """
    candidates = []
    for length in range(2, 7):
        names = [f"x{i}" for i in range(length + 1)]
        for directions in range(1 << length):
            for head in ((names[-1],), (names[1], names[-1])):
                for bound in sorted({0, length // 2}):
                    candidates.append((length, directions, head, bound))
    rng.shuffle(candidates)
    shapes: List[str] = []
    seen = set()
    for length, directions, head, bound in candidates:
        terms = [f"x{i}" for i in range(length + 1)]
        head = tuple(name for name in head if name != terms[bound])
        terms[bound] = "{c}"
        atoms = []
        for i in range(length):
            a, b = terms[i], terms[i + 1]
            atoms.append(f"E({b}, {a})" if directions >> i & 1 else f"E({a}, {b})")
        template = f"Q({', '.join(head)}) :- {', '.join(atoms)}."
        signature = shape_signature(parse_query(template.format(c=0)))
        if signature in seen:
            continue
        seen.add(signature)
        shapes.append(template)
        if len(shapes) == CHURN_SHAPES:
            return shapes
    raise AssertionError("not enough distinct churn shapes")


def churn_workload(seed: int, generations: int) -> Workload:
    """Generations of fresh databases, each followed by queries cycling
    through more distinct shapes than the plan cache holds."""
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    shapes = churn_shapes(shape)
    rng.shuffle(shapes)
    cursor = 0
    stream = []
    for generation in range(generations + 1):
        edges = layered_edges(shape, CHURN_LAYERS, CHURN_WIDTH, CHURN_DEGREE)
        # Every generation's values are new: a disjoint range per generation.
        database, label = relabel(rng, {"E": edges}, base=(generation + 1) << 20)
        # Constants come from the middle layers, so both directions of
        # every atom can match.
        middle = range(2 * CHURN_WIDTH, 5 * CHURN_WIDTH)
        requests = []
        for _ in range(CHURN_QUERIES_PER_GEN):
            template = shapes[cursor % len(shapes)]
            cursor += 1
            text = template.format(c=label[rng.choice(middle)])
            op = COUNT if rng.random() < 1 / 3 else EXECUTE
            requests.append(Request(op, "live", text, ACYCLIC))
        stream.append((database, tuple(requests)))
    (first_db, first_requests), rest = stream[0], stream[1:]
    return Workload({"live": first_db}, first_requests, generations=tuple(rest))


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

#: The evaluator the oracle forces, keyed by the one the planner picks.
ORACLE_EVALUATOR = {
    NAIVE: YANNAKAKIS,
    YANNAKAKIS: TREEWIDTH,
    TREEWIDTH: NAIVE,
    INEQUALITY: NAIVE,
}


def oracle_evaluator(planned: str, klass: str) -> str:
    """A different evaluator from the planner's, able to answer *klass*.

    The ≠ class always gets forced ``naive``: it is the only evaluator
    besides Theorem 2's that handles ≠, whichever the planner picked.
    """
    if klass == NEQ:
        return NAIVE
    if klass == CYCLIC and planned == NAIVE:
        return TREEWIDTH
    return ORACLE_EVALUATOR.get(planned, NAIVE)


def answers(
    requests: Iterable[Request], databases: Dict[str, Database]
) -> Dict[Request, object]:
    """Every distinct request's expected result, computed in-process with
    a different evaluator from the one the planner picks.

    ``execute`` expects the answer's row set, ``count`` its size and
    ``decide`` its emptiness — so the server's count is checked against
    ``len(execute)`` of an independent evaluation.
    """
    expected: Dict[Request, object] = {}
    rows_by_query: Dict[Tuple[str, str], frozenset] = {}
    engine = QueryEngine(parallel=False, replan_drift_threshold=None)
    try:
        for request in requests:
            if request in expected:
                continue
            key = (request.database, request.query)
            rows = rows_by_query.get(key)
            if rows is None:
                database = databases[request.database]
                query = parse_query(request.query)
                planned = engine.plan_for(query, database).evaluator
                forced = oracle_evaluator(planned, request.klass)
                relation = engine.run(Operation.execute(query, forced), database)
                rows = rows_by_query[key] = frozenset(relation.rows)
            if request.op == EXECUTE:
                expected[request] = rows
            elif request.op == COUNT:
                expected[request] = len(rows)
            else:
                expected[request] = bool(rows)
    finally:
        engine.close()
    return expected


def result_matches(request: Request, result: object, expected: object) -> bool:
    """Does a decoded wire result equal the oracle's answer?"""
    if request.op == REGISTER:
        return result == expected
    if request.op == EXECUTE:
        return isinstance(result, Relation) and frozenset(result.rows) == expected
    if request.op == COUNT:
        return isinstance(result, int) and not isinstance(result, bool) and (
            result == expected
        )
    return result is expected
