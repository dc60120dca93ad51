"""ACYC — §5 baseline: acyclic queries in polynomial combined complexity.

Path queries over layered databases: the adaptive engine (which detects
acyclicity and dispatches to Yannakakis) is near-linear in the database
size regardless of the query length, while the forced-naive baseline
degrades as the path grows (its intermediate assignment space explodes
with the number of matching sub-paths).

The paper's claim reproduced here: "If Q is acyclic, this evaluation can be
done in time polynomial in the size of the input database d and the output
Q(d)" — combined with the n^q behaviour of the generic algorithm, the
acyclic dispatch should win by growing factors on long paths.

Both rows run through ``QueryEngine.execute``: the adaptive row lets the
planner choose (it picks Yannakakis for every point — asserted), the naive
row forces ``evaluator="naive"``.

The second test checks the bound itself: per path length, the log-log
slope of engine evaluate time against |d| + |Q(d)| (Yannakakis, and
Durand–Grandjean's linear time for acyclic queries, predict about 1).
The head ``(x0, x1)`` lies in one atom, so the queries are free-connex and
the linear bound applies with a nonempty output.  The engine runs without
a worker pool, so the fit sees the algorithm, not thread hand-offs.
``SLOPE_BOUND`` was set from 12 runs on a 2-vCPU container, each fitting
lengths 2, 3 and 4 over widths 16-128 (|d| + |Q(d)| from 341 to 37290).
Fitted slopes per run, as (len 2, len 3, len 4):

(0.84, 0.91, 0.97); (0.80, 0.90, 0.94); (0.79, 0.93, 0.94);
(0.80, 0.92, 0.95); (0.79, 0.90, 0.95); (0.82, 0.91, 0.87);
(0.82, 1.01, 0.91); (0.83, 0.89, 0.93); (0.83, 1.08, 0.94);
(0.86, 0.90, 0.87); (0.78, 0.90, 0.94); (0.67, 0.95, 0.83).

They span 0.67-1.08.  On the same container the evaluator this one
replaced (no head-aware rooting, column-carrying upward joins) fitted
(1.39, 2.17, 2.18) and took 35 s at length 4, width 128.
"""

from repro import QueryEngine
from repro.benchlib import growth_exponent, print_table, time_thunk
from repro.engine import YANNAKAKIS
from repro.workloads import chain_database, path_query

#: Largest accepted slope: the highest of the 12 measured fits (1.08) plus
#: headroom for a loaded host, and below the 1.39-2.18 of a materializing
#: evaluator.
SLOPE_BOUND = 1.3


def test_acyclic_linear_in_n(benchmark):
    lengths = (2, 3, 4)
    widths = (4, 8, 16)

    engine = QueryEngine()

    rows = []
    engine_exponents = {}
    for length in lengths:
        query = path_query(length, head_arity=1)
        engine_times = []
        naive_times = []
        sizes = []
        for width in widths:
            db = chain_database(layers=length + 1, width=width, p=0.25, seed=3)
            sizes.append(db.size())
            assert engine.plan_for(query, db).evaluator == YANNAKAKIS
            t_e, result_e = time_thunk(
                lambda: engine.execute(query, db), repeats=1
            )
            t_n, result_n = time_thunk(
                lambda: engine.execute(query, db, evaluator="naive"), repeats=1
            )
            assert result_e == result_n
            engine_times.append(t_e)
            naive_times.append(t_n)
        engine_exponents[length] = growth_exponent(sizes, engine_times)
        rows.append(
            (f"len={length}", "engine (adaptive)")
            + tuple(engine_times)
            + (engine_exponents[length],)
        )
        rows.append(
            (f"len={length}", "forced naive")
            + tuple(naive_times)
            + (growth_exponent(sizes, naive_times),)
        )

    print_table(
        ("query", "engine")
        + tuple(f"width={w}" for w in widths)
        + ("fitted exponent",),
        rows,
        title="Acyclic path queries: adaptive dispatch stays near-linear in |d|",
    )

    # The adaptive engine's exponent must stay small at every length
    # (sort/hash overheads allow some slack above 1.0).
    assert all(e < 2.2 for e in engine_exponents.values())

    db = chain_database(layers=5, width=16, p=0.25, seed=3)
    query = path_query(4, head_arity=1)
    engine.execute(query, db)  # warm the plan cache before timing
    benchmark(lambda: engine.execute(query, db))


def evaluate_slopes(lengths=(2, 3, 4), widths=(16, 32, 64, 128)):
    """Per path length: (|d| + |Q(d)| per width, seconds per width, slope)."""
    engine = QueryEngine(parallel=False)
    fits = {}
    for length in lengths:
        query = path_query(length, head_arity=2)
        sizes = []
        times = []
        for width in widths:
            db = chain_database(layers=length + 1, width=width, p=0.25, seed=3)
            assert engine.plan_for(query, db).evaluator == YANNAKAKIS
            seconds, answer = time_thunk(lambda: engine.execute(query, db), repeats=5)
            sizes.append(db.size() + answer.cardinality)
            times.append(seconds)
        fits[length] = (sizes, times, growth_exponent(sizes, times))
    return fits


def test_evaluate_slope_against_input_plus_output():
    fits = evaluate_slopes()
    print_table(
        ("query", "|d| + |Q(d)|", "seconds", "fitted slope"),
        [
            (f"len={length}", sizes, [round(t, 5) for t in times], round(slope, 3))
            for length, (sizes, times, slope) in fits.items()
        ],
        title="Yannakakis evaluate time against |d| + |Q(d)| (log-log slope)",
    )
    assert all(slope < SLOPE_BOUND for _, _, slope in fits.values()), fits
