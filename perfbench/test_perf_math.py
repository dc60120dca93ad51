"""Self-tests of the benchmark's own arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of
the repository.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import perf_e2e  # noqa: E402
import perf_gen  # noqa: E402
import perf_load  # noqa: E402
from perf_math import (  # noqa: E402
    OpenLoopSample,
    Tally,
    loglog_slope,
    percentile,
    poisson_due_times,
    samples_beyond,
    self_time,
    supported_percentile,
)
from repro import Relation  # noqa: E402


# -- percentiles with at least ten samples beyond ------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_samples_beyond_counts_strictly_above_the_rank():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(105, 90) == 10


def test_supported_percentile_refuses_thin_tails():
    assert supported_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="9 beyond"):
        supported_percentile(list(range(999)), 99)


def test_latency_metrics_report_p99_only_when_supported():
    def outcomes(n):
        request = perf_gen.Request("execute", "db", "Q(x) :- E(x, y).", "acyclic")
        return [perf_load.Outcome(request, i / 1000, "timed") for i in range(n)]

    report = perf_e2e.Report()
    perf_e2e.latency_metrics(report, outcomes(500))
    assert "p90_ms" in report.metrics and "p99_ms" not in report.metrics
    assert "needs 10" in report.notes["p99_ms"]
    report = perf_e2e.Report()
    perf_e2e.latency_metrics(report, outcomes(1000))
    assert report.metrics["p99_ms"][0] == pytest.approx(989.0)
    with pytest.raises(ValueError):
        perf_e2e.latency_metrics(perf_e2e.Report(), outcomes(99))


# -- the slope fit -------------------------------------------------------


def test_loglog_slope_recovers_power_laws():
    sizes = [100, 200, 400, 800, 1600]
    assert loglog_slope(sizes, [3 * s for s in sizes]) == pytest.approx(1.0)
    assert loglog_slope(sizes, [0.5 * s**2.33 for s in sizes]) == pytest.approx(2.33)
    assert loglog_slope(sizes, [4.0] * 5) == pytest.approx(0.0)


def test_loglog_slope_rejects_degenerate_input():
    with pytest.raises(ValueError):
        loglog_slope([10], [1.0])
    with pytest.raises(ValueError):
        loglog_slope([10, 10], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_slope([10, 20], [0.0, 2.0])


# -- due-time accounting -------------------------------------------------


def test_poisson_due_times_are_seeded_and_bounded():
    first = poisson_due_times(100.0, 10.0, seed=3)
    assert first == poisson_due_times(100.0, 10.0, seed=3)
    assert first != poisson_due_times(100.0, 10.0, seed=4)
    assert all(0 < t < 10.0 for t in first)
    assert first == sorted(first)
    assert 900 < len(first) < 1100


def test_open_loop_latency_counts_from_the_due_time():
    # Due at 1.0 but sent at 1.3 behind a stall: the client waited 0.3 s
    # before sending, and that wait is part of its latency.
    sample = OpenLoopSample(due=1.0, sent=1.3, done=1.35)
    assert sample.latency == pytest.approx(0.35)
    assert sample.lateness == pytest.approx(0.3)


# -- failure counting ----------------------------------------------------


def test_tally_counts_every_failure_kind_against_attempts():
    tally = Tally()
    for _ in range(7):
        tally.ok()
    tally.fail("deadline_exceeded")
    tally.fail("wrong_answer")
    tally.fail("wrong_answer")
    assert tally.attempted == 10
    assert tally.failed == 3
    assert tally.failed_frac == pytest.approx(0.3)
    assert tally.failures == {"deadline_exceeded": 1, "wrong_answer": 2}


def test_recorder_checks_answers_and_counts_failures():
    execute = perf_gen.Request("execute", "db", "Q(x) :- E(x, y).", "acyclic")
    count = perf_gen.Request("count", "db", "Q(x) :- E(x, y).", "acyclic")
    recorder = perf_load.Recorder({execute: frozenset({(1,), (2,)}), count: 2})
    right = Relation.from_rows(("x",), [(1,), (2,)])
    wrong = Relation.from_rows(("x",), [(1,)])
    assert recorder.record(execute, 0.0, right, None).ok
    assert recorder.outcomes[-1].rows == 2
    assert not recorder.record(execute, 0.0, wrong, None).ok
    assert recorder.record(count, 0.0, 2, None).ok
    assert not recorder.record(count, 0.0, True, None).ok  # a bool is no count
    assert not recorder.record(count, 0.0, None, "deadline_exceeded").ok
    assert recorder.tally.attempted == 5
    assert recorder.tally.failures == {"wrong_answer": 2, "deadline_exceeded": 1}


def test_failed_requests_miss_every_latency_limit():
    request = perf_gen.Request("execute", "db", "Q(x) :- E(x, y).", "acyclic")
    outcomes = [perf_load.Outcome(request, 0.001, "timed") for _ in range(90)]
    outcomes += [perf_load.Outcome(request, 0.001, "timed", ok=False)] * 10
    report = perf_e2e.Report()
    perf_e2e.latency_metrics(report, outcomes)
    assert report.metrics["p50_ms"][0] == pytest.approx(1.0)
    assert report.metrics["p90_ms"][0] == pytest.approx(1.0)
    outcomes.append(perf_load.Outcome(request, 0.001, "timed", ok=False))
    report = perf_e2e.Report()
    perf_e2e.latency_metrics(report, outcomes)
    assert report.metrics["p90_ms"][0] == pytest.approx(perf_gen.DEADLINE_S * 1e3)


# -- self-time differencing ----------------------------------------------


def test_self_time_is_the_difference_of_medians():
    outer = [5.0, 3.0, 4.0, 100.0, 4.5]
    inner = [1.0, 1.5, 1.2]
    assert self_time(outer, inner) == pytest.approx(4.5 - 1.2)


def test_self_time_is_reported_as_measured_even_below_zero():
    assert self_time([1.0, 1.0], [1.5, 1.5]) == pytest.approx(-0.5)
    assert math.isfinite(self_time([2.0], [1.0]))
