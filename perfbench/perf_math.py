"""The benchmark's own arithmetic: percentiles, fits, due times, tallies.

Nothing here imports the program under test, so ``test_perf_math.py`` can
pin every rule without a server.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that one sample more or less moves it.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """The 1-based nearest rank of the *q*-th percentile of *count* samples,
    in exact arithmetic (``0.29 * 100`` is 28.999999999999996 in floats)."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(math.ceil(Fraction(q).limit_denominator(1000) * count / 100), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank percentile."""
    return count - _rank(count, q)


def supported_percentile(
    values: Sequence[float], q: float, beyond: int = MIN_BEYOND
) -> float:
    """The *q*-th percentile, refused unless *beyond* samples exceed it."""
    have = samples_beyond(len(values), q)
    if have < beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {have} beyond it, "
            f"needs {beyond}"
        )
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    A slope of 1 is linear scaling.  Needs at least two distinct sizes and
    positive values throughout.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    if min(sizes) <= 0 or min(times) <= 0:
        raise ValueError("sizes and times must be positive")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct sizes")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def self_time(outer: Sequence[float], inner: Sequence[float]) -> float:
    """A layer's self time: the median of the enclosing call minus the
    median of the enclosed call, both measured on the same operations.

    Reported as measured: a negative value means the difference is below
    the noise of the two medians.
    """
    return median(outer) - median(inner)


def poisson_due_times(rate: float, duration: float, seed: int) -> List[float]:
    """Seeded open-loop send times (seconds from the phase start) of a
    Poisson process at *rate* requests per second, all below *duration*."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    due, times = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return times
        times.append(due)


@dataclass(frozen=True)
class OpenLoopSample:
    """One open-loop request: when it was due, sent, and answered."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Latency counted from the due time, so a stall that delays later
        sends is charged to every request it delayed."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


@dataclass
class Tally:
    """Attempted and failed requests, by failure kind.

    A failure is an error response, a missed deadline or a wrong answer;
    all three count against ``failed_frac`` alike.
    """

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
