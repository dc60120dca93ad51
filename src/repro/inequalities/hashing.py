"""Hash families for the color-coding step of Theorem 2.

The algorithm needs functions h : D → {1, ..., k} such that some h in the
family is injective on the (unknown) set of ≤ k values a satisfying
instantiation assigns to the V1 variables.

* :class:`RandomHashFamily` — the paper's Monte-Carlo bound: a satisfying
  instantiation is consistent with a fraction ≥ k!/k^k > e^{-k} of uniform
  random functions, so ⌈c·e^k⌉ trials fail with probability ≤ e^{-c}.
* :class:`GreedyPerfectHashFamily` — a deterministic k-perfect family for
  the *concrete finite* domain at hand: seeded random candidates are kept
  while they split not-yet-covered k-subsets, with a targeted-function
  fallback guaranteeing progress; coverage is verified, so the family is
  provably k-perfect for this domain.  Size ≈ e^k·k·ln|D| by the covering
  argument; construction cost is C(|D|, k) per round, so the build alone
  is O(|D|^k) — :func:`greedy_family_cost` prices it for the planner.  The
  splitter constructions of [3] would make the build FPT.
* :class:`ExhaustiveHashFamily` — all k^|D| functions; the test oracle for
  tiny domains.

Families are built over the *relevant* domain (the values V1 variables can
actually take), which the evaluator computes to keep |D| small.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

from ..errors import ReproError

HashFunction = Dict[Any, int]


class HashFamilyError(ReproError):
    """A hash family was configured inconsistently."""


def _sorted_domain(domain: Iterable[Any]) -> Tuple[Any, ...]:
    return tuple(sorted(set(domain), key=repr))


class RandomHashFamily:
    """Monte-Carlo family: ``trials`` uniform random functions D → [k].

    One-sided error: a nonempty query may be missed with probability at
    most (1 − e^{-k})^trials ≤ e^{-c} when trials ≥ c·e^k.
    """

    exact = False

    def __init__(self, confidence: float = 3.0, seed: int = 0) -> None:
        if confidence <= 0:
            raise HashFamilyError("confidence must be positive")
        self.confidence = confidence
        self.seed = seed

    def trials_for(self, k: int) -> int:
        return max(1, math.ceil(self.confidence * math.exp(k)))

    def functions(self, domain: Iterable[Any], k: int) -> Iterator[HashFunction]:
        values = _sorted_domain(domain)
        if k <= 1:
            yield {value: 1 for value in values}
            return
        rng = random.Random(self.seed)
        for _ in range(self.trials_for(k)):
            yield {value: rng.randint(1, k) for value in values}


class GreedyPerfectHashFamily:
    """Deterministic, verified k-perfect family for a concrete domain.

    Every k-subset of the domain is split (mapped injectively into [k]) by
    some member.  Candidates come from a seeded PRNG; a candidate is kept
    iff it covers at least one uncovered subset.  If ``stall_limit``
    consecutive candidates make no progress, a targeted function covering
    the lexicographically first uncovered subset is added, so construction
    always terminates.
    """

    exact = True

    def __init__(self, seed: int = 0, stall_limit: int = 20) -> None:
        self.seed = seed
        self.stall_limit = stall_limit

    def functions(self, domain: Iterable[Any], k: int) -> Iterator[HashFunction]:
        values = _sorted_domain(domain)
        if k <= 1 or len(values) <= 1:
            yield {value: 1 for value in values}
            return
        if k >= len(values):
            # Any injective map splits everything.
            yield {value: i + 1 for i, value in enumerate(values)}
            return

        uncovered = set(combinations(values, k))
        rng = random.Random(self.seed)
        stalls = 0
        while uncovered:
            candidate = {value: rng.randint(1, k) for value in values}
            split = {
                subset
                for subset in uncovered
                if len({candidate[v] for v in subset}) == k
            }
            if split:
                uncovered -= split
                stalls = 0
                yield candidate
                continue
            stalls += 1
            if stalls >= self.stall_limit:
                target = min(uncovered)
                forced = {value: 1 for value in values}
                for i, member in enumerate(target):
                    forced[member] = i + 1
                uncovered -= {
                    subset
                    for subset in uncovered
                    if len({forced[v] for v in subset}) == k
                }
                stalls = 0
                yield forced


def greedy_family_cost(domain_size: int, k: int) -> Tuple[float, float]:
    """(members, build work) of :class:`GreedyPerfectHashFamily` for k
    hashed variables over a domain of *domain_size* values.

    Members follow the covering bound e^k·k·ln|D|; each build round scans
    the C(|D|, k) subsets, so the build is members × C(|D|, k) subset
    checks.  Both are upper bounds: the greedy family is usually smaller
    and later rounds scan only the still-uncovered subsets.  The trivial
    families (k ≤ 1, or one injective map when k ≥ |D|) have one member
    and no build.
    """
    if k <= 1 or domain_size <= k:
        return 1.0, 0.0
    members = math.exp(k) * k * math.log(domain_size)
    try:
        subsets = float(math.comb(domain_size, k))
    except OverflowError:
        subsets = math.inf
    return members, members * subsets


class ExhaustiveHashFamily:
    """All k^|D| functions D → [k] — exact, for tiny domains only."""

    exact = True

    def __init__(self, max_functions: int = 2_000_000) -> None:
        self.max_functions = max_functions

    def functions(self, domain: Iterable[Any], k: int) -> Iterator[HashFunction]:
        values = _sorted_domain(domain)
        if k <= 1 or not values:
            yield {value: 1 for value in values}
            return
        total = k ** len(values)
        if total > self.max_functions:
            raise HashFamilyError(
                f"exhaustive family would have {total} functions; "
                f"use GreedyPerfectHashFamily instead"
            )
        for assignment in product(range(1, k + 1), repeat=len(values)):
            yield dict(zip(values, assignment))


def is_perfect_family(
    functions: Sequence[HashFunction], domain: Iterable[Any], k: int
) -> bool:
    """Verify k-perfectness of a family over a domain (test helper)."""
    values = _sorted_domain(domain)
    if k <= 1:
        return bool(functions) or not values
    for subset in combinations(values, k):
        if not any(
            len({h[v] for v in subset}) == k for h in functions
        ):
            return False
    return True
