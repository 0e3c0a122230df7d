"""Difference sets and (k, l)-local-property verification by subset scanning.

The difference set of A holds the positive values |a - b| over distinct
a, b in A.  A satisfies the (k, l)-local property when every k-element subset
spans at least l distinct differences; the verifier finds the exact minimum
over all k-subsets by a depth-first branch-and-bound search over the sorted
values.  Its bound: let P be a nonempty chosen prefix and r the number of
values still to add.  Each later value u exceeds every value of P, so
u - min(P) is larger than every difference within P, and it differs for each
u; every completion of P therefore spans at least distinct(P) + r
differences, and a branch whose bound reaches the best count so far is dead.
A dead branch holds only subsets whose count is at least that best, so the
lexicographically least subset at the final minimum is still the first one
the search records.

``cross_check`` ties the two counting routes together: for any tuple of
distinct numbers, the configuration machinery's certified-pair count must
equal C(k,2) minus the directly-counted number of distinct differences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .configuration import distinct_difference_count, from_points

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "DIFFLOCAL_BUDGET"
# the search recurses once per chosen element; this keeps it far below
# Python's default recursion limit of 1000
MAX_LOCAL_K = 256


class BudgetExceededError(Exception):
    """The requested work would exceed the budget."""


def resolve_budget(budget: int | None = None) -> int:
    """The subset budget: ``budget``, or when None the ``DIFFLOCAL_BUDGET``
    environment variable, or ``DEFAULT_BUDGET``; ValueError unless a
    positive integer."""
    if budget is not None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(count: int, what: str, budget: int | None = None) -> int:
    """The limit ``resolve_budget(budget)``; BudgetExceededError naming
    ``what``, ``count`` and the limit when ``count`` exceeds it."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceededError(f"{what}: {count} exceeds the budget of {limit}")
    return limit


@dataclass(frozen=True)
class LocalPropertyVerdict:
    holds: bool
    min_differences: int
    witness_subset: Optional[tuple[int, ...]]


def difference_set(points: Sequence[int]) -> list[int]:
    """Sorted positive differences {|a - b| : a != b in A}, deduplicated."""
    pts = sorted(set(points))
    if len(pts) < 2:
        raise ValueError(f"need at least 2 elements, got {len(pts)}")
    return sorted({b - a for a, b in combinations(pts, 2)})


def check_local_property(
    points: Sequence[int], k: int, ell: int, budget: int | None = None
) -> LocalPropertyVerdict:
    """Exact minimum distinct-difference count over all k-subsets, with witness.

    Ties on the minimum resolve to the lexicographically smallest subset.
    The search skips every branch whose prefix P, with r values still to
    add, has distinct(P) + r at least the best count so far (the bound in
    the module docstring); a skipped branch holds no subset below that best,
    so the minimum and the least witness are those of the full enumeration.
    Each search node charges the candidates its loop may examine before it
    examines them; BudgetExceededError is raised once the charges exceed the
    budget (``resolve_budget``), so the budget bounds the work done.  Raises
    ValueError when the budget is not positive or k lies outside
    2..MAX_LOCAL_K.
    """
    pts = sorted(set(points))
    n = len(pts)
    if not 2 <= k <= MAX_LOCAL_K:
        raise ValueError(f"k must be between 2 and {MAX_LOCAL_K}, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} elements, got {n}")
    limit = resolve_budget(budget)
    charged = 0

    # a k-subset spans at most C(k, 2) differences, so the first one visited
    # sets the minimum
    best_count = comb(k, 2) + 1
    best_subset: Optional[tuple[int, ...]] = None
    chosen: list[int] = []
    diff_mult: dict[int, int] = {}

    def visit(start: int, least: int) -> None:
        # least is distinct(chosen) + remaining, the fewest differences any
        # completion of chosen spans; it counts each candidate's difference
        # to chosen[0], always new, so only those to chosen[1:] are looked up
        nonlocal best_count, best_subset, charged
        remaining = k - len(chosen)
        stop = n - remaining + 1
        charged += stop - start
        if charged > limit:
            raise BudgetExceededError(
                f"local-property search: {charged} candidates exceed the budget of {limit}"
            )
        later = chosen[1:]
        for value in pts[start:stop]:
            start += 1  # now the index after value
            # the candidate's differences to the chosen values are pairwise
            # distinct, and new unless diff_mult counts them already; bound
            # is the least for chosen + [value]
            bound = least
            for c in later:
                if not diff_mult.get(value - c):
                    bound += 1
            if bound >= best_count:
                continue
            if remaining == 1:
                best_count, best_subset = bound, (*chosen, value)
            else:
                for c in chosen:
                    diff_mult[value - c] = diff_mult.get(value - c, 0) + 1
                chosen.append(value)
                visit(start, bound)
                chosen.pop()
                for c in chosen:
                    diff_mult[value - c] -= 1
            if least >= best_count:
                return

    try:
        # with nothing chosen the least is k - 1: any k values span that many
        visit(0, k - 1)
    finally:
        del visit  # it calls itself: free the cycle without the cyclic GC
    assert best_subset is not None
    return LocalPropertyVerdict(
        holds=best_count >= ell,
        min_differences=best_count,
        witness_subset=best_subset,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    points: tuple
    certified_count: int
    distinct_differences: int
    total_pairs: int

    @property
    def ok(self) -> bool:
        return self.distinct_differences == self.total_pairs - self.certified_count


def cross_check(points: Sequence) -> CrossCheckReport:
    """Compare certified pairs (configuration route) with direct difference counting."""
    config = from_points(points)
    certified = config.certified_count()
    distinct = distinct_difference_count(points)
    return CrossCheckReport(
        points=tuple(points),
        certified_count=certified,
        distinct_differences=distinct,
        total_pairs=comb(len(points), 2),
    )
