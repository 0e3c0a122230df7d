"""Difference sets and (k, l)-local-property verification by subset scanning.

The difference set of A holds the positive values |a - b| over distinct
a, b in A.  A satisfies the (k, l)-local property when every k-element subset
spans at least l distinct differences; the verifier finds the exact minimum
over all k-subsets by depth-first scan with pruning (the distinct-difference
count of a partial subset never decreases when elements are added, so a
branch that already matches the best known minimum is dead).

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


class BudgetExceededError(Exception):
    """The requested scan would enumerate more subsets than the budget allows."""


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


@dataclass(frozen=True)
class LocalPropertyVerdict:
    holds: bool
    min_differences: int
    witness_subset: Optional[tuple[int, ...]]
    ell: int
    k: int


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
    Raises BudgetExceededError when C(|A|, k) exceeds the subset budget, and
    ValueError when the budget is not positive.
    """
    pts = sorted(set(points))
    n = len(pts)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} elements, got {n}")
    limit = resolve_budget(budget)
    total = comb(n, k)
    if total > limit:
        raise BudgetExceededError(
            f"exhaustive scan infeasible: C({n},{k}) = {total} exceeds budget {limit}"
        )

    # a k-subset spans at most C(k, 2) differences, so the first one visited
    # sets the minimum
    best_count = comb(k, 2) + 1
    best_subset: Optional[tuple[int, ...]] = None
    chosen: list[int] = []
    diff_mult: dict[int, int] = {}

    def visit(start: int, distinct: int) -> None:
        nonlocal best_count, best_subset
        remaining = k - len(chosen)
        for value in pts[start : n - remaining + 1]:
            start += 1  # now the index after value
            # the candidate's differences to the chosen values are pairwise
            # distinct, and new unless diff_mult counts them already
            total = distinct
            for c in chosen:
                if not diff_mult.get(value - c):
                    total += 1
            if total >= best_count:
                continue
            if remaining == 1:
                best_count, best_subset = total, (*chosen, value)
            else:
                for c in chosen:
                    diff_mult[value - c] = diff_mult.get(value - c, 0) + 1
                chosen.append(value)
                visit(start, total)
                chosen.pop()
                for c in chosen:
                    diff_mult[value - c] -= 1
            if distinct >= best_count:
                return

    visit(0, 0)
    assert best_subset is not None
    return LocalPropertyVerdict(
        holds=best_count >= ell,
        min_differences=best_count,
        witness_subset=best_subset,
        ell=ell,
        k=k,
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
