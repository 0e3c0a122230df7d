"""Minimal implications among explicit difference equalities.

A set of independent difference equalities *minimally implies* a further
difference equality when that equality is a linear combination of the set
with every coefficient nonzero.  For such implications whose equations are
jointly 2-good, strong structure holds: the combination coefficients are all
+-1, the variables split as 2t+2 each appearing twice or 2t+1 with a single
variable appearing four times, and the produced equality is unique.  This
module enumerates minimal implications, checks those structural clauses, and
classifies how two equalities through a common variable align (equal sums vs
equal differences).

A produced equality has four +-1 entries, +1 on {a,b} and -1 on {c,d}.
Residue modulo the premises' span is linear, so it lies in the span iff the
residue rows satisfy r_a + r_b = r_c + r_d: the candidates are read off the
pair-sum classes of the premises' configuration, with no membership test.

Produced equalities are stored in one orientation; a content and its negation
are treated as the same equality throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import exactlin
from .configuration import (
    DifferenceEquality,
    KConfiguration,
    _sum_content,
    canonical_sign,
    from_equalities,
    render_content,
)
from .goodness import is_c_good

MAX_PREMISES = 16


@dataclass(frozen=True)
class MinimalImplication:
    """Independent premises, one produced difference equality, its coefficients."""

    premises: tuple[DifferenceEquality, ...]
    product: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.premises)

    def __str__(self) -> str:
        terms = ", ".join(str(p) for p in self.premises)
        return f"[{terms}] => {render_content(self.product)} = 0"


class Alignment(Enum):
    SUM_ALIGNED = "sum_aligned"
    DIFFERENCE_ALIGNED = "difference_aligned"
    NEITHER = "neither"


def _candidate_products(config: KConfiguration, variables: Sequence[int]) -> list[tuple[int, ...]]:
    """Span members with exactly four +-1 entries on ``variables``,
    canonically oriented, in support-lexicographic and then sign-pattern
    order.

    Residue is linear, so e_a + e_b - e_c - e_d lies in the span iff rows
    a + b and c + d of ``config.residues`` are equal: the candidates are the
    pairs of disjoint pairs in one ``pair_sum_classes`` class.  Pairs come
    in ``combinations`` order, so the first of two disjoint pairs holds the
    least index and takes the +1.  Two pairs that meet are no candidate (in
    an invalid configuration {a,b} ~ {a,c} is the implied x_b = x_c).
    Each candidate is built by ``_sum_content``.
    """
    k = config.k
    found = []
    for pairs in config.pair_sum_classes(variables):
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if not {a, b} & {c, d}:
                vec = _sum_content(k, (a - 1, b - 1), (c - 1, d - 1))
                found.append((sorted((a, b, c, d)), b, tuple(vec)))
    found.sort()
    return [vec for _, _, vec in found]


def _solve_coefficients(
    premises: Sequence[DifferenceEquality], target: Sequence[int]
) -> tuple[Fraction, ...]:
    """Solve target = sum c_i * premise_i exactly, for a target in the
    premises' span.

    The premises must be linearly independent, as they are for both callers
    of ``_implied_products``: ``minimal_implications`` skips dependent
    subsets, and ``check_structure`` receives the premises it produced.
    Every target is a ``_candidate_products`` candidate of their span.  Rows
    ``[premise_i | e_i]`` and ``[target | e_{t+1}]`` are eliminated on the
    content columns; the rank stays t, and the one kernel row
    ``(y_1..y_t, y)`` gives ``c_i = -y_i / y``.
    """
    k = premises[0].k
    t = len(premises)
    contents = [p.content for p in premises] + [target]
    mat = [list(vec) + [int(j == i) for j in range(t + 1)] for i, vec in enumerate(contents)]
    exactlin.echelon(mat, k)
    *ys, y = mat[t][k:]
    return tuple(Fraction(-yi, y) for yi in ys)


def _implied_products(
    config: KConfiguration, premises: Sequence[DifferenceEquality], exclude: set
) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """``(product, coefficients)`` for each product the premises minimally imply.

    ``config`` is spanned by the premises.  Candidates come in
    ``_candidate_products`` order; those whose canonical content is in
    ``exclude`` are skipped.
    """
    variables = sorted({v for p in premises for v in p.support})
    for cand in _candidate_products(config, variables):
        if canonical_sign(cand) in exclude:
            continue
        coeffs = _solve_coefficients(premises, cand)
        if all(c != 0 for c in coeffs):
            yield cand, coeffs


def minimal_implications(
    equalities: Sequence[DifferenceEquality], max_t: int
) -> list[MinimalImplication]:
    """All subsets of size <= max_t that minimally imply a new difference equality.

    One implication per qualifying subset: the first produced equality in a
    deterministic candidate order (support-lexicographic, then sign pattern).
    Results are ordered lexicographically by premise index set.
    """
    eqs = list(equalities)
    if len(eqs) > MAX_PREMISES:
        raise ValueError(f"at most {MAX_PREMISES} equalities supported, got {len(eqs)}")
    if max_t > len(eqs):
        raise ValueError(f"max_t={max_t} exceeds the number of equalities {len(eqs)}")
    if not eqs:
        return []
    k = eqs[0].k
    if any(e.k != k for e in eqs):
        raise ValueError("mixed ambient dimensions")
    results: list[tuple[tuple[int, ...], MinimalImplication]] = []
    for size in range(1, max_t + 1):
        for idx_subset in itertools.combinations(range(len(eqs)), size):
            subset = [eqs[i] for i in idx_subset]
            config = from_equalities(k, subset)
            if config.rank != size:
                continue  # dependent premises cannot minimally imply
            premise_keys = {e.canonical_content for e in subset}
            found = next(_implied_products(config, subset, premise_keys), None)
            if found is not None:
                results.append((idx_subset, MinimalImplication(tuple(subset), *found)))
    results.sort(key=lambda pair: pair[0])
    return [impl for _, impl in results]


@dataclass(frozen=True)
class StructureReport:
    """Clause-by-clause verdicts for one minimal implication."""

    precondition_2good: bool
    variable_counts_ok: bool
    variable_count: int
    appearance_profile: tuple[tuple[int, int], ...]  # (variable, appearances), quadruple first
    signs_pm1_ok: bool
    unique_product_ok: bool
    second_product: Optional[tuple[int, ...]] = None

    @property
    def all_clauses_pass(self) -> bool:
        return self.variable_counts_ok and self.signs_pm1_ok and self.unique_product_ok


def check_structure(impl: MinimalImplication) -> StructureReport:
    """Verify the structural clauses for a minimal implication.

    The 2-goodness of premises plus product is checked first and reported
    distinctly; the clauses are still evaluated so that a failure can be
    traced to the violated hypothesis.
    """
    k = impl.premises[0].k
    config = from_equalities(k, impl.premises)
    precondition = is_c_good(config, Fraction(2)).c_good

    equations = [p.content for p in impl.premises] + [impl.product]
    t = len(impl.premises)
    appearances: dict[int, int] = {}
    for eq in equations:
        for j, x in enumerate(eq):
            if x:
                appearances[j + 1] = appearances.get(j + 1, 0) + 1
    n_vars = len(appearances)
    counts = sorted(appearances.values())
    case_two = n_vars == 2 * t + 2 and counts == [2] * n_vars
    case_four = (
        n_vars == 2 * t + 1
        and counts == [2] * (n_vars - 1) + [4]
    )
    profile = tuple(sorted(appearances.items(), key=lambda kv: (-kv[1], kv[0])))

    signs_ok = all(abs(c) == 1 for c in impl.coefficients)

    exclude = {canonical_sign(impl.product)} | {p.canonical_content for p in impl.premises}
    implied = _implied_products(config, impl.premises, exclude)
    second = next((cand for cand, _ in implied), None)
    return StructureReport(
        precondition_2good=precondition,
        variable_counts_ok=case_two or case_four,
        variable_count=n_vars,
        appearance_profile=profile,
        signs_pm1_ok=signs_ok,
        unique_product_ok=second is None,
        second_product=second,
    )


def is_2_full(equalities: Sequence[DifferenceEquality]) -> bool:
    """True iff t independent equalities span exactly 2t + 1 variables."""
    eqs = list(equalities)
    if not eqs:
        raise ValueError("empty collection")
    k = eqs[0].k
    basis = exactlin.reduce([e.content for e in eqs], k)
    if basis.rank != len(eqs):
        raise ValueError("equalities are linearly dependent")
    variables = {v for e in eqs for v in e.support}
    return len(variables) == 2 * len(eqs) + 1


def classify_alignment(a: DifferenceEquality, b: DifferenceEquality, i: int) -> Alignment:
    """How two equalities through x_i align, after normalizing x_i to +1.

    They are difference-aligned when they share exactly one other variable and
    it carries the opposite sign to x_i in both (x_i - u = ... twice: three
    pairs with equal differences), sum-aligned when it carries the same sign
    as x_i in both (x_i + u = ... twice: three pairs with equal sums), and
    neither otherwise.
    """
    vecs = []
    for eq in (a, b):
        if not 1 <= i <= eq.k:
            raise ValueError(f"index {i} outside 1..{eq.k}")
        coeff = eq.content[i - 1]
        if coeff == 0:
            raise ValueError(f"x{i} does not appear in {eq}")
        if abs(coeff) != 1:
            raise ValueError(f"x{i} must carry a unit coefficient in {eq}")
        vecs.append(eq.content if coeff > 0 else tuple(-x for x in eq.content))
    va, vb = vecs
    shared = [
        j + 1
        for j in range(len(va))
        if j + 1 != i and va[j] and vb[j]
    ]
    if len(shared) != 1:
        return Alignment.NEITHER
    u = shared[0] - 1
    if va[u] == vb[u] == -1:
        return Alignment.DIFFERENCE_ALIGNED
    if va[u] == vb[u] == 1:
        return Alignment.SUM_ALIGNED
    return Alignment.NEITHER
