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

The premises of ``minimal_implications`` are independent, so a span member
is a combination of them in exactly one way.  A subset S minimally implies
a product iff the product lies in S's span with every coefficient over S
nonzero, that is iff the product's coefficients over the whole family are
nonzero exactly on S.  So one solve over the whole family, one echelon of
the premises and one reduction per candidate, finds every subset at once.

Produced equalities are stored in one orientation; a content and its negation
are treated as the same equality throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

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
    config: KConfiguration, premises: Sequence[DifferenceEquality]
) -> list[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """Each ``_candidate_products`` candidate of the premises' span, in that
    order, with its coefficients: candidate = sum c_i * premise_i exactly.

    ``config`` is the configuration spanned by the premises, which must be
    linearly independent, so the coefficients are unique.  Rows
    ``[premise_i | e_i]`` are brought to echelon form once on the content
    columns; a candidate ``[target | 0]`` reduced against them by
    ``exactlin._eliminate`` vanishes on the content columns and leaves
    ``-den * c`` in the block.
    """
    k = config.k
    t = len(premises)
    mat = [list(p.content) + [int(j == i) for j in range(t)] for i, p in enumerate(premises)]
    exactlin.echelon(mat, k)
    pivots = [exactlin._leading(r) for r in mat]
    solved = []
    for cand in _candidate_products(config, sorted({v for p in premises for v in p.support})):
        w = list(cand) + [0] * t
        den = exactlin._eliminate(w, mat, pivots)
        solved.append((cand, tuple(Fraction(-y, den) for y in w[k:])))
    return solved


def minimal_implications(equalities: Sequence[DifferenceEquality]) -> list[MinimalImplication]:
    """All subsets of the family that minimally imply a new difference equality.

    One implication per qualifying subset: the first produced equality in a
    deterministic candidate order (support-lexicographic, then sign pattern).
    Results are ordered lexicographically by premise index set.  The
    equalities must be linearly independent, and at most ``MAX_PREMISES``:
    ValueError otherwise.

    A product's nonzero coefficients over the family name the one subset
    that minimally implies it (see the module docstring).  The candidate
    order does not depend on the variables it ranges over, so the first
    candidate with a given coefficient support is that subset's first.
    A subset of one equality implies only that equality, which is no new
    one, so every subset found has at least two.
    """
    eqs = list(equalities)
    if len(eqs) > MAX_PREMISES:
        raise ValueError(f"at most {MAX_PREMISES} equalities supported, got {len(eqs)}")
    if not eqs:
        return []
    k = eqs[0].k
    if any(e.k != k for e in eqs):
        raise ValueError("mixed ambient dimensions")
    config = from_equalities(k, eqs)
    if config.rank != len(eqs):
        raise ValueError("equalities are linearly dependent")
    first: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[Fraction, ...]]] = {}
    for cand, coeffs in _solve_coefficients(config, eqs):
        subset = tuple(i for i, c in enumerate(coeffs) if c)
        if len(subset) >= 2 and subset not in first:
            first[subset] = cand, tuple(coeffs[i] for i in subset)
    return [
        MinimalImplication(tuple(eqs[i] for i in subset), *first[subset]) for subset in sorted(first)
    ]


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

    product = canonical_sign(impl.product)
    implied = _solve_coefficients(config, impl.premises)
    second = next((cand for cand, coeffs in implied if cand != product and all(coeffs)), None)
    return StructureReport(
        precondition_2good=precondition,
        variable_counts_ok=case_two or case_four,
        variable_count=n_vars,
        appearance_profile=profile,
        signs_pm1_ok=signs_ok,
        unique_product_ok=second is None,
        second_product=second,
    )


def _has_2t_plus_1_variables(equalities: Sequence[DifferenceEquality]) -> bool:
    """The count of ``is_2_full`` without its independence proof: whether
    t equalities span exactly 2t + 1 variables.  For a family already known
    independent, such as any subfamily of an independent family."""
    return len({v for e in equalities for v in e.support}) == 2 * len(equalities) + 1


def is_2_full(equalities: Sequence[DifferenceEquality]) -> bool:
    """True iff t independent equalities span exactly 2t + 1 variables.

    Independence is proved by ``exactlin.reduce`` (ValueError on an empty
    or dependent family), then ``_has_2t_plus_1_variables`` counts.
    """
    eqs = list(equalities)
    if not eqs:
        raise ValueError("empty collection")
    if exactlin.reduce([e.content for e in eqs], eqs[0].k).rank != len(eqs):
        raise ValueError("equalities are linearly dependent")
    return _has_2t_plus_1_variables(eqs)


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
