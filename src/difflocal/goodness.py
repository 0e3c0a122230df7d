"""Classify configurations: validity, collinearity, c-lightness, stars.

A configuration is *valid* when it implies no equation x_i = x_j,
*collinearity-free* when its span contains no nonzero vector supported on
exactly three variables, and *c-light* (for rational 1 < c <= 2) when every
collection of t >= 1 independent implied equations spans at least c*t + 1
variables.  A configuration that is all three is *c-good*.

Collinearity and c-lightness are one ordered section search with a need
per size: the first variable set S, by size and then lexicographically,
whose section t = dim{v in span : supp(v) in S} reaches the need at |S|.
Collinearity is need 1 on 3 variables of a valid configuration; heaviness
at c = p/q, |S| < c*t + 1, is t >= (|S| - 1)*q // p + 1, a sparsity
condition in the sense of Lee and Streinu that grows with |S|.  The first
heaviness witness is support-closed: the closure of a witness is a witness
found no later.  Validity and stars are read off ``config.residues``.

A *star of size 2p* is p pairwise-disjoint index pairs whose sums are all
forced equal by the span; single sum-equal pairs (p = 1) do not count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from math import comb

from . import exactlin
from .configuration import KConfiguration, distinct_difference_count, from_equalities, from_points

PAPER_C = Fraction(2) - Fraction(1, 2**29)


@dataclass(frozen=True)
class HeavinessWitness:
    """A variable set S and t independent implied equations with |S| < c*t + 1."""

    variables: tuple[int, ...]
    t: int
    section_basis: exactlin.ExactBasis


@dataclass(frozen=True)
class StarWitness:
    """Disjoint index pairs whose pairwise sum-equalities lie in the span."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)


@dataclass(frozen=True)
class GoodnessReport:
    """Verdicts for one configuration at one value of c (checks short-circuit)."""

    c: Fraction
    valid: bool
    collinearity_free: Optional[bool]
    c_light: Optional[bool]
    equality_witness: Optional[tuple[int, int]] = None
    collinearity_witness: Optional[tuple[int, ...]] = None
    heaviness_witness: Optional[HeavinessWitness] = None

    @property
    def c_good(self) -> bool:
        return bool(self.valid) and bool(self.collinearity_free) and bool(self.c_light)


def is_valid(config: KConfiguration) -> tuple[bool, Optional[tuple[int, int]]]:
    """False, with the first witness pair (i, j), iff some e_i - e_j is
    implied, that is iff rows i and j of ``config.residues`` are equal."""
    rows = config.residues
    for i, j in itertools.combinations(range(config.k), 2):
        if rows[i] == rows[j]:
            return False, (i + 1, j + 1)
    return True, None


def parse_c(c: Fraction | int | str | float) -> Fraction:
    """The threshold c in (1, 2] from a Fraction, an int, an exact
    decimal/fraction string, a float (read as its decimal string), or the
    word "paper"; ValueError otherwise, quoting the input."""
    if isinstance(c, float):
        c = str(c)
    if isinstance(c, str) and c.strip().lower() == "paper":
        return PAPER_C
    try:
        # a loose float look first: Fraction would build 10**e for any exponent e
        if isinstance(c, str) and "/" not in c and not 0.5 < float(c) < 4:
            raise ValueError
        value = Fraction(c)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or not 1 < value <= 2:
        raise ValueError(f"c must be a rational in (1, 2] or 'paper', got {str(c)!r}")
    return value


def _heaviness_sweep(config: KConfiguration, needs: Sequence[tuple[int, int]]) -> Optional[HeavinessWitness]:
    """The first variable set S, by the sizes of ``needs`` and then
    lexicographically, whose section has t >= the need at |S|.

    The (size, need) pairs have needs that never decrease, so the search
    stops at the first need above the rank; t is the rank minus the rank of
    the basis columns outside S.
    """
    k, r = config.k, config.rank
    for size, need in needs:
        if need > r:
            break
        for subset in itertools.combinations(range(1, k + 1), size):
            outside = [j for j in range(k) if (j + 1) not in subset]
            t = r - exactlin.rank_of_columns(config.basis, outside)
            if t >= need:
                return HeavinessWitness(subset, t, exactlin.section_dim(config.basis, subset)[1])
    return None


def _heavy_needs(c: Fraction, sizes: range) -> list[tuple[int, int]]:
    """(|S|, need) pairs of the heaviness test at c = p/q: t >= (|S| - 1)*q // p + 1."""
    p, q = c.numerator, c.denominator
    return [(size, (size - 1) * q // p + 1) for size in sizes]


def is_collinearity_free(config: KConfiguration) -> tuple[bool, Optional[tuple[int, ...]]]:
    """False, with a support-3 span member, iff some 3-variable equation is
    implied: the search over 3-sets with need 1 (see ``is_c_good``).
    Raises ValueError on an invalid configuration."""
    if not is_valid(config)[0]:
        raise ValueError("is_collinearity_free needs a valid configuration")
    witness = _heaviness_sweep(config, [(3, 1)])
    return witness is None, None if witness is None else witness.section_basis.rows[0]


def is_c_good(config: KConfiguration, c: Fraction | int | str | float) -> GoodnessReport:
    """Aggregate verdict; checks run in the order valid, collinearity-free, c-light.

    After ``is_valid``, one search covers the 3-sets with need 1, then sets
    from size 6 with the heaviness needs at c.  On a valid configuration a
    3-set section has t <= 1 and a full-support generator, because a nonzero
    zero-sum vector on two variables is an implied x_i = x_j (t = 2 is the
    whole zero-sum space on S).  So a 3-variable hit's one row is the
    collinearity witness.

    Sizes 4 and 5 are skipped.  Once validity and collinearity-freeness
    hold, every section has t <= |S| - 3: a section of dimension |S| - 2 or
    more meets the 2-dimensional space of zero-sum vectors on any three
    variables of S (both lie in the (|S| - 1)-dimensional zero-sum space on
    S), and a nonzero span vector on at most three variables is an implied
    x_i = x_j or a support-3 equation.  A witness at c <= 2 needs
    |S| < c*t + 1 <= 2t + 1, that is t >= (|S| - 1) // 2 + 1, which is 2 at
    |S| = 4 and 3 at |S| = 5: above |S| - 3 at both, so no set of fewer than
    6 variables holds one.
    """
    c = parse_c(c)
    valid, eq_witness = is_valid(config)
    if not valid:
        return GoodnessReport(c, False, None, None, equality_witness=eq_witness)
    witness = _heaviness_sweep(config, [(3, 1)] + _heavy_needs(c, range(6, config.k + 1)))
    if witness is None:
        return GoodnessReport(c, True, True, True)
    if len(witness.variables) == 3:
        return GoodnessReport(c, True, False, None, collinearity_witness=witness.section_basis.rows[0])
    return GoodnessReport(c, True, True, False, heaviness_witness=witness)


def points_c_good(points: Sequence, c: Fraction | int | str | float) -> bool:
    """Whether the configuration formed by the points is c-good.

    Fast path: a tuple whose C(k,2) differences are pairwise distinct forms
    the rank-0 configuration (every difference-equality content it satisfies
    would repeat a positive difference), which is c-good outright.
    """
    if distinct_difference_count(points) == comb(len(points), 2):
        return True
    return is_c_good(from_points(points), c).c_good


def largest_star(config: KConfiguration) -> tuple[int, Optional[StarWitness]]:
    """Size 2p of the largest implied star, with disjoint witness pairs.

    Index pairs are grouped into sum-equality classes ({a,b} ~ {c,d} iff
    e_a + e_b - e_c - e_d lies in the span: iff rows a + b and c + d of
    ``config.residues`` are equal).  In a valid configuration every class is
    pairwise disjoint, since {a,b} ~ {a,c} would put e_b - e_c in the span,
    so the largest class (the first in index order on ties) is the star.  A
    single sum-equal pair is no star: anything below two pairs reports size
    0.  Raises ValueError on an invalid configuration.
    """
    if not is_valid(config)[0]:
        raise ValueError("largest_star needs a valid configuration")
    rows = config.residues
    classes: dict[tuple, list[tuple[int, int]]] = {}
    for a, b in itertools.combinations(range(config.k), 2):
        classes.setdefault(tuple([x + y for x, y in zip(rows[a], rows[b])]), []).append((a + 1, b + 1))
    best_pairs = max(classes.values(), key=len, default=[])
    if len(best_pairs) < 2:
        return 0, None
    return 2 * len(best_pairs), StarWitness(tuple(best_pairs))


def star_configuration(k: int, pairs: Sequence[tuple[int, int]]) -> KConfiguration:
    """The configuration {x_{i1}+x_{i2} = x_{i3}+x_{i4} = ...} on k variables."""
    if len(pairs) < 2:
        raise ValueError("a star needs at least two pairs")
    seen: set[int] = set()
    for a, b in pairs:
        if a == b or not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"bad star pair ({a}, {b})")
        if a in seen or b in seen:
            raise ValueError("star pairs must be pairwise disjoint")
        seen.update((a, b))
    a0, b0 = pairs[0]
    contents = []
    for a, b in pairs[1:]:
        vec = [0] * k
        vec[a0 - 1] += 1
        vec[b0 - 1] += 1
        vec[a - 1] -= 1
        vec[b - 1] -= 1
        contents.append(vec)
    return from_equalities(k, contents)
