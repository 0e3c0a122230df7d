"""Difference equalities and the configuration formed by k numbers.

A difference equality is a nontrivial relation x_{i1} - x_{i2} = x_{i3} - x_{i4}
among variables x_1..x_k; its content is the coefficient vector of the
equivalent equation "expression = 0" (repeated indices combined).  The
configuration of a k-tuple of distinct numbers is the rational span of the
contents of every difference equality the tuple satisfies.  Configurations are
stored only as canonical spans, so two configurations are equal iff they
produce equivalent systems.

A configuration certifies an index pair (i, j), i > j, when it forces the
difference |x_i - x_j| to repeat a difference that occurs earlier in the scan
order (2,1), (3,1), (3,2), (4,1), ...; for a tuple of distinct numbers the
number of distinct differences is C(k,2) minus the number of certified pairs.

Certification, validity, stars and implied +-1 equalities all ask whether
two vectors are congruent modulo the span.  ``KConfiguration.residues``
answers them from one table: the residue of each unit vector e_i, over one
common denominator, read off the canonical basis with no elimination and
kept on the free (non-pivot) columns, where alone it can be nonzero.
Residue is linear, so v and w are congruent iff
sum v_i * row_i == sum w_i * row_i; certified pairs are read off it, and
``pair_sum_classes`` groups index pairs by row sum, for the stars of
``goodness`` and the candidate products of ``implications``.

All variable indices in this module's public API are 1-based (x_1..x_k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Sequence

from . import exactlin
from .exactlin import ExactBasis

MAX_VARIABLES = 64

CertifiedPair = tuple  # (i, j) with 1 <= j < i <= k


@dataclass(frozen=True)
class DifferenceEquality:
    """The equation x_{i1} - x_{i2} = x_{i3} - x_{i4} with its content vector.

    Up to rearrangement an equation is identified by its content up to sign
    (``canonical_content``); the stored index tuple records one way of writing
    it.  Scaled versions (e.g. 2*x1 - 2*x2 = 0 vs x1 - x2 = 0) are distinct
    equalities.
    """

    k: int
    indices: tuple[int, int, int, int]
    content: tuple[int, ...]

    @classmethod
    def from_indices(cls, k: int, i1: int, i2: int, i3: int, i4: int) -> "DifferenceEquality":
        for i in (i1, i2, i3, i4):
            if not 1 <= i <= k:
                raise ValueError(f"index {i} outside 1..{k}")
        vec = [0] * k
        vec[i1 - 1] += 1
        vec[i2 - 1] -= 1
        vec[i3 - 1] -= 1
        vec[i4 - 1] += 1
        if not any(vec):
            raise ValueError("trivial equation (content is the zero vector)")
        return cls(k, (i1, i2, i3, i4), tuple(vec))

    @classmethod
    def from_content(cls, k: int, content: Sequence[int]) -> "DifferenceEquality":
        """Recover a difference equality from a content vector.

        Accepted shapes (up to sign): four entries +-1, a 3-variable pattern
        (1,-2,1) or (2,-1,-1), or a 2-variable pattern (1,-1) or (2,-2).
        """
        if len(content) != k:
            raise ValueError(f"dimension mismatch: expected {k}, got {len(content)}")
        vec = tuple(content)
        if not is_difference_content(vec):
            raise ValueError(f"not a difference-equality content: {vec}")
        pos = [j + 1 for j, x in enumerate(vec) if x > 0 for _ in range(x)]
        neg = [j + 1 for j, x in enumerate(vec) if x < 0 for _ in range(-x)]
        if len(pos) == 1:
            # e_a - e_b: written as x_a - x_b = x_a - x_a
            pos = [pos[0], pos[0]]
            neg = [neg[0], pos[0]]
        i1, i4 = pos
        i2, i3 = neg
        return cls(k, (i1, i2, i3, i4), vec)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, x in enumerate(self.content) if x)

    @property
    def canonical_content(self) -> tuple[int, ...]:
        """Content with its first nonzero entry made positive."""
        return canonical_sign(self.content)

    def same_equality(self, other: "DifferenceEquality") -> bool:
        return self.k == other.k and self.canonical_content == other.canonical_content

    def __str__(self) -> str:
        return render_content(self.content) + " = 0"


def canonical_sign(vec: Sequence[int]) -> tuple[int, ...]:
    """``vec`` as a tuple, negated if needed so its first nonzero entry is positive."""
    for x in vec:
        if x:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def is_difference_content(vec: Sequence[int]) -> bool:
    """True iff ``vec`` is the content of some nontrivial difference equality."""
    if sum(vec) != 0:
        return False
    nonzero = sorted(abs(x) for x in vec if x)
    if not nonzero:
        return False
    return nonzero in ([1, 1, 1, 1], [1, 1, 2], [2, 2], [1, 1])


def render_content(vec: Sequence[int], names: Sequence[str] | None = None) -> str:
    """Render a coefficient vector as e.g. ``x1 - 2*x3 + x5``."""
    parts: list[str] = []
    for j, x in enumerate(vec):
        if not x:
            continue
        name = names[j] if names is not None else f"x{j + 1}"
        mag = abs(x)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if x > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if x > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class KConfiguration:
    """A canonicalized span of difference-equality contents on k variables."""

    k: int
    basis: ExactBasis

    @property
    def rank(self) -> int:
        return self.basis.rank

    def implies(self, eq: Sequence[int]) -> bool:
        """True iff the equation with content ``eq`` lies in the span."""
        return exactlin.member(self.basis, eq)

    @cached_property
    def residues(self) -> tuple[tuple[int, ...], ...]:
        """Row i - 1 is the residue of e_i modulo the span, on the free
        (non-pivot) columns, over one denominator den = lcm of the pivot
        entries: den*e_j at a free column j, and -(den / r_p)*r at the
        pivot p of a basis row r.  Every residue is zero at a pivot."""
        basis = self.basis
        pivots = basis.pivots
        free = sorted(set(range(self.k)).difference(pivots))
        den = lcm(*(r[p] for r, p in zip(basis.rows, pivots)))
        rows = [tuple([den * (j == i) for j in free]) for i in range(self.k)]
        for r, p in zip(basis.rows, pivots):
            scale = -(den // r[p])
            rows[p] = tuple([scale * r[j] for j in free])
        return tuple(rows)

    def pair_sum_classes(self, variables: Iterable[int] | None = None) -> list[list[tuple[int, int]]]:
        """The index pairs (a, b), a < b, of ``variables`` (default 1..k),
        grouped by the sum of residue rows a and b: {a,b} and {c,d} share a
        class iff e_a + e_b - e_c - e_d lies in the span.  Classes come in
        the order of their first pair, and pairs in ``combinations`` order."""
        rows = self.residues
        indices = range(1, self.k + 1) if variables is None else sorted(variables)
        classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for a, b in itertools.combinations(indices, 2):
            classes.setdefault(tuple([x + y for x, y in zip(rows[a - 1], rows[b - 1])]), []).append((a, b))
        return list(classes.values())

    def certifies(self, pair: CertifiedPair) -> bool:
        """True iff the configuration certifies the pair (i, j), i > j.

        A witness is an ordered pair (i', j'), i' != j', with either both
        i', j' < i, or j' = i and i' < j, such that the span contains
        e_i - e_j - e_{i'} + e_{j'}.  Witnesses with i' = j' are excluded:
        they would assert x_i = x_j.
        """
        i, j = pair
        if not (1 <= j < i <= self.k):
            raise ValueError(f"invalid pair {pair}: need 1 <= j < i <= {self.k}")
        return (i, j) in self.certified_pairs()

    def certified_pairs(self) -> list[CertifiedPair]:
        """All certified pairs (i, j), i > j, in scan order.

        One pass over ``residues`` keeps the residues of e_{i'} - e_{j'} for
        the ordered pairs below i, and within row i those of e_{i'} - e_i for
        i' < j: the witnesses of ``certifies``.
        """
        rows = self.residues
        # tuple([...]) sizes each tuple once; a tuple built from an iterator
        # is resized as it grows, which fragments the heap (the analyze
        # benchmark's peak RSS rose 7%)
        below: set[tuple[int, ...]] = set()
        out = []
        for i in range(1, self.k):
            diffs = [tuple([a - b for a, b in zip(rows[i], rj)]) for rj in rows[:i]]
            into_i: set[tuple[int, ...]] = set()
            for j, diff in enumerate(diffs):
                if diff in below or diff in into_i:
                    out.append((i + 1, j + 1))
                into_i.add(tuple([-x for x in diff]))
            below.update(diffs, into_i)
        return out

    def certified_count(self) -> int:
        return len(self.certified_pairs())

    def permute(self, sigma: Sequence[int]) -> "KConfiguration":
        """Rename variable i to sigma(i) (sigma given as a 1-based image list)."""
        k = self.k
        if sorted(sigma) != list(range(1, k + 1)):
            raise ValueError("sigma is not a bijection on 1..k")
        new_rows = []
        for row in self.basis.rows:
            vec = [0] * k
            for i in range(k):
                vec[sigma[i] - 1] = row[i]
            new_rows.append(vec)
        return KConfiguration(k, exactlin.reduce(new_rows, k))


def from_equalities(k: int, equalities: Iterable[DifferenceEquality | Sequence[int]]) -> KConfiguration:
    """Configuration spanned by explicit difference equalities (or contents)."""
    contents = []
    for eq in equalities:
        vec = tuple(eq.content if isinstance(eq, DifferenceEquality) else eq)
        if len(vec) != k:
            raise ValueError(f"dimension mismatch: expected {k}, got {len(vec)}")
        if sum(vec) != 0:
            raise ValueError(f"not a zero-sum content: {vec}")
        contents.append(vec)
    return KConfiguration(k, exactlin.reduce(contents, k))


def from_points(points: Sequence[int | Fraction]) -> KConfiguration:
    """The configuration formed by a tuple of distinct numbers.

    Every satisfied difference equality a_{i1} - a_{i2} = a_{i3} - a_{i4}
    amounts to two (multiset) index pairs with equal sums, so the span is
    generated by one anchor relation per group of equal pair-sums; this
    produces the same span as enumerating all O(k^4) index tuples.
    """
    pts = list(points)
    k = len(pts)
    if not 2 <= k <= MAX_VARIABLES:
        raise ValueError(f"need between 2 and {MAX_VARIABLES} points, got {k}")
    if len(set(pts)) != k:
        raise ValueError("points must be pairwise distinct")
    groups: dict[int | Fraction, list[tuple[int, int]]] = {}
    for p in range(k):
        for q in range(p, k):
            groups.setdefault(pts[p] + pts[q], []).append((p, q))
    contents = []
    for pairs in groups.values():
        if len(pairs) < 2:
            continue
        a, b = pairs[0]
        for c, d in pairs[1:]:
            vec = [0] * k
            vec[a] += 1
            vec[b] += 1
            vec[c] -= 1
            vec[d] -= 1
            contents.append(vec)
    return KConfiguration(k, exactlin.reduce(contents, k))


def distinct_difference_count(points: Sequence[int | Fraction]) -> int:
    """Number of distinct values |a_i - a_j| over all index pairs."""
    return len({abs(a - b) for a, b in itertools.combinations(points, 2)})


@lru_cache(maxsize=MAX_VARIABLES)
def _index_pairs(k: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    return tuple(enumerate(itertools.combinations(range(k), 2)))


def difference_pattern(points: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Label each index pair (i, j), i < j, of an increasing tuple, in
    ``combinations`` order, by the position of the first pair with the same
    difference a_j - a_i.  Every difference equality among increasing
    numbers equates two such differences, so tuples with one pattern share
    ``from_points(...).basis``; their distinct-difference count is the
    number of distinct labels."""
    first: dict[int | Fraction, int] = {}
    return tuple([first.setdefault(points[j] - points[i], n) for n, (i, j) in _index_pairs(len(points))])
