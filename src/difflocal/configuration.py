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
sum v_i * row_i == sum w_i * row_i.  ``KConfiguration.residue_keys`` packs
each row into one exact int, its digits in base B = 4m + 1 for m the
largest |entry| of the table: a signed sum of at most four rows has digits
below B in size, so its key is 0 iff the sum is 0.  Certified pairs are read
off the keys in one pass: (i, j) is certified iff |key_i - key_j| occurred
in an earlier row, or key_i - key_j is the negative of key_i - key_{j'} for
some j' < j in its own row.  That is the witness definition itself, so the
pass is exact on invalid spans too, where equal keys make a bare set of
|differences| certify pairs that have no witness.  ``pair_sum_classes``
groups index pairs by key sum, for the stars of ``goodness`` and the
candidate products of ``implications``.

Every content built from index pairs, e_a + e_b - e_c - e_d with repeated
indices added up, comes from one 0-based helper, ``_sum_content``: those of
``DifferenceEquality.from_indices`` and ``from_points`` here, of the stars
of ``goodness``, of the scan's rows in ``scan``, of the lemma suite's
equalities in ``lemmas``, and of the implied products of ``implications``.

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


def _sum_content(k: int, plus: Sequence[int], minus: Sequence[int]) -> list[int]:
    """e_a + e_b - e_c - e_d on k variables, for 0-based plus = (a, b) and
    minus = (c, d); repeated indices add up, so (a, c), (b, b) gives the
    progression content e_a - 2e_b + e_c (see the module docstring)."""
    vec = [0] * k
    a, b = plus
    c, d = minus
    vec[a] += 1
    vec[b] += 1
    vec[c] -= 1
    vec[d] -= 1
    return vec


@dataclass(frozen=True)
class DifferenceEquality:
    """A difference equality x_{i1} - x_{i2} = x_{i3} - x_{i4} on k
    variables, stored as its content vector alone.

    The ways of writing one equation share its content, so they compare
    equal; ``same_equality`` also identifies contents up to sign
    (``canonical_content``).  Scaled versions (e.g. 2*x1 - 2*x2 = 0 vs
    x1 - x2 = 0) are distinct equalities.
    """

    k: int
    content: tuple[int, ...]

    @classmethod
    def from_indices(cls, k: int, i1: int, i2: int, i3: int, i4: int) -> "DifferenceEquality":
        """The equality x_{i1} - x_{i2} = x_{i3} - x_{i4}, content
        e_{i1} + e_{i4} - e_{i2} - e_{i3} (``_sum_content``)."""
        for i in (i1, i2, i3, i4):
            if not 1 <= i <= k:
                raise ValueError(f"index {i} outside 1..{k}")
        vec = _sum_content(k, (i1 - 1, i4 - 1), (i2 - 1, i3 - 1))
        if not any(vec):
            raise ValueError("trivial equation (content is the zero vector)")
        return cls(k, tuple(vec))

    @classmethod
    def from_content(cls, k: int, content: Sequence[int]) -> "DifferenceEquality":
        """The difference equality with content ``content``; ValueError
        unless it has k entries of an accepted shape (up to sign): four
        entries +-1, a 3-variable pattern (1,-2,1) or (2,-1,-1), or a
        2-variable pattern (1,-1) or (2,-2) (``is_difference_content``).
        """
        if len(content) != k:
            raise ValueError(f"dimension mismatch: expected {k}, got {len(content)}")
        vec = tuple(content)
        if not is_difference_content(vec):
            raise ValueError(f"not a difference-equality content: {vec}")
        return cls(k, vec)

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


def render_content(vec: Sequence[int]) -> str:
    """Render a coefficient vector as e.g. ``x1 - 2*x3 + x5``."""
    parts: list[str] = []
    for j, x in enumerate(vec):
        if not x:
            continue
        name = f"x{j + 1}"
        mag = abs(x)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if x > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if x > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class KConfiguration:
    """A canonicalized span of difference-equality contents, built from
    its basis alone: k is the basis's ``ambient_dim``."""

    basis: ExactBasis

    @property
    def k(self) -> int:
        return self.basis.ambient_dim

    @property
    def rank(self) -> int:
        return self.basis.rank

    def implies(self, eq: Sequence[int]) -> bool:
        """True iff the equation with content ``eq`` lies in the span."""
        return exactlin.member(self.basis, eq)

    @cached_property
    def residues(self) -> tuple[tuple[int, ...], ...]:
        """Row i - 1 is the residue of e_i modulo the span, on the free
        (non-pivot) columns, over den = lcm of the pivot entries: den*e_j
        at a free column j, and -(den / r_p)*r at the pivot p of a basis
        row r.  Every residue is zero at a pivot."""
        basis_rows, pivots = self.basis.rows, self.basis.pivots
        den = lcm(*[r[p] for r, p in zip(basis_rows, pivots)])
        free = [j for j in range(self.k) if j not in pivots]
        width = len(free)
        rows: list[tuple[int, ...]] = [()] * self.k
        for n, j in enumerate(free):
            row = [0] * width
            row[n] = den
            rows[j] = tuple(row)
        for r, p in zip(basis_rows, pivots):
            scale = den // r[p]
            rows[p] = tuple([-scale * r[j] for j in free])
        return tuple(rows)

    @cached_property
    def residue_keys(self) -> tuple[int, ...]:
        """Key i - 1 is row i of ``residues`` read as base-B digits,
        sum_n row[n] * B**n with B = 4m + 1 and m the largest |entry| of
        the table.  A signed sum of at most four rows has digits of size at
        most 4m < B, which no higher digit can cancel, so its key is 0 iff
        the sum is 0: keys add and compare as the rows do, for up to four
        rows."""
        rows = self.residues
        base = 4 * max(map(abs, itertools.chain.from_iterable(rows)), default=0) + 1
        keys = []
        for row in rows:
            key = 0
            for x in reversed(row):  # Horner's rule, highest digit first
                key = key * base + x
            keys.append(key)
        return tuple(keys)

    def pair_sum_classes(self, variables: Iterable[int] | None = None) -> list[list[tuple[int, int]]]:
        """The index pairs (a, b), a < b, of ``variables`` (default 1..k),
        grouped by the sum of residue keys a and b: {a,b} and {c,d} share a
        class iff e_a + e_b - e_c - e_d lies in the span.  Classes come in
        the order of their first pair, and pairs in ``combinations`` order."""
        keys = self.residue_keys
        indices = range(1, self.k + 1) if variables is None else sorted(variables)
        classes: dict[int, list[tuple[int, int]]] = {}
        for a, b in itertools.combinations(indices, 2):
            classes.setdefault(keys[a - 1] + keys[b - 1], []).append((a, b))
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

        The witnesses of ``certifies``, read off ``residue_keys`` in one
        pass: with d = key_i - key_j, the pair is certified iff |d| is
        |key_a - key_b| for some pair b < a < i of an earlier row (both
        orientations of (i', j') below i), or -d is key_i - key_{j'} for
        some j' < j in row i (the witness (j', i): key_{j'} - key_i = d).
        Within a row only the reversed orientation counts: an equal d
        there means key_j = key_{j'}, no witness, which a bare set of
        |differences| would take for one.  On a valid span the keys are
        distinct and no d repeats within a row, so the two agree there.
        """
        keys = self.residue_keys
        earlier: set[int] = set()
        out = []
        for i in range(1, self.k):
            key_i = keys[i]
            row: set[int] = set()
            for j in range(i):
                d = key_i - keys[j]
                if abs(d) in earlier or -d in row:
                    out.append((i + 1, j + 1))
                row.add(d)
            earlier.update(map(abs, row))
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
        return KConfiguration(exactlin.reduce(new_rows, k))


def from_equalities(k: int, equalities: Iterable[DifferenceEquality | Sequence[int]]) -> KConfiguration:
    """Configuration spanned by explicit difference equalities (or contents)."""
    contents = []
    for eq in equalities:
        vec = tuple(eq.content if isinstance(eq, DifferenceEquality) else eq)
        if sum(vec) != 0:
            raise ValueError(f"not a zero-sum content: {vec}")
        contents.append(vec)
    return KConfiguration(exactlin.reduce(contents, k))


def from_points(points: Sequence[int | Fraction]) -> KConfiguration:
    """The configuration formed by a tuple of distinct numbers.

    Every satisfied difference equality a_{i1} - a_{i2} = a_{i3} - a_{i4}
    amounts to two (multiset) index pairs with equal sums, so the span is
    generated by the relations of each group of equal pair-sums to its
    first pair (a, b): e_a + e_b - e_c - e_d for each later pair (c, d),
    from ``_sum_content``.  This produces the same span as enumerating all
    O(k^4) index tuples.
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
    contents = [_sum_content(k, pairs[0], pair) for pairs in groups.values() for pair in pairs[1:]]
    return KConfiguration(exactlin.reduce(contents, k))


def distinct_difference_count(points: Sequence[int | Fraction]) -> int:
    """Number of distinct values |a_i - a_j| over all index pairs."""
    return len({abs(a - b) for a, b in itertools.combinations(points, 2)})


@lru_cache(maxsize=MAX_VARIABLES)
def colex_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The index pairs (i, j), 0 <= i < j < k, in colex order: (0,1), (0,2),
    (1,2), (0,3), ...  The pairs among the first m indices come first, so
    the order extends one index at a time."""
    return tuple([(i, j) for j in range(k) for i in range(j)])


def difference_pattern(points: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Label each index pair (i, j), i < j, of an increasing tuple, in
    ``colex_pairs`` order, by the position of the first pair with the same
    difference a_j - a_i.  Every difference equality among increasing
    numbers equates two such differences, so tuples with one pattern share
    ``from_points(...).basis``; their distinct-difference count is the
    number of distinct labels.  A tuple's pattern starts with the pattern
    of each of its prefixes, which lets the scan build it point by point."""
    first: dict[int | Fraction, int] = {}
    return tuple([first.setdefault(points[j] - points[i], n) for n, (i, j) in enumerate(colex_pairs(len(points)))])


def first_progression(points: Sequence[int | Fraction]) -> tuple[int, int, int] | None:
    """The lexicographically first 1-based index triple (i, j, l) of an
    increasing tuple with a_j - a_i = a_l - a_j, or None if the tuple holds
    no 3-term progression.  Each pair i < j names at most one l, the index
    of 2*a_j - a_i, so one dict lookup per pair finds it."""
    index = {a: n for n, a in enumerate(points, 1)}
    for i, j in itertools.combinations(range(len(points)), 2):
        l = index.get(2 * points[j] - points[i])
        if l is not None:
            return i + 1, j + 1, l
    return None
