"""Classify configurations: validity, collinearity, c-lightness, stars.

A configuration is *valid* when it implies no equation x_i = x_j,
*collinearity-free* when its span contains no nonzero vector supported on
exactly three variables, and *c-light* (for rational 1 < c <= 2) when every
collection of t >= 1 independent implied equations spans at least c*t + 1
variables.  A configuration that is all three is *c-good*.

Every check is read off ``config.residues``, whose row i is the residue of
e_i modulo the span.  The rows represent the quotient by the span, so for
every variable set S, rank(rows of S) = |S| - t(S), where t(S) is the
section dimension dim{v in span : supp(v) in S} (the dual of the basis
column matroid; Oxley, *Matroid Theory*, ch. 2).  Hence:

- valid iff no two rows are equal;
- collinearity-free, given valid, iff every three rows are independent;
- heavy at c = p/q iff some S has p*(|S| - rank) > q*(|S| - 1), that is
  |S| < c*t + 1, a sparsity condition in the sense of Lee and Streinu.

Heaviness is decided by a pruned depth-first search over the rows (see
``is_c_good``).  The witness of a heavy verdict is named only when it is
read, by the same search at sizes 6, 7, ... in turn, where only sets of
exactly that size are hits: the first witness by size and then
lexicographically.

A *star of size 2p* is p pairwise-disjoint index pairs whose sums are all
forced equal by the span; single sum-equal pairs (p = 1) do not count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from math import comb

from . import exactlin
from .configuration import KConfiguration, distinct_difference_count, from_equalities, from_points
from .verifier import BudgetExceededError

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


_REPORT_FIELDS = (
    "c",
    "valid",
    "collinearity_free",
    "c_light",
    "equality_witness",
    "collinearity_witness",
    "heaviness_witness",
)


@dataclass(frozen=True, eq=False, repr=False)
class GoodnessReport:
    """Verdicts for one configuration at one value of c (checks short-circuit).

    A heavy verdict names its witness when ``heaviness_witness`` is first
    read: ``_heaviness_sweep`` runs the search by size then, within the
    budget the verdict search left (``heavy`` holds the configuration and
    that budget).  Equality, hashing and repr read the witness, so two
    reports are equal exactly when their verdicts and witnesses are.
    """

    c: Fraction
    valid: bool
    collinearity_free: Optional[bool]
    c_light: Optional[bool]
    equality_witness: Optional[tuple[int, int]] = None
    collinearity_witness: Optional[tuple[int, ...]] = None
    heavy: Optional[tuple[KConfiguration, Optional[int]]] = None

    @cached_property
    def heaviness_witness(self) -> Optional[HeavinessWitness]:
        if self.heavy is None:
            return None
        config, budget = self.heavy
        return _heaviness_sweep(config, self.c, budget)

    @property
    def c_good(self) -> bool:
        return bool(self.valid) and bool(self.collinearity_free) and bool(self.c_light)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in _REPORT_FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GoodnessReport):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(_REPORT_FIELDS, self._values()))
        return f"GoodnessReport({body})"


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


def _collinearity_witness(config: KConfiguration) -> Optional[tuple[int, ...]]:
    """The generator of the first 3-set section, lexicographically, with
    t = 1: the first three dependent residue rows, of a valid configuration.

    Validity makes every two rows independent (a dependent pair is a
    zero-sum span vector on two variables, an implied x_i = x_j).  So rows
    a < b < c are dependent iff rows b and c, reduced against row a and
    made primitive with a positive leading entry, are equal.
    """
    rows = config.residues
    k = len(rows)
    for a in range(k - 2):
        row_a = rows[a]
        pivot_a = exactlin._leading(row_a)
        first: dict[tuple[int, ...], int] = {}
        found = None
        for b in range(a + 1, k):
            w = list(rows[b])
            exactlin._eliminate(w, (row_a,), (pivot_a,))
            exactlin._normalize(w, exactlin._leading(w))
            key = tuple(w)
            if key not in first:
                first[key] = b
            elif found is None or first[key] < found[0]:
                found = (first[key], b)
        if found is not None:
            return exactlin.section_dim(config.basis, (a + 1, found[0] + 1, found[1] + 1))[1].rows[0]
    return None


def _heavy_by_dfs(
    config: KConfiguration, c: Fraction, budget: Optional[int], size: Optional[int] = None
) -> tuple[Optional[tuple[int, ...]], int]:
    """The first heavy variable set at c (1-based), or None, by the pruned
    search of ``is_c_good``, and the number of nodes visited.  With ``size``
    only sets of exactly that size are hits, and branches that cannot reach
    it are cut.  Raises BudgetExceededError on visiting more than ``budget``
    nodes (None: no bound).

    The echelon is a stack: a row is pushed already reduced against the
    rows below it, so it is zero at their pivots, which is all
    ``exactlin._eliminate`` needs, and popping it restores the parent's.
    """
    rows = config.residues
    k, r = config.k, config.rank
    p, q = c.numerator, c.denominator
    gain = p - q
    most = k if size is None else size
    echelon: list[list[int]] = []
    pivots: list[int] = []
    nodes = 0

    def heavy_from(start: int, s: int, rho: int) -> Optional[tuple[int, ...]]:
        # S has size s and rank rho; try S + {i} for each i >= start in turn,
        # while S + {i..k-1} can still reach the size
        nonlocal nodes
        top = rho + r if rho + r < most else most  # min() would cost a call per node
        for i in range(start, k if size is None else k + s + 1 - size):
            if gain * min(s + k - i, top) - p * rho <= -q:
                return None  # no set S + T, T in {i..k-1}, can be heavy
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"heaviness search exceeds its budget of {budget} nodes")
            w = list(rows[i])
            exactlin._eliminate(w, echelon, pivots)
            pivot = exactlin._leading(w)
            if pivot is None:
                # t rises: S + {i} may be a hit
                if p * (s + 1 - rho) > q * s and size in (None, s + 1):
                    return (i + 1,)
                found = s + 1 < most and heavy_from(i + 1, s + 1, rho)
            elif s + 1 == size:
                # t stays, so S + {i} is a hit only if S is heavy too; the
                # search without a size would have stopped at S
                if p * (s - rho) > q * s:
                    return (i + 1,)
                continue
            else:
                echelon.append(w)
                pivots.append(pivot)
                found = heavy_from(i + 1, s + 1, rho + 1)
                echelon.pop()
                pivots.pop()
            if found:
                return (i + 1,) + found
        return None

    return heavy_from(0, 0, 0), nodes


# the benchmark traces this name as goodness.heaviness_sweep
def _heaviness_sweep(
    config: KConfiguration, c: Fraction, budget: Optional[int] = None
) -> Optional[HeavinessWitness]:
    """The first heavy variable set at c by size, from 6, and then
    lexicographically, with its section: ``_heavy_by_dfs`` at each size in
    turn, all within one ``budget`` of nodes."""
    for size in range(6, config.k + 1):
        hit, nodes = _heavy_by_dfs(config, c, budget, size)
        if hit is not None:
            return HeavinessWitness(hit, *exactlin.section_dim(config.basis, hit))
        if budget is not None:
            budget -= nodes
    return None


def is_collinearity_free(config: KConfiguration) -> tuple[bool, Optional[tuple[int, ...]]]:
    """False, with a support-3 span member, iff some 3-variable equation is
    implied, that is iff three residue rows are dependent; the witness is the
    first such 3-set's section generator (see ``is_c_good``).
    Raises ValueError on an invalid configuration."""
    if not is_valid(config)[0]:
        raise ValueError("is_collinearity_free needs a valid configuration")
    witness = _collinearity_witness(config)
    return witness is None, witness


def is_c_good(
    config: KConfiguration, c: Fraction | int | str | float, budget: Optional[int] = None
) -> GoodnessReport:
    """Aggregate verdict; checks run in the order valid, collinearity-free, c-light.

    After ``is_valid``, collinearity is the first 3-set, lexicographically,
    whose residue rows are dependent.  On a valid configuration a 3-set
    section has t <= 1 and a full-support generator, because a nonzero
    zero-sum vector on two variables is an implied x_i = x_j (t = 2 is the
    whole zero-sum space on S).  So that section's one row is the
    collinearity witness.

    Sets of 4 or 5 variables are never heavy.  Once validity and
    collinearity-freeness hold, every section has t <= |S| - 3: a section of
    dimension |S| - 2 or more meets the 2-dimensional space of zero-sum
    vectors on any three variables of S (both lie in the
    (|S| - 1)-dimensional zero-sum space on S), and a nonzero span vector on
    at most three variables is an implied x_i = x_j or a support-3 equation.
    A witness at c <= 2 needs |S| < c*t + 1 <= 2t + 1, that is
    t >= (|S| - 1) // 2 + 1, which is 2 at |S| = 4 and 3 at |S| = 5: above
    |S| - 3 at both, so no set of fewer than 6 variables holds one, and a
    configuration on fewer than 6 variables is light.

    From 6 variables, heaviness at c = p/q is decided by a depth-first
    search over the residue rows in lexicographic order.  It keeps a
    fraction-free echelon of the rows of the current set S, one
    ``exactlin._eliminate`` reduction per node, so each node knows s = |S|
    and its rank rho, and t(S) = s - rho.  A node is a hit when
    p*(s - rho) > q*(s - 1).  Write f(S') = (p - q)*|S'| - p*rank(S'), so
    that S' is a hit iff f(S') > -q.  A branch that can still add m indices
    reaches only sets S' with s <= |S'| <= s + m and
    rank(S') >= max(rho, |S'| - r), r = ``config.rank``, since rank never
    drops as rows are added and t(S') <= r.  So
    f(S') <= (p - q)*n - p*max(rho, n - r) at n = |S'|, which rises up to
    n = rho + r (slope p - q > 0) and falls after it (slope -q); its
    maximum over the branch is (p - q)*top - p*rho with
    top = min(s + m, rho + r), and the branch is pruned when that is at
    most -q.

    After a hit, the witness is named only when the report's
    ``heaviness_witness`` is read: ``_heaviness_sweep`` runs the same search
    at each size from 6 in turn, where only sets of exactly that size are
    hits, top is at most that size, and branches that cannot reach it are
    cut.  The search visits the sets of one size in lexicographic order and
    a cut branch holds no hit, so its first hit is the first witness by
    size and then lexicographically.
    ``budget`` bounds the nodes of both searches (None: no bound):
    BudgetExceededError past it, from the verdict search here or from the
    witness search when the witness is read.
    """
    c = parse_c(c)
    valid, eq_witness = is_valid(config)
    if not valid:
        return GoodnessReport(c, False, None, None, equality_witness=eq_witness)
    collinear = _collinearity_witness(config)
    if collinear is not None:
        return GoodnessReport(c, True, False, None, collinearity_witness=collinear)
    heavy, nodes = _heavy_by_dfs(config, c, budget) if config.k >= 6 else (None, 0)
    if heavy is None:
        return GoodnessReport(c, True, True, True)
    return GoodnessReport(c, True, True, False, heavy=(config, None if budget is None else budget - nodes))


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

    Index pairs are grouped into sum-equality classes by
    ``config.pair_sum_classes`` ({a,b} ~ {c,d} iff e_a + e_b - e_c - e_d
    lies in the span: iff rows a + b and c + d of ``config.residues`` are
    equal).  In a valid configuration every class is pairwise disjoint,
    since {a,b} ~ {a,c} would put e_b - e_c in the span, so the largest
    class (the first in index order on ties) is the star.  A single
    sum-equal pair is no star: anything below two pairs reports size 0.
    Raises ValueError on an invalid configuration.
    """
    if not is_valid(config)[0]:
        raise ValueError("largest_star needs a valid configuration")
    best_pairs = max(config.pair_sum_classes(), key=len, default=[])
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
