"""Classify configurations: validity, collinearity, c-lightness, stars.

A configuration is *valid* when it implies no equation x_i = x_j,
*collinearity-free* when its span contains no nonzero vector supported on
exactly three variables, and *c-light* (for rational 1 < c <= 2) when every
collection of t >= 1 independent implied equations spans at least c*t + 1
variables.  A configuration that is all three is *c-good*.

Every check is read off ``config.residues``, whose row i is the residue of
e_i modulo the span (stars off its packed form, ``config.residue_keys``).
The rows represent the quotient by the span, so for every variable set S,
rank(rows of S) = |S| - t(S), where t(S) is the section dimension
dim{v in span : supp(v) in S} (the dual of the basis column matroid;
Oxley, *Matroid Theory*, ch. 2).  Hence:

- valid iff no two rows are equal;
- collinearity-free, given valid, iff every three rows are independent;
- heavy at c = p/q iff some S has p*(|S| - rank) > q*(|S| - 1), that is
  |S| < c*t + 1, a sparsity condition in the sense of Lee and Streinu.

At c = 2, and at every c that decides as 2 (c = paper included), the
verdict is decided by matroid partition over the rows; at smaller c, by a
pruned depth-first search over them (see ``is_c_good``).  The witness of a
heavy verdict is named only when it is read, by that search at sizes 6,
7, ... in turn, where only sets of exactly that size are hits: the first
witness by size and then lexicographically.  A ``GoodnessReport``
compares, hashes and prints by its fields (a heavy one holds its
configuration, not its witness), so printing or comparing one never
searches.

A *star of size 2p* is p pairwise-disjoint index pairs whose sums are all
forced equal by the span; single sum-equal pairs (p = 1) do not count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from . import exactlin
from .configuration import KConfiguration, _sum_content, from_equalities, from_points
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


@dataclass(frozen=True)
class GoodnessReport:
    """Verdicts for one configuration at one value of c (checks short-circuit).

    A heavy verdict names its witness when ``heaviness_witness`` is first
    read: ``_heaviness_sweep`` runs the search by size then, on ``heavy``
    (the heavy configuration) within ``witness_budget`` (the budget less
    the verdict's independence tests or search nodes, see ``is_c_good``).
    Reports compare, hash and print by their fields, so none of that runs
    the witness search; equal heavy configurations at one c have equal
    witnesses, and the budget is not compared.
    """

    c: Fraction
    valid: bool
    collinearity_free: Optional[bool]
    c_light: Optional[bool]
    equality_witness: Optional[tuple[int, int]] = None
    collinearity_witness: Optional[tuple[int, ...]] = None
    heavy: Optional[KConfiguration] = field(default=None, repr=False)
    witness_budget: Optional[int] = field(default=None, compare=False, repr=False)

    @cached_property
    def heaviness_witness(self) -> Optional[HeavinessWitness]:
        if self.heavy is None:
            return None
        return _heaviness_sweep(self.heavy, self.c, self.witness_budget)

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


def _collinearity_witness(config: KConfiguration) -> Optional[tuple[int, ...]]:
    """The generator of the first 3-set section, lexicographically, with
    t = 1: the first three dependent residue rows, of a valid configuration.

    Validity makes every two rows independent (a dependent pair is a
    zero-sum span vector on two variables, an implied x_i = x_j).  So rows
    a < b < c are dependent iff rows b and c, with row a's leading column
    cleared and made primitive with a positive leading entry, are equal.
    """
    rows = config.residues
    k = len(rows)
    for a in range(k - 2):
        row_a = rows[a]
        p = exactlin._leading(row_a)
        ap = row_a[p]
        first: dict[tuple[int, ...], int] = {}
        found = None
        for b in range(a + 1, k):
            row_b = rows[b]
            bp = row_b[p]
            w = [x * ap - y * bp for x, y in zip(row_b, row_a)] if bp else row_b
            g = gcd(*w)
            for lead in w:  # w is nonzero: rows a and b are independent
                if lead:
                    break
            if lead < 0:
                g = -g
            key = tuple(w) if g == 1 else tuple([x // g for x in w])
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
    ``held`` is the bit mask of the echelon's pivots: a row whose nonzero
    columns miss it is left as it is by ``_eliminate``, so it is pushed
    as it is, with its own leading column as pivot, and the node does no
    elimination.
    """
    rows = config.residues
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    leads = [exactlin._leading(row) for row in rows]
    k, r = config.k, config.rank
    p, q = c.numerator, c.denominator
    gain = p - q
    most = k if size is None else size
    echelon: list[Sequence[int]] = []
    pivots: list[int] = []
    nodes = 0

    def heavy_from(start: int, s: int, rho: int, held: int) -> Optional[tuple[int, ...]]:
        # S has size s and rank rho, and ``held`` masks its echelon's
        # pivots; try S + {i} for each i >= start in turn, while
        # S + {i..k-1} can still reach the size
        nonlocal nodes
        # min() would cost a call per node and per child
        top = rho + r if rho + r < most else most
        for i in range(start, k if size is None else k + s + 1 - size):
            if gain * (s + k - i if s + k - i < top else top) - p * rho <= -q:
                return None  # no set S + T, T in {i..k-1}, can be heavy
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"heaviness search exceeds its budget of {budget} nodes")
            if masks[i] & held:
                w = list(rows[i])
                exactlin._eliminate(w, echelon, pivots)
                pivot = exactlin._leading(w)
            else:
                w, pivot = rows[i], leads[i]
            if pivot is None:
                # t rises: S + {i} may be a hit
                if p * (s + 1 - rho) > q * s and size in (None, s + 1):
                    return (i + 1,)
                found = s + 1 < most and heavy_from(i + 1, s + 1, rho, held)
            elif s + 1 == size:
                # t stays, so S + {i} is a hit only if S is heavy too; the
                # search without a size would have stopped at S
                if p * (s - rho) > q * s:
                    return (i + 1,)
                continue
            else:
                echelon.append(w)
                pivots.append(pivot)
                found = heavy_from(i + 1, s + 1, rho + 1, held | 1 << pivot)
                echelon.pop()
                pivots.pop()
            if found:
                return (i + 1,) + found
        return None

    try:
        return heavy_from(0, 0, 0, 0), nodes
    finally:
        del heavy_from  # it calls itself: free the cycle without the cyclic GC


def _light_by_partition(config: KConfiguration, budget: Optional[int]) -> tuple[bool, int]:
    """Whether the configuration is light at c = 2, by matroid partition
    over its residue rows (see ``is_c_good``), and the number of
    independence tests made, each one row reduced against one set's
    echelon.  Raises BudgetExceededError on making more than ``budget``
    tests (None: no bound).

    ``side[i]`` names the one of two independent sets that holds row i.
    Rows join one at a time, each along a shortest path of the exchange
    graph, found breadth first: a row is a sink for the set that does not
    hold it when that set stays independent with it added, and otherwise
    has an edge to each row of its fundamental circuit in that set (a new
    row looks into both sets).  Along the path each row takes the place of
    the next, and the last joins the set it fits.  A set's echelon carries
    its own rows' unit vectors as an augmented block, so a row that
    reduces to zero on the residue columns names its circuit in the block.
    """
    rows = config.residues
    k, width = config.k, config.k - config.rank
    if k >= 2 * width:
        return False, 0  # all k rows: |S| >= 2*rank(S)
    side: list[Optional[int]] = [None] * k
    steps = 0
    # each set's rows in echelon form, each carrying its unit vector as an
    # augmented block, and their pivots, by the rows the set holds
    echelons: dict[tuple[int, ...], tuple[list[list[int]], list[Optional[int]]]] = {}

    def circuit(i: int, held: tuple[int, ...]) -> Optional[list[int]]:
        # None when the set ``held`` stays independent with row i, else
        # the rows of the set in row i's fundamental circuit
        nonlocal steps
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExceededError(f"matroid partition exceeds its budget of {budget} steps")
        if held not in echelons:
            # a set that gained its last row only is its predecessor's
            # echelon with that row inserted
            n = len(held)
            base = echelons.get(held[:-1])
            if base is None:
                mat = [list(rows[h]) + [0] * m + [1] + [0] * (n - m - 1) for m, h in enumerate(held)]
            else:
                mat = [w + [0] for w in base[0]] + [list(rows[held[-1]]) + [0] * (n - 1) + [1]]
            exactlin.echelon(mat, width)
            echelons[held] = mat, [exactlin._leading(w) for w in mat]
        w = list(rows[i]) + [0] * len(held)
        exactlin._eliminate(w, *echelons[held])
        if any(w[:width]):
            return None
        return [h for h, x in zip(held, w[width:]) if x]

    def cover() -> list[tuple[int, ...]]:
        return [tuple(i for i in range(k) if side[i] == j) for j in (0, 1)]

    for new in range(k):
        sets = cover()
        parent: dict[int, Optional[int]] = {new: None}
        queue = [new]
        sink = None
        for i in queue:
            for j in (0, 1) if side[i] is None else (1 - side[i],):
                found = circuit(i, sets[j])
                if found is None:
                    sink = i, j
                    break
                for h in found:
                    if h not in parent:
                        parent[h] = i
                        queue.append(h)
            if sink is not None:
                break
        if sink is None:
            return False, steps  # the rows reached, with the new one, have |S| > 2*rank(S)
        i, j = sink
        while i is not None:
            side[i], j = j, side[i]
            i = parent[i]
    # light iff each row e can be doubled: its extra copy reaches a sink
    # exactly when e does, so search back from the sinks
    sets = cover()
    into: list[list[int]] = [[] for _ in range(k)]
    reached = []
    for i in range(k):
        found = circuit(i, sets[1 - side[i]])
        if found is None:
            reached.append(i)
        else:
            for h in found:
                into[h].append(i)
    seen = set(reached)
    for h in reached:
        for i in into[h]:
            if i not in seen:
                seen.add(i)
                reached.append(i)
    return len(seen) == k, steps


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


def decides_as_two(c: Fraction, k: int) -> bool:
    """Whether c lies in (2 - 1/floor(k/2), 2], where every configuration on
    k >= 2 variables has the verdict it has at c = 2 (see ``is_c_good``)."""
    return c > 2 - Fraction(1, k // 2)


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
    |S| - 3 at both, so no set of fewer than 6 variables holds one.  From 6
    variables a witness needs t >= 3, and t(S) <= ``config.rank``, so a
    configuration of rank below 3 is light.  That takes in every
    configuration on fewer than 6 variables: the whole span is the section
    of S = [k], so its rank is t([k]) <= k - 3.

    The verdict is read off without a search at these early exits, in
    order: invalid (the first equal pair of rows), collinear (the first
    dependent 3-set), rank below 3 (light), and, in the range below, k rows
    of rank at most k/2 (heavy, see ``_light_by_partition``).

    From 6 variables, every c in (2 - 1/floor(k/2), 2] decides as c = 2
    (``decides_as_two``):
    c = 2 and c = ``PAPER_C`` at every k below 2^30, and 19/10 below k = 20.
    A set light at 2 is light at every c <= 2, since |S| >= 2t + 1 >=
    c*t + 1.  If S is heavy at 2 then
    |S| <= 2t; with d = 2t - |S|, (|S| - 1)/t = 2 - (d + 1)/t, where
    t = |S|/2 <= floor(k/2) when d = 0 and t <= |S| - 1 <= 2*floor(k/2)
    when d >= 1, so (|S| - 1)/t <= 2 - 1/floor(k/2) < c and S is heavy at
    c too.  The cube {1, 2, 4, 5, 10, 11, 13, 14} (k = 8) is heavy at 2 and
    light at 7/4 = 2 - 1/4, so the lower end is exact.

    In that range lightness is decided by matroid partition
    (``_light_by_partition``).  At 2, a nonempty S is heavy iff
    |S| >= 2*rank(S), the rank of its rows.  By Nash-Williams' covering theorem (1964)
    the rows, with row e doubled, split into two independent sets iff
    |S| + [e in S] <= 2*rank(S) for every S; so the configuration is light
    iff that holds for every row e.  Edmonds' matroid partition algorithm
    (1965) decides it: cover the k rows with two independent sets, one row
    at a time along shortest augmenting paths (a row that cannot join
    leaves some S with |S| > 2*rank(S), so the configuration is heavy);
    then the extra copy of e can join iff e reaches a sink of the exchange
    graph of that cover, which one search back from the sinks decides for
    every e at once.  The k rows have rank k - r, r = ``config.rank``, so
    when k >= 2*(k - r) the configuration is heavy with no test at all.

    Below that range, heaviness at c = p/q is decided by a depth-first
    search over the residue rows in lexicographic order.  It keeps a
    fraction-free echelon of the rows of the current set S, at most one
    ``exactlin._eliminate`` reduction per node (none for a row that is zero
    at every pivot of the echelon), so each node knows s = |S| and its rank
    rho, and t(S) = s - rho.  A node is a hit when
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

    After a heavy verdict, by either route, the witness is named only when
    the report's ``heaviness_witness`` is read: ``_heaviness_sweep`` runs
    the search at each size from 6 in turn, where only sets of exactly that
    size are hits, top is at most that size, and branches that cannot reach
    it are cut.  The search visits the sets of one size in lexicographic
    order and a cut branch holds no hit, so its first hit is the first
    witness by size and then lexicographically.
    ``budget`` bounds the verdict's independence tests (partition) or nodes
    (search), and the witness search gets what the verdict left (None: no
    bound): BudgetExceededError past it, from the verdict here or from the
    witness search when the witness is read.
    """
    c = parse_c(c)
    valid, eq_witness = is_valid(config)
    if not valid:
        return GoodnessReport(c, False, None, None, equality_witness=eq_witness)
    collinear = _collinearity_witness(config)
    if collinear is not None:
        return GoodnessReport(c, True, False, None, collinearity_witness=collinear)
    if config.rank < 3:
        return GoodnessReport(c, True, True, True)
    if decides_as_two(c, config.k):
        light, steps = _light_by_partition(config, budget)
    else:
        heavy, steps = _heavy_by_dfs(config, c, budget)
        light = heavy is None
    if light:
        return GoodnessReport(c, True, True, True)
    return GoodnessReport(
        c, True, True, False, heavy=config, witness_budget=None if budget is None else budget - steps
    )


def points_c_good(points: Sequence, c: Fraction | int | str | float) -> bool:
    """Whether the configuration formed by the points is c-good.

    Pairwise distinct differences form the rank-0 configuration, which
    ``is_c_good`` finds light with no test; the alteration sweep, the one
    library caller, hands over only subsets that repeat a difference.
    """
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
    """The configuration {x_{i1}+x_{i2} = x_{i3}+x_{i4} = ...} on k variables,
    spanned by e_{i1} + e_{i2} - e_a - e_b for each later pair (a, b)
    (``configuration._sum_content``)."""
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
    return from_equalities(k, [_sum_content(k, (a0 - 1, b0 - 1), (a - 1, b - 1)) for a, b in pairs[1:]])
