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

At every c the verdict is decided by one matroid partition over the rows,
at c snapped up to the least ratio (|S| - 1)/t a heavy set can have
(``snap_c``; see ``is_c_good``).  The witness of a heavy verdict is named
only when it is read, by a pruned depth-first search over the rows at
sizes 6, 7, ... in turn, where only sets of exactly that size are hits:
the first witness by size and then lexicographically.  A ``GoodnessReport``
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
from functools import cached_property, lru_cache
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
    (the heavy configuration) within the whole ``budget``, its node count
    starting at ``steps``, the verdict's independence tests (see
    ``is_c_good``).
    Reports compare, hash and print by their fields, so none of that runs
    the witness search; equal heavy configurations at one c have equal
    witnesses, and the budget and steps are not compared.
    """

    c: Fraction
    valid: bool
    collinearity_free: Optional[bool]
    c_light: Optional[bool]
    equality_witness: Optional[tuple[int, int]] = None
    collinearity_witness: Optional[tuple[int, ...]] = None
    heavy: Optional[KConfiguration] = field(default=None, repr=False)
    budget: Optional[int] = field(default=None, compare=False, repr=False)
    steps: int = field(default=0, compare=False, repr=False)

    @cached_property
    def heaviness_witness(self) -> Optional[HeavinessWitness]:
        if self.heavy is None:
            return None
        return _heaviness_sweep(self.heavy, self.c, self.budget, self.steps)

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
    The generator is read off those two keys: row b cleared is
    w_b = (a_p if b_p else 1)*row b - b_p*row a = g_b*key, at a's pivot p,
    so g_c*w_b - g_b*w_c = 0 is the relation among rows a, b and c, and its
    coefficients, made primitive with a positive entry on a, are the
    generator (row i of ``config.residues`` is e_(i+1) modulo the span).
    """
    rows = config.residues
    k = len(rows)
    for a in range(k - 2):
        row_a = rows[a]
        p = exactlin._leading(row_a)
        ap = row_a[p]
        # each key's first row b, with the signed gcd g and the entry b_p
        # that give g*key = w_b = (a_p if b_p else 1)*row b - b_p*row a
        first: dict[tuple[int, ...], tuple[int, int, int]] = {}
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
                first[key] = b, g, bp
            elif found is None or first[key][0] < found[0][0]:
                found = first[key], (b, g, bp)
        if found is not None:
            # g_c*w_b = g_b*w_c is a relation among rows a, b and c
            (b, gb, bp), (c, gc, cp) = found
            rel = [gb * cp - gc * bp, gc * (ap if bp else 1), -gb * (ap if cp else 1)]
            g = gcd(*rel)  # rel[0] is nonzero: rows b and c are independent
            if rel[0] < 0:
                g = -g
            witness = [0] * k
            for j, x in zip((a, b, c), rel):
                witness[j] = x // g
            return tuple(witness)
    return None


def _heavy_by_dfs(
    config: KConfiguration, c: Fraction, budget: Optional[int], size: int, nodes: int = 0
) -> tuple[Optional[tuple[int, ...]], int]:
    """The first variable set of exactly ``size`` variables (1-based) that
    is heavy at c, or None, by the pruned search of ``is_c_good``, and the
    number of nodes visited, counted on from ``nodes`` already spent.
    Branches that cannot reach the size are cut.  Raises
    BudgetExceededError once that count passes ``budget`` (None: no bound).

    The echelon is a stack: a row is pushed already reduced against the
    rows below it, so it is zero at their pivots, which is all
    ``exactlin._eliminate`` needs, and popping it restores the parent's.
    """
    rows = config.residues
    k, r = config.k, config.rank
    p, q = c.numerator, c.denominator
    gain = p - q
    echelon: list[Sequence[int]] = []
    pivots: list[int] = []

    def heavy_from(start: int, s: int, rho: int) -> Optional[tuple[int, ...]]:
        # S has size s and rank rho; try S + {i} for each i >= start in
        # turn, while S + {i..k-1} can still reach the size
        nonlocal nodes
        # min() would cost a call per node and per child
        top = rho + r if rho + r < size else size
        for i in range(start, k + s + 1 - size):
            if gain * (s + k - i if s + k - i < top else top) - p * rho <= -q:
                return None  # no set S + T, T in {i..k-1}, can be heavy
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"heaviness search exceeds its budget of {budget} nodes")
            w = list(rows[i])
            exactlin._eliminate(w, echelon, pivots)
            pivot = exactlin._leading(w)
            if s + 1 == size:
                # a hit iff S + {i}, of rank rho or rho + 1, is heavy
                if p * (s + 1 - rho - (pivot is not None)) > q * s:
                    return (i + 1,)
                continue
            if pivot is None:
                found = heavy_from(i + 1, s + 1, rho)
            else:
                echelon.append(w)
                pivots.append(pivot)
                found = heavy_from(i + 1, s + 1, rho + 1)
                echelon.pop()
                pivots.pop()
            if found:
                return (i + 1,) + found
        return None

    try:
        return heavy_from(0, 0, 0), nodes
    finally:
        del heavy_from  # it calls itself: free the cycle without the cyclic GC


def _light_by_partition(config: KConfiguration, c: Fraction, budget: Optional[int] = None) -> tuple[bool, int]:
    """Whether the configuration is light at c = p/q, by matroid partition
    over its residue rows (see ``is_c_good``), and the number of
    independence tests made, each one row reduced against one set's
    echelon.  Raises BudgetExceededError on making more than ``budget``
    tests (None: no bound).  It keeps p sets, so ``is_c_good`` hands it
    c snapped to a small numerator (``snap_c``).

    ``holds[j]`` is the bit mask of the rows that set j holds.  Copies of
    rows join one at a time, each along a shortest path of the exchange
    graph, found breadth first.  Its nodes are a row and the set it
    leaves (None for the new copy); a row is a sink for a set that does
    not hold it when that set stays independent with it added, and
    otherwise has an edge to each row of its fundamental circuit in that
    set.  Along the path each row takes the place of the next, and the
    last joins the set it fits.  A set's echelon carries its own rows'
    unit vectors as an augmented block, so a row that reduces to zero on
    the residue columns names its circuit in the block.  Each test is
    made once per call: the sets of one cover often hold the same rows.
    """
    rows = config.residues
    k, width = config.k, config.k - config.rank
    p, q = c.numerator, c.denominator
    a = p - q
    if a * k + q > p * width:
        return False, 0  # all k rows: a*|S| + q > p*rank(S)
    steps = 0
    # each set's rows, its echelon with their unit vectors as an augmented
    # block, and its pivots, by the mask of the rows it holds
    echelons: dict[int, tuple[list[int], list[list[int]], list[Optional[int]]]] = {}
    circuits: dict[tuple[int, int], Optional[list[int]]] = {}

    def circuit(i: int, held: int) -> Optional[list[int]]:
        # None when the set ``held`` stays independent with row i, else
        # the rows of the set in row i's fundamental circuit
        nonlocal steps
        if (i, held) in circuits:
            return circuits[i, held]
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExceededError(f"matroid partition exceeds its budget of {budget} steps")
        if held not in echelons:
            # a set that gained its last row only is its predecessor's
            # echelon, kept as it stands, with that row inserted below it
            members = [h for h in range(k) if held >> h & 1]
            n = len(members)
            base = echelons.get(held ^ 1 << members[-1]) if members else None
            if base is None:
                mat = [list(rows[h]) + [0] * m + [1] + [0] * (n - m - 1) for m, h in enumerate(members)]
            else:
                mat = [w + [0] for w in base[1]] + [list(rows[members[-1]]) + [0] * (n - 1) + [1]]
            exactlin.echelon(mat, width, 0 if base is None else n - 1)
            echelons[held] = members, mat, [exactlin._leading(w) for w in mat]
        members, mat, pivots = echelons[held]
        w = list(rows[i]) + [0] * len(members)
        exactlin._eliminate(w, mat, pivots)
        found = None if any(w[:width]) else [h for h, x in zip(members, w[width:]) if x]
        circuits[i, held] = found
        return found

    def join(holds: list[int], new: int) -> bool:
        # add a copy of row ``new`` to the cover ``holds``: False when no
        # path reaches a sink
        parent: dict[tuple[int, Optional[int]], Optional[tuple[int, Optional[int]]]] = {(new, None): None}
        queue: list[tuple[int, Optional[int]]] = [(new, None)]
        for node in queue:
            bit = 1 << node[0]
            for j, held in enumerate(holds):
                if held & bit:
                    continue
                found = circuit(node[0], held)
                if found is None:
                    # along the path each row enters set j and leaves set s
                    while node is not None:
                        i, s = node
                        holds[j] |= 1 << i
                        if s is not None:
                            holds[s] ^= 1 << i
                        j, node = s, parent[node]  # type: ignore[assignment]
                    return True
                for h in found:
                    if (h, j) not in parent:
                        parent[h, j] = node
                        queue.append((h, j))
        return False

    holds = [0] * p
    if not all(join(holds, i) for i in range(k) for _ in range(a)):
        return False, steps  # the rows reached hold more than p*rank(S) copies
    # light iff each row e can join every set: q more copies of e join a
    # copy of the cover
    trials = ((e, holds.copy()) for e in range(k))
    return all(join(trial, e) for e, trial in trials for _ in range(q)), steps


# the benchmark traces this name as goodness.heaviness_sweep
def _heaviness_sweep(
    config: KConfiguration, c: Fraction, budget: Optional[int] = None, nodes: int = 0
) -> Optional[HeavinessWitness]:
    """The first heavy variable set at c by size, from 6, and then
    lexicographically, with its section: ``_heavy_by_dfs`` at each size in
    turn, the nodes of every size counted on from ``nodes`` already spent
    against the one ``budget``."""
    for size in range(6, config.k + 1):
        hit, nodes = _heavy_by_dfs(config, c, budget, size, nodes)
        if hit is not None:
            return HeavinessWitness(hit, *exactlin.section_dim(config.basis, hit))
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


@lru_cache(maxsize=None)
def snap_c(c: Fraction, k: int) -> Fraction:
    """The least element of R_k and 2 at or above c, where
    R_k = {(s - 1)/t < 2 : 6 <= s <= k, 3 <= t <= s - 3}: on a valid,
    collinearity-free configuration on k variables the verdict at c is the
    verdict there (see ``is_c_good``).  It is 2 iff c > 2 - 1/floor(k/2)."""
    ratios = (Fraction(s - 1, t) for s in range(6, k + 1) for t in range(3, s - 2))
    return min((x for x in ratios if c <= x < 2), default=Fraction(2))


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

    The verdict is read off without a test at these early exits, in order:
    invalid (the first equal pair of rows), collinear (the first dependent
    3-set), rank below 3 (light), and k rows with a*k + q > p*(k - r)
    (heavy, see below).

    *The snap.*  So a heavy set S of a valid, collinearity-free
    configuration has 6 <= |S| <= k and 3 <= t <= |S| - 3, and at c <= 2
    its ratio (|S| - 1)/t is below c <= 2: it lies in R_k of ``snap_c``.
    Lightness is decided at c' = ``snap_c(c, k)``, the least element of
    R_k and 2 at or above c.  S is heavy at c iff its ratio is below c, iff
    it is below c', since no element of R_k lies in [c, c'); so the
    verdict at c is the verdict at c'.  With d = 2t - s >= 0, an element
    of R_k is (s - 1)/t = 2 - (d + 1)/t, where t = s/2 <= floor(k/2) when
    d = 0 and t < s <= 2*floor(k/2) + 1 when d >= 1, so each is at most
    2 - 1/floor(k/2), which s = 2*floor(k/2) attains (R_k is empty below
    k = 6).  So c' = 2 exactly when c > 2 - 1/floor(k/2): c = 2 and
    c = ``PAPER_C`` at every k below 2^30, and 19/10 below k = 20.  The
    cube {1, 2, 4, 5, 10, 11, 13, 14} (k = 8) is heavy at 2 and light at
    7/4 = 2 - 1/4, so that range is exact.

    *The partition.*  Write c' = p/q and a = p - q >= 1.  A nonempty S is
    heavy iff p*t > q*(|S| - 1), iff a*|S| + q > p*rank(S), the rank of its
    rows, since t = |S| - rank(S).  By Nash-Williams' covering theorem
    (1964) a multiset of rows splits into p independent sets iff no S
    holds more than p*rank(S) of its copies.  With a copies of every row
    and q more of row e, S holds a*|S| + q*[e in S] of them; so the
    configuration is light iff that multiset splits for every row e.
    Edmonds' matroid partition algorithm (1965) decides it
    (``_light_by_partition``): cover a copies of every row with p
    independent sets, one copy at a time along shortest augmenting paths
    (a copy that cannot join leaves some S with more than p*rank(S)
    copies, so the configuration is heavy); then, for each e, add q copies
    of e to a copy of that cover in the same way.  The k rows have rank
    k - r, r = ``config.rank``, so when a*k + q > p*(k - r) the
    configuration is heavy with no test at all.  At c' = 2 there are two
    sets and a = q = 1.

    After a heavy verdict the witness is named only when the report's
    ``heaviness_witness`` is read: ``_heaviness_sweep`` runs a depth-first
    search over the residue rows in lexicographic order, at c = p/q itself,
    at each size from 6 in turn, where only sets of exactly that size are
    hits.  It keeps a fraction-free echelon of the rows of the current set
    S, one ``exactlin._eliminate`` reduction per node, so each node knows
    s = |S| and its rank rho, and t(S) = s - rho.  A set of the size is a
    hit when p*(s - rho) > q*(s - 1).  Write f(S') = (p - q)*|S'| -
    p*rank(S'), so that S' is heavy iff f(S') > -q.  A branch that can
    still add m indices reaches only sets S' with s <= |S'| <= s + m and
    rank(S') >= max(rho, |S'| - r), since rank never drops as rows are
    added and t(S') <= r.  So f(S') <= (p - q)*n - p*max(rho, n - r) at
    n = |S'|, which rises up to n = rho + r (slope p - q > 0) and falls
    after it (slope -q); its maximum over the branch is (p - q)*top -
    p*rho with top = min(s + m, rho + r, size), and the branch is pruned
    when that is at most -q.  Branches that cannot reach the size are cut
    too.  The search visits the sets of one size in lexicographic order
    and a cut branch holds no hit, so its first hit is the first witness
    by size and then lexicographically.
    ``budget`` bounds the verdict's independence tests and the witness
    search's nodes together (None: no bound): the search counts its nodes
    on from the verdict's tests, and BudgetExceededError past it, from the
    verdict here or from the witness search when the witness is read,
    names the whole budget.
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
    light, steps = _light_by_partition(config, snap_c(c, config.k), budget)
    if light:
        return GoodnessReport(c, True, True, True)
    return GoodnessReport(c, True, True, False, heavy=config, budget=budget, steps=steps)


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
