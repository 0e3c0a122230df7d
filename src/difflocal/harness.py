"""Desk-scale falsification scans and equality-case reproductions.

``scan_ground`` classifies every k-subset of [1..N], k >= 4: each subset's
configuration is checked for c-goodness and its certified-pair count is
computed through the configuration machinery, cross-checked against direct
difference counting.  The report records the maximum certified count among
c-good configurations against the parity bound (k^2 - 2k)/4 for even k and
(k-1)(k-3)/4 + 3 for odd k, whether every maximal attainer is a size-k
star, and how many subsets are classified differently at c and at c = 2.
Every c in (2 - 1/floor(k/2), 2], ``c = paper`` included, gives every
configuration the verdict of c = 2 (``goodness.decides_as_two``), so a
divergence can arise only below that range.  Those verdicts and the
cross-check depend on the subset's difference pattern alone
(``configuration.difference_pattern``), so the scan, in one process,
counts and then classifies.  It counts: a pattern does not change under
translation, and every subset is a translate of exactly one subset that
contains 1, so only those are walked, each weighted by its translates,
and each pattern gets its count, its least subset and the canonical basis
rows of its configuration.  The walk is depth first, and each prefix
carries two things: its table of differences, so a subset reads its
pattern off k - 1 lookups, and its canonical rows, made at most once and
only when a new pattern below it needs them.  A new pattern's rows are its
prefix's plus one content per repeated difference of its last point, so
the walk never calls ``from_points``.  Then it classifies each distinct
pattern once, as the configuration of those rows, folding the verdict
into the report.  A pattern whose least subset holds a 3-term
progression, a_j - a_i = a_l - a_j (``first_progression``), is counted
bad without classification: the subset satisfies x_i - 2x_j + x_l = 0, a
support-3 equation, so its configuration is collinear and bad at every
c.  Its certified count is still computed, so the cross-check covers
every subset.  Any other configuration is classified by ``is_c_good`` at 2;
goodness at c is read off it, because light at 2 implies light at every
c <= 2, and ``is_c_good`` at c runs only for one that is valid,
collinearity-free and heavy at 2, with c below that range.

``star_bound_check`` and ``odd_equality_case`` reproduce the equality cases
exactly: stars realized with power-of-four offsets have no stray
coincidences, and the odd-k equality configuration (a star of size k-1 plus
one extra equation through x_k) is realized by seeded search that rejects any
tuple whose configuration rank exceeds the intended system's.

``lemma_property_suite`` stress-tests the structural lemmas on seeded random
instances plus fixed hand-built systems.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from . import exactlin
from .configuration import (
    MAX_VARIABLES,
    DifferenceEquality,
    KConfiguration,
    _sum_content,
    colex_pairs,
    distinct_difference_count,
    first_progression,
    from_equalities,
    from_points,
    is_difference_content,
)
from .goodness import (
    PAPER_C,
    decides_as_two,
    is_c_good,
    is_collinearity_free,
    is_valid,
    largest_star,
    parse_c,
)
from .implications import (
    Alignment,
    MinimalImplication,
    check_structure,
    classify_alignment,
    is_2_full,
    minimal_implications,
)
from .verifier import check_budget

TWO = Fraction(2)
ODD_CASE_TRIES = 500


def certified_bound(k: int) -> int:
    """Maximum certified pairs for a c-good k-configuration, by parity of k."""
    if k % 2 == 0:
        return (k * k - 2 * k) // 4
    return (k - 1) * (k - 3) // 4 + 3


@dataclass
class ScanReport:
    ground_n: int
    k: int
    c: Fraction
    subsets_scanned: int = 0
    good_count: int = 0
    bad_count: int = 0
    histogram: Counter = field(default_factory=Counter)
    max_certified: int = -1
    max_certified_witness: Optional[tuple[int, ...]] = None
    attainer_count: int = 0
    non_star_attainers: int = 0
    first_non_star_witness: Optional[tuple[int, ...]] = None
    c2_divergences: int = 0
    cross_check_failures: int = 0

    @property
    def bound(self) -> int:
        return certified_bound(self.k)

    @property
    def bound_respected(self) -> bool:
        return self.max_certified <= self.bound

    def to_report(self) -> dict:
        hist = [
            {"certified": value, "subsets": count}
            for value, count in sorted(self.histogram.items())
        ]
        return {
            "report": "scan",
            "ground_n": self.ground_n,
            "k": self.k,
            "c": self.c,
            "subsets_scanned": self.subsets_scanned,
            "good": self.good_count,
            "bad": self.bad_count,
            "bound": self.bound,
            "bound_respected": self.bound_respected,
            "max_certified": self.max_certified,
            "max_certified_witness": list(self.max_certified_witness or []),
            "attainers": self.attainer_count,
            "non_star_attainers": self.non_star_attainers,
            "histogram": hist,
            "c2_divergences": self.c2_divergences,
            "cross_check_failures": self.cross_check_failures,
        }


class _PatternWalk:
    """The state of ``_scan_chunk``'s depth-first walk over the subsets
    (1, p_1, ..., p_{k-1}) of [1..top], in lexicographic order.

    ``first`` maps each difference of the current prefix to its label, the
    ``colex_pairs`` position of the first pair with that difference, so the
    label also names that pair; ``labels`` holds the prefix's pattern.  A
    new point p_j labels its pairs (i, j) by lookup and enters only its new
    differences, which it removes again on the way back: the pairs of p_j
    follow every pair of the prefix in colex order and have distinct
    differences, so the labels never change below it and each subset's
    labels are ``difference_pattern(points)``.

    ``rows[j]`` is the canonical basis rows of the prefix through p_j, made
    only when a new pattern below it asks for them (None until then).  The
    span of p_0..p_j is the prefix's span plus, for each pair (i, j) that
    repeats the difference of an earlier first pair (a, b), the content
    e_j - e_i - e_b + e_a: every difference equality among increasing
    numbers equates two differences, and each class of equal differences
    is spanned by its members' relations to its first pair.  Rows are
    interned, one tuple per distinct row, shared by every pattern."""

    def __init__(self, ground_n: int, k: int, leads: Sequence[int]) -> None:
        self.k = k
        self.last = ground_n + 1
        self.top = ground_n + 1 - leads[0]
        self.leads = leads
        self.shift = leads[0] - 1
        self.pairs = colex_pairs(k)
        self.points = [1]
        self.labels: list[int] = []
        self.first: dict[int, int] = {}
        self.rows: list[Optional[tuple]] = [()] + [None] * (k - 1)
        self.interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.counts: dict[tuple[int, ...], list] = {}

    def descend(self, j: int) -> None:
        """Walk every choice of p_j, ..., p_{k-1} after the current prefix."""
        if j == self.k - 1:
            self.leaves()
            return
        points, labels, first, rows = self.points, self.labels, self.first, self.rows
        base = len(labels)
        for x in range(points[-1] + 1, self.top + j + 2 - self.k):
            added = []
            for n, p in enumerate(points, base):
                d = x - p
                label = first.get(d)
                if label is None:
                    label = first[d] = n
                    added.append(d)
                labels.append(label)
            points.append(x)
            rows[j] = None
            self.descend(j + 1)
            points.pop()
            del labels[base:]
            for d in added:
                del first[d]

    def leaves(self) -> None:
        """Count every last point p_{k-1}; a new pattern records its least
        subset and its rows."""
        points, leads, last, shift, counts = self.points, self.leads, self.last, self.shift, self.counts
        prefix = tuple(self.labels)
        get = self.first.get
        owned = list(zip(points, range(len(prefix), len(prefix) + len(points))))
        for x in range(points[-1] + 1, self.top + 1):
            new = [get(x - p, n) for p, n in owned]
            key = prefix + tuple(new)
            translates = bisect_right(leads, last - x)
            entry = counts.get(key)
            if entry is not None:
                entry[0] += translates
            else:
                least = tuple([p + shift for p in points]) + (x + shift,)
                counts[key] = [translates, least, self.extend_rows(new)]

    def prefix_rows(self, j: int) -> tuple:
        """The canonical rows of p_0..p_j, made on first use."""
        rows = self.rows[j]
        if rows is None:
            base = j * (j - 1) // 2
            rows = self.rows[j] = self.extend_rows(self.labels[base : base + j])
        return rows

    def extend_rows(self, new: Sequence[int]) -> tuple:
        """The canonical rows of the prefix extended by a point p_j whose
        pairs (i, j) carry the labels ``new``: the prefix's rows and, for
        each pair that repeats an earlier first pair (a, b), the content
        e_j + e_a - e_i - e_b from ``_sum_content``.  The prefix's rows are
        canonical already, so ``exactlin.echelon`` inserts only the new
        contents below them."""
        j = len(new)
        base = j * (j - 1) // 2
        contents = []
        for i, label in enumerate(new):
            if label < base:  # the pair repeats the difference of an earlier first pair (a, b)
                a, b = self.pairs[label]
                contents.append(_sum_content(self.k, (j, a), (i, b)))
        rows = self.prefix_rows(j - 1)
        if not contents:
            return rows
        mat = [list(r) for r in rows] + contents
        rank = exactlin.echelon(mat, self.k, len(rows))
        interned = self.interned
        return tuple([interned.setdefault(r, r) for r in map(tuple, mat[:rank])])


def _scan_chunk(payload: tuple) -> dict[tuple[int, ...], list]:
    """Count the subsets with their lead in ``leads`` by difference pattern:
    each pattern maps to [count, least subset, canonical basis rows].
    Nothing is classified here.

    A pattern does not change under translation, so only subsets that
    contain 1 are walked, depth first (``_PatternWalk``).  One with maximum
    m stands for its translates with lead a <= N + 1 - m, and counts the
    leads in ``leads`` up to that bound; one that would count none
    (m > N + 1 - min(leads)) is not visited.  Subsets come in
    lexicographic order, so the first of a pattern, shifted to the least
    lead, is its least subset, and the patterns enter the dict in the
    lexicographic order of their least subsets.  Its rows are those of
    ``from_points(least subset).basis``, built from its prefix's rows."""
    # c is unread: perfbench/workloads.py builds this 4-tuple payload
    ground_n, k, _c, leads = payload
    walk = _PatternWalk(ground_n, k, sorted(leads))
    walk.descend(1)
    return walk.counts


def scan_ground(
    ground_n: int,
    k: int,
    c: Fraction | str | float,
    *,
    threads: int | None = None,
    budget: int | None = None,
) -> ScanReport:
    """Classify every k-subset of [1..N]: count the subsets per difference
    pattern, then classify each distinct pattern once, as the configuration
    of the canonical rows the walk built for it (``_scan_chunk``), on its
    least subset.  A pattern whose least subset holds a 3-term progression,
    a_j - a_i = a_l - a_j, is bad at c and at 2 without ``is_c_good``: it
    implies x_i - 2x_j + x_l = 0, a support-3 equation, so the configuration
    is collinear.  Its cross-check still runs.  A pattern heavy at 2 is
    classified again at c only when c lies below (2 - 1/floor(k/2), 2],
    since c in that range gives the verdict of 2; so ``c2_divergences`` is
    0 there.  See the module docstring.
    Patterns come in the lexicographic order of their least subsets, so
    the first to exceed every earlier certified count names
    ``max_certified_witness``, and the first non-star attainer names
    ``first_non_star_witness``: each is the least subset of its kind.
    The budget bounds C(N, k), the subsets counted, and k is at most
    ``MAX_VARIABLES``, as for any configuration; both are checked before
    the walk.  ``threads`` has no effect: the scan runs in one process."""
    c = parse_c(c)
    if k < 4 or ground_n < k:
        raise ValueError(f"need 4 <= k <= N, got k={k}, N={ground_n}")
    if k > MAX_VARIABLES:
        raise ValueError(f"scan needs k <= {MAX_VARIABLES} variables, got k={k}")
    check_budget(comb(ground_n, k), f"C({ground_n},{k})", budget)
    patterns = _scan_chunk((ground_n, k, c, tuple(range(1, ground_n - k + 2))))
    report = ScanReport(ground_n=ground_n, k=k, c=c)
    bound = certified_bound(k)
    for pattern, (count, points, rows) in patterns.items():
        config = KConfiguration(exactlin.ExactBasis(k, rows))
        certified = config.certified_count()
        report.subsets_scanned += count
        report.cross_check_failures += 0 if certified == comb(k, 2) - len(set(pattern)) else count
        if first_progression(points) is not None:
            # collinear, so bad at c and at 2 alike
            report.bad_count += count
            continue
        at_2 = is_c_good(config, TWO)
        good_c = at_2.c_good or (at_2.c_light is False and not decides_as_two(c, k) and is_c_good(config, c).c_good)
        report.c2_divergences += count if good_c != at_2.c_good else 0
        if not good_c:
            report.bad_count += count
            continue
        report.good_count += count
        report.histogram[certified] += count
        if certified > report.max_certified:
            report.max_certified, report.max_certified_witness = certified, points
        if certified == bound:
            report.attainer_count += count
            if largest_star(config)[0] != k:
                report.non_star_attainers += count
                report.first_non_star_witness = report.first_non_star_witness or points
    return report


def realize_star(p: int) -> tuple[int, ...]:
    """2p points S +- 4^j around S = 4^p: the only coincidences are the
    star's own (sums, differences and doubles of distinct powers never collide).
    """
    s = 4**p
    points: list[int] = []
    for j in range(p):
        points.extend((s + 4**j, s - 4**j))
    return tuple(points)


def star_bound_check(p_range: Iterable[int]) -> list[dict]:
    """Realize stars of size 2p and verify count p^2 - p and 2-goodness,
    for p in 2..12 (24 points, as many as ``analyze`` accepts)."""
    rows = []
    for p in p_range:
        if not 2 <= p <= 12:
            raise ValueError(f"p must lie in 2..12, got {p}")
        points = realize_star(p)
        config = from_points(points)
        certified = config.certified_count()
        expected = certified_bound(2 * p)
        good = is_c_good(config, TWO).c_good
        star_size, _ = largest_star(config)
        row = {
            "p": p,
            "points": list(points),
            "certified": certified,
            "expected": expected,
            "two_good": good,
            "largest_star": star_size,
        }
        if certified != expected or not good or star_size != 2 * p:
            raise AssertionError(f"star equality case failed: {row}")
        rows.append(row)
    return rows


def odd_equality_case(k: int, seed: int = 0) -> dict:
    """Find a realization of the odd-k equality configuration and verify it.

    The configuration is a star of size k-1 on x_1..x_{k-1} plus the extra
    equation x_k - x_1 = x_3 - x_5; realizations with any additional implied
    equality (detected by rank excess) are rejected.
    """
    if k % 2 == 0 or not 7 <= k <= 13:
        raise ValueError(f"k must be odd in 7..13, got {k}")
    p = (k - 1) // 2
    expected = certified_bound(k)
    rng = random.Random(seed)
    big = 10**6
    for _ in range(ODD_CASE_TRIES):
        offsets = rng.sample(range(1, big), p)
        s = 4 * big
        points = []
        for d in offsets:
            points.extend((s + d, s - d))
        x_k = points[0] + points[2] - points[4]
        points.append(x_k)
        if len(set(points)) != k:
            continue
        config = from_points(points)
        if config.rank != p:
            continue
        certified = config.certified_count()
        certified_pairs = config.certified_pairs()
        has_extras = all(pair in certified_pairs for pair in ((k, 1), (k, 3), (k, 6)))
        good = is_c_good(config, TWO).c_good
        row = {
            "k": k,
            "points": list(points),
            "rank": config.rank,
            "certified": certified,
            "expected": expected,
            "includes_k_1_3_6": has_extras,
            "two_good": good,
        }
        if certified != expected or not has_extras or not good:
            raise AssertionError(f"odd equality case failed: {row}")
        return row
    raise AssertionError(
        f"no realization of the odd-k equality configuration found for k={k} "
        f"after {ODD_CASE_TRIES} tries; this signals a bug"
    )


# ---------------------------------------------------------------------------
# Lemma property suite


def _eq(k: int, content: Sequence[int]) -> DifferenceEquality:
    return DifferenceEquality.from_content(k, tuple(content))


def sec5_figure_premises() -> list[DifferenceEquality]:
    """The four-premise system x1-x2-x3+x4, x1+x2-x5-x6, x1+x4-x7-x8, x1-x5+x7-x9."""
    return [
        _eq(9, (1, -1, -1, 1, 0, 0, 0, 0, 0)),
        _eq(9, (1, 1, 0, 0, -1, -1, 0, 0, 0)),
        _eq(9, (1, 0, 0, 1, 0, 0, -1, -1, 0)),
        _eq(9, (1, 0, 0, 0, -1, 0, 1, 0, -1)),
    ]


def subbox_figure_premises() -> list[DifferenceEquality]:
    """x1-x2-x3+x4, x1+x2-x5-x6, x1+x4-x5-x7, x1+x7-x8-x9 (first three 2-full)."""
    return [
        _eq(9, (1, -1, -1, 1, 0, 0, 0, 0, 0)),
        _eq(9, (1, 1, 0, 0, -1, -1, 0, 0, 0)),
        _eq(9, (1, 0, 0, 1, -1, 0, -1, 0, 0)),
        _eq(9, (1, 0, 0, 0, 0, 0, 1, -1, -1)),
    ]


def three_implication_figure() -> list[DifferenceEquality]:
    """x7-x1-x2+x3, x7+x1-x4-x5, x7+x3-x4-x6: a 2-full 3-implication at hub x7."""
    return [
        _eq(7, (-1, -1, 1, 0, 0, 0, 1)),
        _eq(7, (1, 0, 0, -1, -1, 0, 1)),
        _eq(7, (0, 0, 1, -1, 0, -1, 1)),
    ]


def intersection_figure() -> tuple[list[DifferenceEquality], list[DifferenceEquality]]:
    """Two overlapping 2-full families on 13 variables with a 2-full core."""
    core = [
        _eq(13, (1, -1, -1, 1) + (0,) * 9),
        _eq(13, (1, 1, 0, 0, -1, -1) + (0,) * 7),
        _eq(13, (1, 0, 0, 1, -1, 0, -1) + (0,) * 6),
    ]
    t1 = core + [_eq(13, (1, 0, 0, 0, 0, 0, 1, -1, -1, 0, 0, 0, 0))]
    t2 = core + [
        _eq(13, (1, 0, 0, 0, 0, 0, 1, 0, 0, -1, -1, 0, 0)),
        _eq(13, (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, -1, -1)),
    ]
    return t1, t2


def _hub_content(k: int, hub: int, others: Sequence[int], plus: int) -> tuple[int, ...]:
    """x_hub and others[plus] at +1, the other two of the three ``others`` at
    -1, by ``_sum_content``; all four variables are distinct."""
    minus = [var - 1 for pos, var in enumerate(others) if pos != plus]
    return tuple(_sum_content(k, (hub - 1, others[plus] - 1), minus))


def _random_hub_family(rng: random.Random) -> Optional[list[DifferenceEquality]]:
    """Independent difference equalities through x_k, jointly c-good at PAPER_C.

    The accepted family's canonical rows are carried along, and each draw
    is inserted below them by ``exactlin.echelon``, as
    ``_PatternWalk.extend_rows`` does.  The rows are copied for each draw:
    ``echelon`` back-substitutes into them in place, and a rejected draw
    must leave them as they were.
    """
    k = rng.randint(7, 10)
    hub = k
    target = rng.randint(2, 5)
    eqs: list[DifferenceEquality] = []
    rows: tuple[tuple[int, ...], ...] = ()
    for _ in range(60):
        if len(eqs) == target:
            break
        others = rng.sample(range(1, k), 3)
        cand = _eq(k, _hub_content(k, hub, others, rng.randrange(3)))
        mat = [list(r) for r in rows] + [list(cand.content)]
        rank = exactlin.echelon(mat, k, len(rows))
        if rank == len(rows):
            continue
        trial = tuple(map(tuple, mat[:rank]))
        if not is_c_good(KConfiguration(exactlin.ExactBasis(k, trial)), PAPER_C).c_good:
            continue
        eqs.append(cand)
        rows = trial
    return eqs if len(eqs) >= 2 else None


def _random_general_equality(rng: random.Random, k: int) -> DifferenceEquality:
    """A progression x_a - 2x_b + x_c = 0 one time in four, else
    x_a + x_b - x_c - x_d = 0, on distinct random variables."""
    if rng.random() < 0.25:
        a, b, c = rng.sample(range(k), 3)
        return _eq(k, _sum_content(k, (a, c), (b, b)))
    a, b, c, d = rng.sample(range(k), 4)
    return _eq(k, _sum_content(k, (a, b), (c, d)))


def _random_2full_family(rng: random.Random) -> list[DifferenceEquality]:
    """A chain family: a 2-full hub triple extended by equalities that reuse two
    pooled variables and introduce two fresh ones each.  An extension is
    nonzero on its two fresh variables, where every earlier content is zero,
    so the contents stay independent.  Its two signs on the pooled pair are
    drawn, and ``_sum_content`` balances them on the fresh pair: equal signs
    put the fresh pair on the other side, opposite ones split it."""
    extensions = rng.randint(1, 3)
    k = 7 + 2 * extensions
    base = [
        (1, -1, -1, 1, 0, 0, 0),
        (1, 1, 0, 0, -1, -1, 0),
        (1, 0, 0, 1, -1, 0, -1),
    ]
    contents = [vec + (0,) * (k - 7) for vec in base]
    pool = list(range(7))  # 0-based, as _sum_content takes them
    fresh = 7
    for _ in range(extensions):
        u, v = rng.sample(pool, 2)
        su = rng.choice((1, -1))
        sv = rng.choice((1, -1))
        if su == sv:
            plus, minus = (u, v), (fresh, fresh + 1)
            if su < 0:
                plus, minus = minus, plus
        else:
            up, down = (u, v) if su > 0 else (v, u)
            plus, minus = (up, fresh), (down, fresh + 1)
        contents.append(_sum_content(k, plus, minus))
        pool.extend((fresh, fresh + 1))
        fresh += 2
    return [_eq(k, vec) for vec in contents]


def _check_hub_family(eqs: Sequence[DifferenceEquality], hub: int, outcomes: list) -> None:
    k = eqs[0].k
    impls = minimal_implications(list(eqs), max_t=len(eqs))
    for impl in impls:
        outcomes.append(("hub-implication-size<=4", impl.size <= 4, impl))
        report = check_structure(impl)
        if report.precondition_2good:
            outcomes.append(("structure-clauses", report.all_clauses_pass, impl))
        if impl.size == 3:
            cfg = from_equalities(k, impl.premises)
            certified = sum(1 for i, _ in cfg.certified_pairs() if i == hub)
            outcomes.append(("3-implication-certifies<=5", certified <= 5, impl))
        if impl.size == 2:
            alignment = classify_alignment(impl.premises[0], impl.premises[1], hub)
            outcomes.append(("2-implication-aligned", alignment is not Alignment.NEITHER, impl))
    _check_subbox_prefixes(impls, outcomes)


def _check_subbox_prefixes(impls: Sequence[MinimalImplication], outcomes: list) -> None:
    for impl in impls:
        if any(abs(c) != 1 for c in impl.coefficients):
            continue
        if not is_2_full(impl.premises):
            continue
        k = impl.premises[0].k
        for cut in range(1, impl.size):
            prefix = impl.premises[:cut]
            if not is_2_full(prefix):
                continue
            partial = [0] * k
            for coeff, premise in zip(impl.coefficients[:cut], prefix):
                for col in range(k):
                    partial[col] += coeff * premise.content[col]
            vec = tuple(int(x) for x in partial)
            ok = is_difference_content(vec) and sorted(abs(x) for x in vec if x) == [1, 1, 1, 1]
            outcomes.append(("box-subbox-partial-sum", ok, (impl, cut, vec)))


def _check_pair_claim(rng: random.Random, outcomes: list) -> None:
    k = rng.randint(6, 9)
    for _ in range(60):
        a = _random_general_equality(rng, k)
        b = _random_general_equality(rng, k)
        if a.canonical_content == b.canonical_content:
            continue
        # two primitive contents that differ up to sign are independent
        config = from_equalities(k, (a, b))
        if not is_valid(config)[0] or not is_collinearity_free(config)[0]:
            continue
        variables = set(a.support) | set(b.support)
        outcomes.append(("pair-six-variables", len(variables) >= 6, (a, b)))
        return


def _check_intersection(rng: random.Random, outcomes: list) -> None:
    family = _random_2full_family(rng)
    n = len(family)
    for _ in range(40):
        mask1 = [rng.random() < 0.7 for _ in range(n)]
        mask2 = [rng.random() < 0.7 for _ in range(n)]
        t1 = [eq for eq, keep in zip(family, mask1) if keep]
        t2 = [eq for eq, keep in zip(family, mask2) if keep]
        common = [eq for eq, k1, k2 in zip(family, mask1, mask2) if k1 and k2]
        union = [eq for eq, k1, k2 in zip(family, mask1, mask2) if k1 or k2]
        if not common or t1 == t2:
            continue
        if not (is_2_full(t1) and is_2_full(t2)):
            continue
        k = family[0].k
        if not is_c_good(from_equalities(k, union), TWO).c_good:
            continue
        outcomes.append(("2-full-intersection", is_2_full(common), (t1, t2)))
        return


def _harvest_hub_equalities(config: KConfiguration, hub: int) -> list[DifferenceEquality]:
    """A maximal independent family of implied 4-variable equalities through x_hub.

    x_hub + x_u - x_v - x_w is implied iff {hub, u} and {v, w} share a
    ``pair_sum_classes`` class.  The implied ones are taken greedily in the
    order of the sorted trio (u, v, w), then of u's place in it.
    """
    k = config.k
    implied = []
    for pairs in config.pair_sum_classes():
        for u in [a + b - hub for a, b in pairs if hub in (a, b)]:
            for v, w in pairs:
                if not {v, w} & {hub, u}:
                    trio = sorted((u, v, w))
                    implied.append((trio, trio.index(u)))
    implied.sort()
    contents: list[tuple[int, ...]] = []
    for trio, plus in implied:
        vec = _hub_content(k, hub, trio, plus)
        trial = contents + [vec]
        if exactlin.reduce(trial, k).rank == len(trial):
            contents.append(vec)
    return [_eq(k, vec) for vec in contents]


def _check_points_instance(rng: random.Random, outcomes: list) -> None:
    k = rng.randint(6, 9)
    points = tuple(sorted(rng.sample(range(1, 400), k)))
    config = from_points(points)
    certified = config.certified_count()
    distinct = distinct_difference_count(points)
    outcomes.append(("cross-check", certified == comb(k, 2) - distinct, points))
    if not is_c_good(config, PAPER_C).c_good:
        return
    family = _harvest_hub_equalities(config, k)
    if len(family) >= 2:
        _check_hub_family(family[:6], k, outcomes)


def lemma_property_suite(seed: int = 0, instance_count: int = 1000) -> dict:
    """Seeded structural-lemma stress test; returns pass counts and any
    counterexamples verbatim (none are expected)."""
    rng = random.Random(seed)
    outcomes: list[tuple[str, bool, object]] = []
    instances = 0

    # figure-derived fixed instances
    _check_hub_family(three_implication_figure(), 7, outcomes)
    instances += 1
    sec5 = sec5_figure_premises()
    impls = minimal_implications(sec5, 4)
    four = [im for im in impls if im.size == 4]
    outcomes.append(("sec5-figure-produces", bool(four), sec5))
    if four:
        report = check_structure(four[0])
        outcomes.append(("sec5-figure-structure", report.all_clauses_pass, four[0]))
    instances += 1
    sub = minimal_implications(subbox_figure_premises(), 4)
    _check_subbox_prefixes([im for im in sub if im.size == 4], outcomes)
    instances += 1
    t1, t2 = intersection_figure()
    union = t1 + [eq for eq in t2 if all(eq.content != f.content for f in t1)]
    ok = (
        is_2_full(t1)
        and is_2_full(t2)
        and is_c_good(from_equalities(13, union), TWO).c_good
        and is_2_full([eq for eq in t1 if any(eq.content == f.content for f in t2)])
    )
    outcomes.append(("intersection-figure", ok, (t1, t2)))
    instances += 1

    categories = ("hub", "pair", "intersect", "points")
    while instances < instance_count:
        category = categories[instances % len(categories)]
        if category == "hub":
            family = _random_hub_family(rng)
            if family is not None:
                _check_hub_family(family, family[0].k, outcomes)
        elif category == "pair":
            _check_pair_claim(rng, outcomes)
        elif category == "intersect":
            _check_intersection(rng, outcomes)
        else:
            _check_points_instance(rng, outcomes)
        instances += 1  # a generation miss still consumes an instance slot
    failures = [(name, data) for name, passed, data in outcomes if not passed]
    by_check: Counter = Counter(name for name, _, _ in outcomes)
    return {
        "instances": instances,
        "checks_run": len(outcomes),
        "failures": len(failures),
        "counterexamples": [f"{name}: {data}" for name, data in failures[:10]],
        "checks_by_name": dict(sorted(by_check.items())),
    }
