"""Desk-scale falsification scans and the bound's equality cases.

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
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from . import exactlin
from .configuration import MAX_VARIABLES, KConfiguration, _sum_content, colex_pairs, first_progression, from_points
from .goodness import decides_as_two, is_c_good, largest_star, parse_c
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
        e_j + e_a - e_i - e_b from ``_sum_content``, by ``exactlin.extend``."""
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
        grown = exactlin.extend(rows, contents, self.k)
        return tuple(map(self.interned.setdefault, grown, grown))


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
    ``max_certified_witness``, the least subset of its kind.
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
