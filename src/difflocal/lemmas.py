"""The seeded lemma property suite and the paper's section-5 figures.

``lemma_property_suite`` stress-tests the structural lemmas of
``implications`` on seeded random instances (hub families, pairs of
equalities, intersections of 2-full families, and the implied equalities
through one variable of a random point set) plus fixed hand-built systems,
the figures.  Every random family grows its span one content at a time by
``exactlin.extend``.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb
from typing import Optional, Sequence

from . import exactlin
from .configuration import (
    DifferenceEquality,
    KConfiguration,
    _sum_content,
    distinct_difference_count,
    from_equalities,
    from_points,
    is_difference_content,
)
from .goodness import PAPER_C, is_c_good, is_collinearity_free, is_valid
from .implications import (
    Alignment,
    MinimalImplication,
    check_structure,
    classify_alignment,
    is_2_full,
    minimal_implications,
)


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
    extends them by ``exactlin.extend``.
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
        trial = exactlin.extend(rows, [cand.content], k)
        if trial is rows:
            continue
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
        if not is_c_good(from_equalities(k, union), 2).c_good:
            continue
        outcomes.append(("2-full-intersection", is_2_full(common), (t1, t2)))
        return


def _harvest_hub_equalities(config: KConfiguration, hub: int) -> list[DifferenceEquality]:
    """A maximal independent family of implied 4-variable equalities through x_hub.

    x_hub + x_u - x_v - x_w is implied iff {hub, u} and {v, w} share a
    ``pair_sum_classes`` class.  The implied ones are taken greedily in the
    order of the sorted trio (u, v, w), then of u's place in it, each kept
    when it extends the span of those kept before.
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
    rows: tuple[tuple[int, ...], ...] = ()
    for trio, plus in implied:
        vec = _hub_content(k, hub, trio, plus)
        grown = exactlin.extend(rows, [vec], k)
        if grown is not rows:
            contents.append(vec)
            rows = grown
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
        and is_c_good(from_equalities(13, union), 2).c_good
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
