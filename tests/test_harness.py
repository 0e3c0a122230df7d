import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import exactlin, lemmas, scan
from difflocal.configuration import (
    KConfiguration,
    difference_pattern,
    distinct_difference_count,
    first_progression,
    from_equalities,
    from_points,
)
from difflocal.goodness import PAPER_C, is_c_good, largest_star, parse_c
from difflocal.implications import is_2_full
from oracles import (
    all_leads_pattern_counts,
    brute_c_good,
    brute_certified_count,
    brute_distinct_differences,
    brute_largest_star,
    frac_rank,
    frac_solvable,
    satisfied_contents,
)


class TestParseC:
    def test_decimal(self):
        assert parse_c("1.9") == Fraction(19, 10)

    def test_fraction_string(self):
        assert parse_c("19/10") == Fraction(19, 10)

    def test_paper_keyword(self):
        assert parse_c("paper") == Fraction(2) - Fraction(1, 2**29)

    def test_float_reads_as_decimal_everywhere(self):
        config = from_points((1, 2, 4, 8))
        assert parse_c(1.9) == is_c_good(config, 1.9).c == Fraction(19, 10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parse_c("1")
        with pytest.raises(ValueError):
            parse_c("2.1")

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="'1/0'"):
            parse_c("1/0")

    @pytest.mark.parametrize("text", ["1e200000000", "1e-200000000", "1e1000000"])
    def test_huge_exponent_rejected_without_building_the_power(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"'{text}'"):
            parse_c(text)
        assert time.perf_counter() - start < 1

    def test_long_decimal_parses_exactly(self):
        assert parse_c("1.00000000000000000001") == 1 + Fraction(1, 10**20)


class TestCertifiedBound:
    def test_even(self):
        assert scan.certified_bound(4) == 2
        assert scan.certified_bound(6) == 6
        assert scan.certified_bound(8) == 12

    def test_odd(self):
        assert scan.certified_bound(7) == 9
        assert scan.certified_bound(9) == 15


class TestScanGround:
    def test_small_scan_counts(self):
        report = scan.scan_ground(10, 4, "2")
        assert report.subsets_scanned == 210
        assert report.good_count + report.bad_count == 210
        assert report.max_certified == 2
        assert report.bound_respected
        assert report.cross_check_failures == 0
        assert sum(report.histogram.values()) == report.good_count

    def test_max_witness_reverifies_end_to_end(self):
        report = scan.scan_ground(16, 4, "paper")
        points = report.max_certified_witness
        config = from_points(points)
        assert config.certified_count() == report.max_certified == 2
        assert is_c_good(config, PAPER_C).c_good
        assert largest_star(config)[0] == 4

    def test_no_divergence_between_c_values(self):
        report = scan.scan_ground(14, 4, "paper")
        assert report.c2_divergences == 0

    def test_odd_k_bound(self):
        report = scan.scan_ground(12, 5, "2")
        assert report.bound == 5
        assert report.bound_respected

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_below_4_rejected(self, k):
        # the parity bounds are the paper's from k = 4 on; at k = 2 a rank-0
        # subset would meet the bound 0 without counting as an attainer
        with pytest.raises(ValueError, match="4 <= k"):
            scan.scan_ground(5, k, "2")

    def test_budget(self):
        from difflocal.verifier import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            scan.scan_ground(1000, 6, "2", budget=10**6)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            scan.scan_ground(8, 4, "2", budget=budget)

    @pytest.mark.parametrize(
        "ground_n,k,c,most,witness,non_star_witness,non_star",
        [
            (18, 7, "paper", 9, (1, 2, 4, 5, 10, 11, 13), (1, 2, 4, 5, 10, 11, 13), 404),
            (20, 8, "paper", 12, (1, 2, 4, 8, 13, 17, 19, 20), None, 0),
            (26, 7, "paper", 9, (1, 2, 4, 5, 10, 11, 13), (1, 2, 4, 5, 10, 11, 13), 5696),
            (14, 8, "3/2", 15, (1, 2, 4, 5, 10, 11, 13, 14), None, 0),
        ],
    )
    def test_witnesses_are_the_least_subsets(self, ground_n, k, c, most, witness, non_star_witness, non_star):
        # each witness is the least subset of its kind, read off the order
        # in which the walk first meets each pattern
        report = scan.scan_ground(ground_n, k, c)
        assert report.max_certified == most
        assert report.max_certified_witness == witness
        assert report.non_star_attainers == non_star
        # the report names no non-star attainer; the one given here is one
        assert (non_star_witness is None) == (non_star == 0)
        if non_star_witness is not None:
            config = from_points(non_star_witness)
            assert config.certified_count() == report.bound
            assert is_c_good(config, c).c_good and largest_star(config)[0] != k


def reference_scan(ground_n, k, c, classify, distinct):
    """Tally every k-subset of [1..N] one by one, with no memo and no rank-0
    shortcut.  ``classify(points)`` gives (certified, good at c, good at 2,
    star size), the star size only where it is needed."""
    report = scan.ScanReport(ground_n=ground_n, k=k, c=parse_c(c))
    for points in itertools.combinations(range(1, ground_n + 1), k):
        certified, good_c, good_2, star_size = classify(points)
        report.subsets_scanned += 1
        report.cross_check_failures += certified != comb(k, 2) - distinct(points)
        report.c2_divergences += good_c != good_2
        if not good_c:
            report.bad_count += 1
            continue
        report.good_count += 1
        report.histogram[certified] += 1
        # subsets come in lexicographic order: the first is the least
        if certified > report.max_certified:
            report.max_certified = certified
            report.max_certified_witness = points
        if certified == report.bound:
            report.attainer_count += 1
            if star_size != k:
                report.non_star_attainers += 1
    return report


def uncached_classify(c):
    """Classify one subset afresh, by ``is_c_good`` at c and at 2."""

    def classify(points):
        config = from_points(points)
        good_c = is_c_good(config, c).c_good
        star = largest_star(config)[0] if good_c else None
        return config.certified_count(), good_c, is_c_good(config, 2).c_good, star

    return classify


def assert_same_scan(got, want):
    assert got.to_report() == want.to_report()
    assert got.max_certified_witness == want.max_certified_witness


class TestScanMemo:
    """Classification once per difference pattern against routes that
    classify every subset afresh."""

    def test_tally_matches_oracles(self):
        bound = scan.certified_bound(4)

        def classify(points):
            certified = brute_certified_count(points)
            good = brute_c_good(points, 2)
            star = brute_largest_star(points) if good and certified == bound else None
            return certified, good, good, star

        want = reference_scan(10, 4, "2", classify, brute_distinct_differences)
        assert want.attainer_count > 0
        assert_same_scan(scan.scan_ground(10, 4, "2"), want)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=4, max_value=6).flatmap(
            lambda k: st.tuples(st.integers(min_value=k, max_value=12), st.just(k))
        ),
        st.sampled_from(["2", "19/10", "paper"]),
    )
    def test_matches_uncached_loop(self, ground, c):
        ground_n, k = ground
        want = reference_scan(ground_n, k, c, uncached_classify(c), distinct_difference_count)
        assert_same_scan(scan.scan_ground(ground_n, k, c), want)

    @pytest.mark.parametrize("c,divergences", [("3/2", 1), ("paper", 0)])
    def test_heavy_at_2(self, monkeypatch, c, divergences):
        # one basis here is heavy at 2 (the cube 1,2,4,5,10,11,13,14): light at
        # 3/2, heavy at the paper's c.  The scan classifies each pattern once
        # at 2, and the cube once more at c only when c lies below
        # (2 - 1/floor(k/2), 2], where every verdict is the one at 2
        want = reference_scan(14, 8, c, uncached_classify(c), distinct_difference_count)
        assert want.c2_divergences == divergences
        least = least_subsets([(14, 8)])
        classified = sorted(points for points in least if first_progression(points) is None)
        points_of = {from_points(points).basis.rows: points for points in least}
        assert len(points_of) == len(least)
        calls = []

        def recording_is_c_good(config, at, budget=None):
            calls.append((points_of[config.basis.rows], at))
            return is_c_good(config, at, budget)

        monkeypatch.setattr(scan, "is_c_good", recording_is_c_good)
        assert_same_scan(scan.scan_ground(14, 8, c), want)
        assert sorted(points for points, at in calls if at == scan.TWO) == classified
        assert [points for points, at in calls if at != scan.TWO] == [(1, 2, 4, 5, 10, 11, 13, 14)] * divergences

    def test_odd_k_witnesses_match_across_threads(self):
        # every attainer is a non-star at odd k
        single = scan.scan_ground(14, 7, "2")
        assert single.non_star_attainers == single.attainer_count > 0
        assert_same_scan(scan.scan_ground(14, 7, "2", threads=2), single)

    def test_each_pattern_classified_once(self, monkeypatch):
        # one classification per distinct pattern, however many subsets have it
        subsets = itertools.combinations(range(1, 16), 6)
        distinct = len({difference_pattern(points) for points in subsets})
        calls = []

        def counting_configuration(basis):
            calls.append(basis.rows)
            return KConfiguration(basis)

        monkeypatch.setattr(scan, "KConfiguration", counting_configuration)
        scan.scan_ground(15, 6, "paper")
        assert len(set(calls)) == len(calls) == distinct == 777

    def test_progressions_are_not_classified(self, monkeypatch):
        # a pattern with a 3-term progression is collinear, so bad at every c,
        # and is_c_good runs only on the others: 25 of the 786 patterns here
        points_of = {from_points(points).basis.rows: points for points in least_subsets([(36, 4), (15, 6)])}
        assert len(points_of) == 786
        classified = []

        def recording_is_c_good(config, c, budget=None):
            classified.append(points_of[config.basis.rows])
            return is_c_good(config, c, budget)

        monkeypatch.setattr(scan, "is_c_good", recording_is_c_good)
        scan.scan_ground(36, 4, "paper")
        scan.scan_ground(15, 6, "paper")
        assert len(classified) == 25
        assert all(first_progression(points) is None for points in classified)

    def test_scan_never_calls_from_points(self, monkeypatch):
        # the walk builds each pattern's rows from its prefix's
        grounds = [(36, 4, "paper"), (15, 6, "paper"), (14, 8, "3/2")]
        want = {ground: scan.scan_ground(*ground) for ground in grounds}

        def refuse(points):
            raise AssertionError("the scan called from_points")

        monkeypatch.setattr(scan, "from_points", refuse)
        for ground, report in want.items():
            assert_same_scan(scan.scan_ground(*ground), report)

    def test_leaves_no_more_reference_cycles(self, unreachable_after):
        # neither the walk nor the heaviness search at 3/2, which runs on
        # the cube at (14, 8), makes any
        for ground_n, k in [(15, 6), (14, 8)]:
            payload = (ground_n, k, PAPER_C, tuple(range(1, ground_n - k + 2)))
            assert unreachable_after(scan._scan_chunk, payload) == 0
        assert unreachable_after(scan.scan_ground, 15, 6, "paper") == 0
        assert unreachable_after(scan.scan_ground, 14, 8, "3/2") == 0


def least_subsets(grounds):
    """The least subset of each difference pattern of each ground (N, k), by
    a walk over every subset that contains 1."""
    least = {}
    for ground_n, k in grounds:
        for rest in itertools.combinations(range(2, ground_n + 1), k - 1):
            least.setdefault(difference_pattern((1,) + rest), (1,) + rest)
    return list(least.values())


class TestQuotientWalk:
    """``_scan_chunk`` walks only the subsets that contain 1, each weighted
    by its translates; the oracle walks every subset with a lead in ``leads``."""

    @pytest.mark.parametrize("ground_n,k", [(50, 4), (30, 5), (24, 6), (15, 6), (14, 8)])
    def test_counts_match_all_leads_walk(self, ground_n, k):
        leads = tuple(range(1, ground_n - k + 2))
        # each single lead is the call perfbench/workloads.py times per lead
        lead_sets = [leads] + [(lead,) for lead in leads]
        lead_sets += [leads[start::step] for step in (2, 3) for start in range(step)]
        for chosen in lead_sets:
            got = scan._scan_chunk((ground_n, k, PAPER_C, chosen))
            # the oracle labels pairs in combinations order, the walk in
            # colex order: the classes agree, so compare them by least subset
            want = all_leads_pattern_counts(ground_n, k, chosen)
            assert sorted(v[:2] for v in got.values()) == sorted(want.values()), chosen

    def test_every_key_is_the_difference_pattern(self):
        # each leaf looks its key up once, in lexicographic order
        keys = []

        class Recording(dict):
            def get(self, key, default=None):
                keys.append(key)
                return super().get(key, default)

        walk = scan._PatternWalk(15, 6, [1])
        walk.counts = Recording()
        walk.descend(1)
        rests = itertools.combinations(range(2, 16), 5)
        assert keys == [difference_pattern((1,) + rest) for rest in rests]

    @pytest.mark.parametrize("ground_n,k", [(15, 6), (16, 8)])
    def test_patterns_come_in_order_of_least_subset(self, ground_n, k):
        # scan_ground names its witnesses by this order
        leads = tuple(range(1, ground_n - k + 2))
        sizes = []
        for chosen in [leads] + [(lead,) for lead in leads]:
            got = scan._scan_chunk((ground_n, k, PAPER_C, chosen))
            least = [points for _, points, _ in got.values()]
            assert all(a < b for a, b in zip(least, least[1:])), chosen
            sizes.append(len(least))
        # the last lead has one subset; the others have many patterns
        assert sizes[-1] == 1 and min(sizes[:-1]) > 1

    @pytest.mark.parametrize("ground_n,k", [(15, 6), (14, 8), (16, 7)])
    def test_rows_match_from_points(self, ground_n, k):
        got = scan._scan_chunk((ground_n, k, PAPER_C, tuple(range(1, ground_n - k + 2))))
        assert len(got) > 700
        for count, points, rows in got.values():
            assert rows == from_points(points).basis.rows, points

    def test_benchmark_call_starts_no_process(self, monkeypatch):
        # perfbench/workloads.py still passes threads=2, which has no effect
        want = {ground: scan.scan_ground(*ground, "paper") for ground in [(36, 4), (15, 6)]}

        def no_fork():
            raise AssertionError("the scan started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        for (ground_n, k), report in want.items():
            assert_same_scan(scan.scan_ground(ground_n, k, "paper", threads=2), report)


class TestStarBoundCheck:
    def test_p_2_through_6(self):
        rows = scan.star_bound_check(range(2, 7))
        assert [r["certified"] for r in rows] == [2, 6, 12, 20, 30]
        assert all(r["two_good"] for r in rows)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            scan.star_bound_check([13])

    def test_p_9_and_10(self):
        rows = scan.star_bound_check([9, 10])
        assert [r["certified"] for r in rows] == [72, 90]
        assert all(r["two_good"] and r["largest_star"] == 2 * r["p"] for r in rows)


class TestOddEqualityCase:
    def test_k7(self):
        row = scan.odd_equality_case(7)
        assert row["certified"] == 9
        assert row["includes_k_1_3_6"]
        assert row["rank"] == 3

    def test_full_k_range(self):
        for k in (11, 13):
            row = scan.odd_equality_case(k)
            assert row["certified"] == (k - 1) * (k - 3) // 4 + 3

    def test_k_validation(self):
        with pytest.raises(ValueError):
            scan.odd_equality_case(8)
        with pytest.raises(ValueError):
            scan.odd_equality_case(5)


class TestLemmaSuite:
    def test_small_run_has_no_counterexamples(self):
        report = lemmas.lemma_property_suite(seed=3, instance_count=40)
        assert report["failures"] == 0
        assert report["instances"] == 40
        # every category produced checks
        names = set(report["checks_by_name"])
        assert {"hub-implication-size<=4", "pair-six-variables", "2-full-intersection", "cross-check"} <= names

    @pytest.mark.parametrize(
        "points",
        [
            (0, 1, 10, 11, 100, 101, 110, 111),
            scan.realize_star(4),
            (1, 2, 4, 8, 9, 11, 15),
            (3, 7, 12, 18, 19, 25, 31, 40, 44),
        ],
    )
    def test_hub_harvest_matches_literal_greedy(self, monkeypatch, points):
        # the implied x_k + x_u - x_v - x_w, by the sorted trio and then u's
        # place in it, each kept when independent of those kept before
        k = len(points)
        contents = satisfied_contents(points)
        want: list = []
        for trio in itertools.combinations(range(1, k), 3):
            for plus in range(3):
                vec = [0] * k
                vec[k - 1] = 1
                for pos, var in enumerate(trio):
                    vec[var - 1] = 1 if pos == plus else -1
                if frac_solvable(contents, vec) and frac_rank(want + [vec]) == len(want) + 1:
                    want.append(vec)
        monkeypatch.setattr(exactlin, "member", None)  # read off the pair-sum classes
        got = lemmas._harvest_hub_equalities(from_points(points), k)
        assert [list(eq.content) for eq in got] == want

    def test_2full_family_needs_no_retry(self):
        # each extension is nonzero on two fresh variables, where every
        # earlier content is zero, so the first draw is always independent
        for seed in range(500):
            family = lemmas._random_2full_family(random.Random(seed))
            assert family is not None
            contents = [eq.content for eq in family]
            assert frac_rank(contents) == len(contents)
            assert is_2_full(family)

    def test_hub_family_matches_a_loop_that_reduces_every_draw(self, monkeypatch):
        # the generator carries its family's canonical rows and inserts each
        # draw below them; the reference reduces the family and the draw
        # afresh.  The same draws give the same families, and every
        # configuration classified is the reference's
        def reference(rng):
            k = rng.randint(7, 10)
            target = rng.randint(2, 5)
            eqs, bases = [], []
            for _ in range(60):
                if len(eqs) == target:
                    break
                others = rng.sample(range(1, k), 3)
                cand = lemmas._eq(k, lemmas._hub_content(k, k, others, rng.randrange(3)))
                config = from_equalities(k, eqs + [cand])
                if config.rank != len(eqs) + 1:
                    continue
                bases.append(config.basis)
                if is_c_good(config, PAPER_C).c_good:
                    eqs.append(cand)
            return (eqs if len(eqs) >= 2 else None), bases

        classified, accepted = [], []

        def recording_is_c_good(config, c):
            report = is_c_good(config, c)
            classified.append(config.basis)
            if report.c_good:
                accepted.append(config.basis)
            return report

        monkeypatch.setattr(lemmas, "is_c_good", recording_is_c_good)
        families = 0
        for seed in range(500):
            classified.clear()
            want, bases = reference(random.Random(seed))
            assert lemmas._random_hub_family(random.Random(seed)) == want
            assert classified == bases
            if want is not None:
                families += 1
                assert accepted[-1].rows == from_equalities(want[0].k, want).basis.rows
        assert families > 400

    def test_pair_claim_draws_have_rank_2(self, monkeypatch):
        # two primitive contents that differ up to sign are independent
        ranks = []

        def recording_from_equalities(k, eqs):
            config = from_equalities(k, eqs)
            ranks.append(config.rank)
            return config

        monkeypatch.setattr(lemmas, "from_equalities", recording_from_equalities)
        for seed in range(500):
            lemmas._check_pair_claim(random.Random(seed), [])
        assert set(ranks) == {2}

    def test_deterministic_given_seed(self):
        a = lemmas.lemma_property_suite(seed=9, instance_count=20)
        b = lemmas.lemma_property_suite(seed=9, instance_count=20)
        assert a == b


def test_realize_star_has_only_star_coincidences():
    for p in range(2, 7):
        points = scan.realize_star(p)
        config = from_points(points)
        assert config.rank == p - 1


def test_harness_keeps_the_names_the_benchmark_reads():
    # the benchmark calls and traces harness._scan_chunk and reads
    # harness.parse_c; its tracer patches only loaded modules, so importing
    # the package must load harness
    from difflocal import goodness, harness

    assert harness._scan_chunk is scan._scan_chunk
    assert harness.parse_c is goodness.parse_c
    code = "import sys, difflocal; assert 'difflocal.harness' in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(scan.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
