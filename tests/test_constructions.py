import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from difflocal import constructions as con
from difflocal.configuration import difference_pattern, first_progression, from_points
from difflocal.goodness import PAPER_C, is_c_good, points_c_good
from difflocal.verifier import BudgetExceededError
from oracles import (
    brute_alteration_sweep,
    brute_c_good,
    brute_digit_ground_set,
    brute_distinct_differences,
    integer_root,
)


def coefficient_triples(kappa):
    return [
        (a, b, g)
        for a in range(-kappa, kappa + 1)
        for b in range(-kappa, kappa + 1)
        for g in range(-kappa, kappa + 1)
        if a and b and g and a + b + g == 0
    ]


def assert_avoids(elements, kappa):
    triples = coefficient_triples(kappa)
    for s1, s2, s3 in itertools.permutations(elements, 3):
        for a, b, g in triples:
            assert a * s1 + b * s2 + g * s3 != 0, (s1, s2, s3, a, b, g)


class TestBehrendSet:
    def test_worked_example_d2_m3(self):
        art = con.behrend_set(d=2, m=3, kappa=2)
        params = art.provenance["parameters"]
        assert params["base"] == 96
        assert params["r"] == 5  # slice {(1,2),(2,1)}; ties broken to smallest r
        assert art.elements == (98, 193)

    def test_leaves_no_reference_cycles(self, unreachable_after):
        # the sphere-slice walk calls itself, and drops that reference when it ends
        assert unreachable_after(con.behrend_set, d=3, m=6, kappa=2) == 0

    def test_injectivity_output_size_equals_slice(self):
        for d, m, kappa in [(2, 5, 2), (3, 4, 1), (3, 6, 2)]:
            art = con.behrend_set(d=d, m=m, kappa=kappa)
            assert len(art.elements) == art.provenance["parameters"]["slice_size"]
            assert len(set(art.elements)) == len(art.elements)

    def test_r_maximizes_slice_with_smallest_tie(self):
        from collections import Counter

        for d, m in [(2, 3), (2, 4), (3, 4)]:
            art = con.behrend_set(d=d, m=m, kappa=2)
            hist = Counter(
                sum(x * x for x in v) for v in itertools.product(range(1, m + 1), repeat=d)
            )
            best = max(hist.values())
            best_r = min(r for r, cnt in hist.items() if cnt == best)
            assert art.provenance["parameters"]["r"] == best_r
            assert len(art.elements) == best

    def test_avoidance_small(self):
        art = con.behrend_set(d=3, m=5, kappa=2)
        assert len(art.elements) >= 3
        assert_avoids(art.elements, 2)

    def test_single_vector_box(self):
        art = con.behrend_set(d=2, m=1, kappa=2)
        assert len(art.elements) == 1

    def test_elements_within_interval(self):
        art = con.behrend_set(d=3, m=6, kappa=2)
        base = art.provenance["parameters"]["base"]
        assert all(1 <= e <= base**3 for e in art.elements)

    def test_norm_histograms_are_zero_above_j_times_m_squared(self):
        # so each step's sums s + q stay within the top index d * m^2
        for d, m in itertools.product(range(1, 6), range(1, 7)):
            hists = con._norm_histograms(d, m)
            for j, hist in enumerate(hists):
                assert not any(hist[j * m * m + 1 :]), (d, m, j)
                assert sum(hist) == m**j

    def test_degenerate_parameters(self):
        with pytest.raises(con.ConstructionError):
            con.behrend_set(d=1, m=3, kappa=2)
        with pytest.raises(con.ConstructionError):
            con.behrend_set(d=2, m=0, kappa=2)
        with pytest.raises(con.ConstructionError):
            con.behrend_set(d=12, m=10, kappa=2)


class TestBehrendAuto:
    def test_million_gives_d3_and_3ap_free(self):
        art = con.behrend_auto(10**6, 2)
        # d = floor(sqrt(ln 1e6)) = 3 per the formulas
        assert art.provenance["parameters"]["d"] == 3
        assert art.elements[-1] <= 10**6
        if len(art.elements) >= 3:
            assert_avoids(art.elements, 2)

    def test_collapsed_m_is_loud(self):
        with pytest.raises(con.ConstructionError, match="m"):
            con.behrend_auto(16, 2)

    def test_max_element_never_exceeds_n(self):
        for n in (10**6, 10**7):
            art = con.behrend_auto(n, 2)
            assert art.elements[-1] <= n


class TestDigitGroundSet:
    def test_base3_stanley_within_640(self):
        ground = con.digit_ground_set(640, 2)
        assert len(ground) == 64
        assert ground[0] == 1 and ground[-1] == 365
        assert_avoids(ground[:20], 2)  # spot check the avoidance guarantee

    def test_avoidance_exhaustive_small(self):
        for kappa in (2, 3):
            ground = con.digit_ground_set(200, kappa)
            assert_avoids(ground, kappa)

    def test_kappa1_is_every_integer(self):
        # no zero-sum pattern has three nonzero coefficients of magnitude 1
        assert con.digit_ground_set(10, 1) == list(range(1, 11))

    def test_count_matches_the_list(self):
        for kappa in (1, 2, 3, 4):
            for limit in range(1, 300):
                want = brute_digit_ground_set(limit, kappa)
                assert con.digit_ground_set(limit, kappa) == want
                assert con.digit_ground_count(limit, kappa) == len(want)
        assert con.digit_ground_count(640, 2) == 64


class TestPowerFloor:
    def test_exact_roots(self):
        # r^q == n^p exactly: settled by the exact comparison
        assert con.power_floor(27, Fraction(4, 3)) == 81
        assert con.power_floor(26, Fraction(4, 3)) == 77
        assert con.power_floor(9, Fraction(3, 2)) == 27
        assert con.power_floor(30, Fraction(19, 10)) == 640
        assert con.power_floor(100, Fraction(2)) == 10000
        assert con.power_floor(10**30, Fraction(1)) == 10**30

    def test_against_float_for_safe_sizes(self):
        for n in (10, 30, 100):
            for c in (Fraction(3, 2), Fraction(19, 10), Fraction(2)):
                assert con.power_floor(n, c) == int(float(n) ** float(c) + 1e-9)

    def test_against_the_integer_root_of_n_to_the_p(self):
        for n in list(range(1, 60)) + [100, 640, 1000, 4096]:
            for c in (Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(19, 10), Fraction(2)):
                assert con.power_floor(n, c) == integer_root(n**c.numerator, c.denominator), (n, c)

    def test_paper_c_without_n_to_the_p(self):
        # n^2 - n^c = n^2 (1 - n^(-2^-29)) lies in (0, 1) while n^2 * 2^-29 * ln n < 1
        for n in range(4, 201):
            assert con.power_floor(n, PAPER_C) == n * n - 1

    def test_unsettled_comparison_is_over_budget(self):
        # log(n^2 - 1) and c * log(n) agree to within the float margin here,
        # and n^p has about 2^30 * 13 bits
        with pytest.raises(BudgetExceededError, match="bits"):
            con.power_floor(7740, PAPER_C)

    @pytest.mark.parametrize("n, c", [(0, Fraction(2)), (10, Fraction(1, 2)), (10, Fraction(5, 2))])
    def test_outside_the_domain(self, n, c):
        with pytest.raises(ValueError):
            con.power_floor(n, c)


class TestRandomLocalSet:
    def test_end_to_end_n30_k4(self):
        art = con.random_local_set(30, 4, Fraction(19, 10), seed=7)
        assert len(art.elements) == 30
        assert art.elements[-1] <= 640

    def test_same_seed_is_bit_identical(self):
        a = con.random_local_set(20, 4, Fraction(19, 10), seed=11)
        b = con.random_local_set(20, 4, Fraction(19, 10), seed=11)
        assert a.elements == b.elements
        assert a.provenance == b.provenance

    def test_postcondition_all_subsets_good(self):
        art = con.random_local_set(12, 4, Fraction(19, 10), seed=3)
        for subset in itertools.combinations(art.elements, 4):
            assert is_c_good(from_points(subset), Fraction(19, 10)).c_good

    def test_alteration_deletes_and_logs(self):
        # kappa=1 ground is all of [1..limit]: plenty of bad subsets to delete
        art = con.random_local_set(8, 4, Fraction(2), kappa=1, seed=5)
        assert len(art.elements) == 8
        log = art.provenance["deletion_log"]
        assert log, "expected at least one alteration deletion"
        for entry in log:
            assert entry["deleted"] == max(entry["subset"])
            assert not is_c_good(from_points(entry["subset"]), Fraction(2)).c_good

    def test_deletion_log_replays(self):
        import random as _random

        art = con.random_local_set(8, 4, Fraction(2), kappa=1, seed=5)
        prov = art.provenance
        ground = con.digit_ground_set(prov["limit"], prov["parameters"]["kappa"])
        rho = Fraction(prov["rho"])
        if rho >= 1:
            sampled = list(ground)
        else:
            rng = _random.Random(prov["seed_used"])
            threshold = float(rho)
            sampled = [g for g in ground if rng.random() < threshold]
        assert len(sampled) == prov["sampled_size"]
        deleted = {entry["deleted"] for entry in prov["deletion_log"]}
        survivors = [e for e in sampled if e not in deleted]
        replayed = [e for e in survivors if e not in set(prov["trimmed"])]
        assert tuple(replayed) == art.elements

    def test_difference_set_within_interval_bound(self):
        from difflocal.verifier import difference_set

        art = con.random_local_set(20, 4, Fraction(19, 10), seed=1)
        limit = con.power_floor(20, Fraction(19, 10))
        assert len(difference_set(art.elements)) <= limit

    def test_infeasible_parameters(self):
        with pytest.raises(con.ConstructionError):
            con.random_local_set(60, 4, Fraction(11, 10), seed=0)  # ground too small
        with pytest.raises(con.ConstructionError):
            con.random_local_set(10, 3, Fraction(19, 10), seed=0)  # k below 4
        with pytest.raises(con.ConstructionError):
            con.random_local_set(10, 4, Fraction(5, 2), seed=0)  # c out of range

    def test_kappa_below_1(self):
        with pytest.raises(con.ConstructionError, match=r"^kappa must be at least 1, got 0$"):
            con.random_local_set(20, 4, "1.9", kappa=0)

    def test_ground_set_within_2n_is_sampled_whole(self):
        # 11 ground elements for n = 10: rho = 20/11 is reported as 1
        art = con.random_local_set(10, 4, "1.5", kappa=2, seed=0)
        prov = art.provenance
        assert prov["sampled_size"] == prov["ground_size"] == 11
        assert prov["attempt"] == 0 and prov["rho"] == "1"
        assert art.elements == (1, 2, 4, 5, 10, 11, 13, 14, 28, 29)
        assert prov["trimmed"] == [31] and prov["deletion_log"] == []

    def test_huge_n_is_over_budget_before_the_ground_set(self):
        # the ground set inside [1, 10^14] would hold about 10^9 integers
        with pytest.raises(BudgetExceededError, match="ground set"):
            con.random_local_set(10**7, 4, "2")

    def test_n_choose_k_over_budget(self, monkeypatch):
        # every sample has at least n elements, so every sweep would exceed it
        monkeypatch.setenv("DIFFLOCAL_BUDGET", "100")
        with pytest.raises(BudgetExceededError, match=r"C\(9,4\)"):
            con.random_local_set(9, 4, Fraction(19, 10))

    def test_whole_ground_sample_is_tried_once(self, monkeypatch):
        # at n = 8, k = 4, c = 1.01, kappa = 1 the sample is the whole ground
        # set [1..8], so every attempt would sweep it alike and fail alike
        sweeps = []
        sweep = con._alteration_sweep
        monkeypatch.setattr(con, "_alteration_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        with pytest.raises(con.RetriesExhaustedError, match="the sample is the whole ground set"):
            con.random_local_set(8, 4, "1.01", kappa=1, max_retries=200)
        assert len(sweeps) == 1

    def test_exhausted_retries_message_is_one_summary(self):
        # at rho < 1 every attempt fails here; the message summarises them,
        # so its length does not grow with max_retries (a list of every
        # attempt read 158, 785 and 5987 characters)
        messages = []
        for retries in (5, 50, 400):
            with pytest.raises(con.RetriesExhaustedError) as info:
                con.random_local_set(20, 4, "1.3", kappa=1, max_retries=retries)
            messages.append(str(info.value))
        assert messages[0].startswith("no attempt reached 20 survivors after 6 tries; the most was ")
        assert all(len(m) < 120 for m in messages), messages


def first_sample(n, kappa, seed, c=Fraction(19, 10)):
    """The sample of random_local_set's first attempt, by its documented rule."""
    ground = con.digit_ground_set(con.power_floor(n, c), kappa)
    rho = Fraction(2 * n, len(ground))
    if rho >= 1:
        return list(ground)
    rng = random.Random(seed)
    threshold = float(rho)
    return [g for g in ground if rng.random() < threshold]


class TestAlterationSweep:
    """The core-driven sweep against the brute sweep over every k-subset."""

    @pytest.mark.parametrize(
        "sample, k, c",
        [
            (range(1, 13), 4, Fraction(2)),
            (range(1, 11), 5, Fraction(19, 10)),
            (range(1, 10), 6, Fraction(3, 2)),
            ([1, 2, 4, 5, 7, 10, 11, 13, 16, 17], 4, Fraction(19, 10)),
        ],
    )
    def test_tiny_samples_against_the_literal_oracle(self, sample, k, c):
        expected = brute_alteration_sweep(sample, k, lambda points: brute_c_good(points, c))
        assert expected[1], "the sample should delete"
        assert con._alteration_sweep(list(sample), k, c) == expected

    @pytest.mark.parametrize(
        "n, k, kappa, seed, size, deletes",
        [
            (20, 4, 2, 3, 38, False),
            (30, 4, 2, 7, 61, False),  # the sample of random_local_set(30, 4, 1.9, seed=7)
            (28, 4, 1, 0, 66, True),
            (20, 5, 2, 1, 39, False),
            (12, 6, 2, 7, 25, False),
            (10, 6, 1, 7, 21, True),
            (16, 6, 1, 0, 23, True),
            (12, 8, 1, 0, 13, True),
            (10, 8, 1, 7, 21, True),
            (8, 8, 2, 0, 16, True),  # progression-free: it deletes 5 heavy cubes
        ],
    )
    def test_samples_against_the_brute_sweep(self, n, k, kappa, seed, size, deletes):
        c = Fraction(19, 10)
        sample = first_sample(n, kappa, seed)
        assert len(sample) == size
        expected = brute_alteration_sweep(sample, k, lambda points: points_c_good(points, c))
        assert bool(expected[1]) == deletes
        assert con._alteration_sweep(sample, k, c) == expected

    def test_k4_classifies_nothing_on_a_progression_free_sample(self, monkeypatch):
        # two distinct 4-cores need five points, so at k = 4 only a
        # progression makes a subset worth classifying
        def refuse(*args):
            raise AssertionError("a subset without a progression was classified")

        monkeypatch.setattr(con, "points_c_good", refuse)
        monkeypatch.setattr(con, "difference_pattern", refuse)
        sample = first_sample(20, 2, 3)
        assert con._alteration_sweep(sample, 4, Fraction(19, 10)) == (sorted(sample), [])

    @pytest.mark.parametrize(
        "sample, k",
        [
            (list(range(1, 13)), 5),
            (first_sample(16, 1, 0), 6),
            (first_sample(14, 1, 0), 7),
            (first_sample(12, 2, 3), 7),
            (first_sample(8, 2, 0), 8),
        ],
    )
    def test_classified_subsets_repeat_a_difference(self, monkeypatch, sample, k):
        # each subset the sweep classifies holds a seed, a progression or two
        # 4-cores, so its differences are never pairwise distinct
        classified = []
        monkeypatch.setattr(con, "points_c_good", lambda points, c: classified.append(points) or points_c_good(points, c))
        con._alteration_sweep(sample, k, Fraction(19, 10))
        assert classified
        assert all(brute_distinct_differences(points) < comb(k, 2) for points in classified)


def literal_cores(points):
    """The 3-term progressions and the 4-sets w < x < y < z with x - w = z - y
    of an increasing tuple, by trying every triple and quadruple."""
    progressions = [t for t in itertools.combinations(points, 3) if t[1] - t[0] == t[2] - t[1]]
    quads = [q for q in itertools.combinations(points, 4) if q[1] - q[0] == q[3] - q[2]]
    return progressions, quads


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.sets(st.integers(-30, 90), max_size=3))
def test_one_four_core_and_no_progression_is_good(d, s, extra):
    # the subsets the sweep skips: {0, d, s, s + d} is a 4-core, and the
    # extra points add no other core
    points = tuple(sorted({0, d, s, s + d} | extra))
    assume(len(points) == 4 + len(extra))
    progressions, quads = literal_cores(points)
    assume(not progressions and len(quads) == 1)
    for c in (Fraction(2), Fraction(19, 10), Fraction(3, 2), PAPER_C):
        assert brute_c_good(points, c)


class TestVerifyAllGood:
    """The postcondition check, over every subset that repeats a difference and
    apart from the sweep."""

    C = Fraction(19, 10)

    @pytest.mark.parametrize(
        "elements, k, progression",
        [
            ((1, 2, 5, 11, 12, 13), 4, True),  # the progression 11, 12, 13
            # the third 7-subset is collinear (2*12 - 3*17 + 27 = 0) with no
            # progression, at rank 4; at rank 2 collinearity forces a progression
            ((4, 12, 14, 17, 27, 29, 32, 35), 7, False),
        ],
    )
    def test_names_the_first_bad_subset(self, elements, k, progression):
        subsets = list(itertools.combinations(elements, k))
        first = next(s for s in subsets if not brute_c_good(s, self.C))
        assert first != subsets[0]
        assert (first_progression(first) is not None) == progression
        with pytest.raises(con.InvariantError, match=re.escape(f"{first} is not {self.C}-good")):
            con._verify_all_good(elements, k, self.C)

    def test_classifies_each_repeated_pattern_once(self, monkeypatch):
        elements = con.random_local_set(12, 6, self.C, seed=7).elements
        classified = []
        real = con.is_c_good

        def counting(config, c):
            classified.append(config)
            return real(config, c)

        monkeypatch.setattr(con, "is_c_good", counting)
        con._verify_all_good(elements, 6, self.C)
        repeated = {
            difference_pattern(s)
            for s in itertools.combinations(elements, 6)
            if brute_distinct_differences(s) < comb(6, 2)
        }
        assert len(classified) == len(repeated) > 1

    @pytest.mark.parametrize("n, k, seed", [(20, 4, 0), (20, 4, 5), (12, 6, 7)])
    def test_visits_exactly_the_subsets_that_repeat_a_difference(self, monkeypatch, n, k, seed):
        elements = con.random_local_set(n, k, self.C, seed=seed).elements
        visited = []
        sizes = []
        pattern, choose = con.difference_pattern, con.combinations
        monkeypatch.setattr(con, "difference_pattern", lambda points: visited.append(points) or pattern(points))
        monkeypatch.setattr(con, "combinations", lambda items, r: sizes.append(r) or choose(items, r))
        con._verify_all_good(elements, k, self.C)
        repeated = [
            s for s in itertools.combinations(sorted(elements), k) if brute_distinct_differences(s) < comb(k, 2)
        ]
        assert visited == repeated
        assert 0 < len(repeated) < comb(n, k)
        assert max(sizes) < k  # the other k-subsets are never formed

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 7).flatmap(
            lambda k: st.tuples(st.just(k), st.sets(st.integers(1, 8 * k), min_size=k, max_size=k + 3))
        ),
        st.sampled_from([Fraction(2), Fraction(19, 10), Fraction(3, 2)]),
    )
    def test_against_the_literal_oracle(self, k_elements, c):
        # dense small sets hold progressions and 4-cores, so some pass and
        # some name a bad subset
        k, elements = k_elements
        first = next((s for s in itertools.combinations(sorted(elements), k) if not brute_c_good(s, c)), None)
        if first is None:
            con._verify_all_good(elements, k, c)
        else:
            with pytest.raises(con.InvariantError, match=re.escape(f"{first} is not {c}-good")):
                con._verify_all_good(elements, k, c)

    def test_shares_nothing_with_the_sweep(self, monkeypatch):
        elements = con.random_local_set(12, 6, self.C, seed=7).elements

        def refuse(*args):
            raise AssertionError("the postcondition check used the sweep")

        for name in ("_alteration_sweep", "_seeds_by_lead", "points_c_good"):
            monkeypatch.setattr(con, name, refuse)
        con._verify_all_good(elements, 6, self.C)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 6).flatmap(
        lambda k: st.tuples(
            st.just(k), st.sets(st.integers(1, 45), min_size=k, max_size={4: 14, 5: 12, 6: 11}[k])
        )
    ),
    st.sampled_from([Fraction(2), Fraction(19, 10), Fraction(3, 2)]),
)
def test_sweep_matches_the_brute_sweep_on_random_samples(k_sample, c):
    k, sample = k_sample
    expected = brute_alteration_sweep(sample, k, lambda points: points_c_good(points, c))
    assert con._alteration_sweep(sorted(sample), k, c) == expected


class TestBehrendSampling:
    def test_oversized_box_is_rejected_before_the_histograms(self, monkeypatch):
        def histograms(d, m):
            raise AssertionError("norm histograms built for a box that is rejected")

        monkeypatch.setattr(con, "_norm_histograms", histograms)
        with pytest.raises(con.ConstructionError, match=r"150\^40"):
            con.behrend_set(d=40, m=150, kappa=2)
        with pytest.raises(con.ConstructionError, match="dimension d"):
            con.behrend_set(d=1, m=10**9, kappa=2)
        with pytest.raises(con.ConstructionError, match="d at most 27"):
            con.behrend_set(d=1000, m=1, kappa=2)
