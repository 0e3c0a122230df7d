import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import verifier
from difflocal.constructions import behrend_set, random_local_set

from oracles import brute_distinct_differences


class TestDifferenceSet:
    def test_five_point_example(self):
        assert verifier.difference_set((1, 2, 5, 6, 9)) == [1, 3, 4, 5, 7, 8]

    def test_two_points(self):
        assert verifier.difference_set((0, 7)) == [7]

    def test_arithmetic_progression_attains_lower_extreme(self):
        m = 12
        diffs = verifier.difference_set(range(m))
        assert diffs == list(range(1, m))
        assert len(diffs) == m - 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            verifier.difference_set((3,))

    @settings(max_examples=80, deadline=None)
    @given(st.sets(st.integers(-1000, 1000), min_size=2, max_size=12))
    def test_size_bounds(self, values):
        diffs = verifier.difference_set(sorted(values))
        m = len(values)
        assert m - 1 <= len(diffs) <= comb(m, 2)


class TestCheckLocalProperty:
    def test_arithmetic_progression_minimum(self):
        verdict = verifier.check_local_property(range(10), 4, 4)
        assert not verdict.holds
        assert verdict.min_differences == 3
        # witness is an AP attaining exactly 3 distinct differences
        w = verdict.witness_subset
        assert brute_distinct_differences(w) == 3
        assert w == (0, 1, 2, 3)

    def test_any_k_prefix_of_ap(self):
        for k in (3, 4, 5, 6):
            verdict = verifier.check_local_property(range(8), k, k - 1)
            assert verdict.min_differences == k - 1
            assert verdict.holds

    def test_leaves_no_reference_cycles(self, unreachable_after):
        # the search calls itself, and drops that reference when it ends
        assert unreachable_after(verifier.check_local_property, range(12), 4, 4) == 0

    def test_behrend_set_has_3ap_free_local_property(self):
        art = behrend_set(d=3, m=6, kappa=2)
        assert len(art.elements) >= 3
        verdict = verifier.check_local_property(art.elements, 3, 3)
        assert verdict.holds and verdict.min_differences == 3

    def test_minimum_matches_bruteforce(self):
        points = (0, 1, 4, 9, 11, 16, 20)
        for k in (3, 4, 5):
            verdict = verifier.check_local_property(points, k, 1)
            brute = min(
                brute_distinct_differences(s) for s in itertools.combinations(points, k)
            )
            assert verdict.min_differences == brute
            assert brute_distinct_differences(verdict.witness_subset) == brute

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(-30, 30), min_size=1, max_size=12).filter(
                    lambda values: len(set(values)) >= k
                ),
            )
        )
    )
    def test_minimum_and_witness_against_every_subset(self, k_values):
        # duplicates count once; the witness is the least subset at the minimum
        k, values = k_values
        counts = {s: brute_distinct_differences(s) for s in itertools.combinations(sorted(set(values)), k)}
        least = min(counts.values())
        verdict = verifier.check_local_property(values, k, least)
        assert verdict.min_differences == least
        assert verdict.witness_subset == min(s for s, n in counts.items() if n == least)
        assert verdict.holds

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(0, 10**5), min_size=max(4, k), max_size=14, unique=True),
            )
        )
    )
    def test_sparse_minimum_and_witness_against_every_subset(self, k_values):
        # values far apart repeat few differences, so minima sit near
        # C(k, 2), far above the completion bound of most prefixes; the
        # dense test above has its minima near k - 1
        k, values = k_values
        counts = {s: brute_distinct_differences(s) for s in itertools.combinations(sorted(values), k)}
        least = min(counts.values())
        verdict = verifier.check_local_property(values, k, least + 1)
        assert verdict.min_differences == least
        assert verdict.witness_subset == min(s for s, n in counts.items() if n == least)
        assert not verdict.holds

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(-1000, 1000), min_size=1, max_size=9))
    def test_completion_bound(self, values):
        # the bound the search prunes by: each value added above a nonempty
        # prefix P brings a new difference to min(P)
        s = sorted(values)
        for length in range(1, len(s) + 1):
            prefix = s[:length]
            assert brute_distinct_differences(s) >= brute_distinct_differences(prefix) + len(s) - length

    def test_long_progression_is_decided_by_its_first_subset(self):
        # every 5-subset of range(100) spans at least 4 differences, which
        # (0, 1, 2, 3, 4) attains, so the bound closes every other branch
        verdict = verifier.check_local_property(range(100), 5, 5)
        assert verdict.min_differences == 4
        assert verdict.witness_subset == (0, 1, 2, 3, 4)
        assert not verdict.holds

    def test_built_set_against_every_subset(self):
        elements = random_local_set(20, 4, "19/10", kappa=2, seed=0).elements
        counts = {s: brute_distinct_differences(s) for s in itertools.combinations(sorted(elements), 4)}
        assert len(counts) == 4845
        least = min(counts.values())
        verdict = verifier.check_local_property(elements, 4, 4)
        assert verdict.min_differences == least
        assert verdict.witness_subset == min(s for s, n in counts.items() if n == least)
        assert verdict.holds == (least >= 4)

    def test_monotone_in_ell(self):
        points = (0, 1, 4, 9, 11, 16)
        verdict4 = verifier.check_local_property(points, 4, 4)
        verdict3 = verifier.check_local_property(points, 4, 3)
        if verdict4.holds:
            assert verdict3.holds

    def test_budget_error(self):
        # the budget counts the candidates the search examines, not C(n, k):
        # a 100-term progression at k = 8 is decided by its first subset
        verdict = verifier.check_local_property(range(100), 8, 8, budget=1000)
        assert verdict.min_differences == 7 and not verdict.holds
        # on a sparse set the bound prunes little, so the search runs out
        points = random.Random(2).sample(range(3000), 22)
        message = r"^local-property search: 1002 candidates exceed the budget of 1000$"
        with pytest.raises(verifier.BudgetExceededError, match=message):
            verifier.check_local_property(points, 8, 20, budget=1000)

    def test_leaves_no_reference_cycles_past_its_budget(self, unreachable_after):
        def over_budget():
            try:
                verifier.check_local_property(range(12), 4, 4, budget=5)
            except verifier.BudgetExceededError:
                return
            pytest.fail("the budget of 5 candidates was not exceeded")

        assert unreachable_after(over_budget) == 0

    def test_check_budget_returns_the_limit(self, monkeypatch):
        assert verifier.check_budget(10, "ten", budget=10) == 10
        monkeypatch.setenv(verifier.BUDGET_ENV_VAR, "7")
        assert verifier.check_budget(7, "seven") == 7
        with pytest.raises(verifier.BudgetExceededError, match="^eight: 8 exceeds the budget of 7$"):
            verifier.check_budget(8, "eight")

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv(verifier.BUDGET_ENV_VAR, "10")
        with pytest.raises(verifier.BudgetExceededError):
            verifier.check_local_property(range(10), 4, 4)
        monkeypatch.setenv(verifier.BUDGET_ENV_VAR, "junk")
        with pytest.raises(ValueError):
            verifier.check_local_property(range(10), 4, 4)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, budget):
        # the same check as DIFFLOCAL_BUDGET=0, not an empty budget exceeded
        with pytest.raises(ValueError, match="budget must be positive"):
            verifier.check_local_property(range(10), 4, 4, budget=budget)

    def test_k_bounded_before_the_search(self):
        # the search recurses once per chosen element: k = MAX_LOCAL_K stays
        # well inside the recursion limit, and one more is refused up front
        k = verifier.MAX_LOCAL_K
        verdict = verifier.check_local_property(range(k), k, 1)
        assert verdict.min_differences == k - 1
        with pytest.raises(ValueError, match=f"between 2 and {k}, got {k + 1}"):
            verifier.check_local_property(range(k + 1), k + 1, 1)


class TestCrossCheck:
    def test_five_point_example(self):
        report = verifier.cross_check((1, 2, 5, 6, 9))
        assert report.certified_count == 4
        assert report.distinct_differences == 6
        assert report.total_pairs == 10
        assert report.ok

    def test_star_realization_with_stray_progressions(self):
        # 0,10,1,9,2,8 carries the sum-10 star plus the 3-APs (0,1,2) and
        # (8,9,10) and two further sum coincidences: 7 distinct differences,
        # 8 certified pairs, and the identity still holds
        report = verifier.cross_check((0, 10, 1, 9, 2, 8))
        assert report.distinct_differences == 7
        assert report.certified_count == 8
        assert report.ok

    def test_two_points(self):
        report = verifier.cross_check((5, 9))
        assert report.certified_count == 0
        assert report.distinct_differences == 1
        assert report.ok

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 10**9), min_size=2, max_size=7, unique=True))
    def test_holds_on_random_tuples(self, points):
        assert verifier.cross_check(points).ok
