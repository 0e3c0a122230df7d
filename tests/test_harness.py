from fractions import Fraction

import pytest

from difflocal import harness as h
from difflocal.configuration import from_points
from difflocal.goodness import is_c_good, largest_star


class TestParseC:
    def test_decimal(self):
        assert h.parse_c("1.9") == Fraction(19, 10)

    def test_fraction_string(self):
        assert h.parse_c("19/10") == Fraction(19, 10)

    def test_paper_keyword(self):
        assert h.parse_c("paper") == Fraction(2) - Fraction(1, 2**29)

    def test_float_reads_as_decimal_everywhere(self):
        config = from_points((1, 2, 4, 8))
        assert h.parse_c(1.9) == is_c_good(config, 1.9).c == Fraction(19, 10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            h.parse_c("1")
        with pytest.raises(ValueError):
            h.parse_c("2.1")


class TestCertifiedBound:
    def test_even(self):
        assert h.certified_bound(4) == 2
        assert h.certified_bound(6) == 6
        assert h.certified_bound(8) == 12

    def test_odd(self):
        assert h.certified_bound(7) == 9
        assert h.certified_bound(9) == 15


class TestScanGround:
    def test_small_scan_counts(self):
        report = h.scan_ground(10, 4, "2", threads=1)
        assert report.subsets_scanned == 210
        assert report.good_count + report.bad_count == 210
        assert report.max_certified == 2
        assert report.bound_respected
        assert report.cross_check_failures == 0
        assert sum(report.histogram.values()) == report.good_count

    def test_max_witness_reverifies_end_to_end(self):
        report = h.scan_ground(16, 4, "paper", threads=1)
        points = report.max_certified_witness
        config = from_points(points)
        assert config.certified_count() == report.max_certified == 2
        assert is_c_good(config, h.PAPER_C).c_good
        assert largest_star(config)[0] == 4

    def test_threaded_matches_single_thread(self):
        single = h.scan_ground(13, 4, "paper", threads=1)
        multi = h.scan_ground(13, 4, "paper", threads=2)
        assert single.to_report() == multi.to_report()

    def test_worker_count_clamped_to_cores_and_leads(self, monkeypatch):
        import concurrent.futures
        import os

        requested = []

        class SerialPool:
            # stands in for ProcessPoolExecutor: records the size, starts nothing
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        report = h.scan_ground(12, 4, "2", threads=100_000)
        assert requested == [4]
        assert report.to_report() == h.scan_ground(12, 4, "2", threads=1).to_report()
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        h.scan_ground(12, 4, "2", threads=100_000)
        assert requested == [4, 9]  # leads 1..9

    def test_no_divergence_between_c_values(self):
        report = h.scan_ground(14, 4, "paper", threads=1)
        assert report.c2_divergences == 0

    def test_odd_k_bound(self):
        report = h.scan_ground(12, 5, "2", threads=1)
        assert report.bound == 5
        assert report.bound_respected

    def test_budget(self):
        from difflocal.verifier import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            h.scan_ground(1000, 6, "2", budget=10**6)


class TestStarBoundCheck:
    def test_p_2_through_6(self):
        rows = h.star_bound_check(range(2, 7))
        assert [r["certified"] for r in rows] == [2, 6, 12, 20, 30]
        assert all(r["two_good"] for r in rows)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            h.star_bound_check([9])


class TestOddEqualityCase:
    def test_k7(self):
        row = h.odd_equality_case(7)
        assert row["certified"] == 9
        assert row["includes_k_1_3_6"]
        assert row["rank"] == 3

    def test_full_k_range(self):
        for k in (11, 13):
            row = h.odd_equality_case(k)
            assert row["certified"] == (k - 1) * (k - 3) // 4 + 3

    def test_k_validation(self):
        with pytest.raises(ValueError):
            h.odd_equality_case(8)
        with pytest.raises(ValueError):
            h.odd_equality_case(5)


class TestLemmaSuite:
    def test_small_run_has_no_counterexamples(self):
        report = h.lemma_property_suite(seed=3, instance_count=40)
        assert report["failures"] == 0
        assert report["instances"] == 40
        # every category produced checks
        names = set(report["checks_by_name"])
        assert {"hub-implication-size<=4", "pair-six-variables", "2-full-intersection", "cross-check"} <= names

    def test_deterministic_given_seed(self):
        a = h.lemma_property_suite(seed=9, instance_count=20)
        b = h.lemma_property_suite(seed=9, instance_count=20)
        assert a == b


def test_realize_star_has_only_star_coincidences():
    for p in range(2, 7):
        points = h.realize_star(p)
        config = from_points(points)
        assert config.rank == p - 1
