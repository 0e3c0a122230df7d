import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import configuration as cfg
from difflocal.goodness import PAPER_C, is_c_good

from oracles import (
    brute_certified_count,
    brute_certifies,
    brute_collinearity_free,
    brute_distinct_differences,
    frac_solvable,
    satisfied_contents,
)


class TestDifferenceEquality:
    def test_from_indices_combines_repeats(self):
        eq = cfg.DifferenceEquality.from_indices(5, 1, 2, 2, 4)
        assert eq.content == (1, -2, 0, 1, 0)

    def test_trivial_equation_rejected(self):
        with pytest.raises(ValueError):
            cfg.DifferenceEquality.from_indices(4, 1, 2, 1, 2)

    def test_content_roundtrip(self):
        # every accepted shape is the content of some written equation
        writings = {}
        for indices in itertools.product(range(1, 5), repeat=4):
            try:
                eq = cfg.DifferenceEquality.from_indices(4, *indices)
            except ValueError:
                continue
            writings.setdefault(eq.content, eq)
        for content in [(1, -1, -1, 1), (1, -2, 1, 0), (2, -1, -1, 0), (2, -2, 0, 0), (1, -1, 0, 0)]:
            eq = cfg.DifferenceEquality.from_content(4, content)
            assert eq.content == content
            assert writings[content] == eq

    def test_two_writings_are_one_equality(self):
        a = cfg.DifferenceEquality.from_indices(4, 1, 2, 3, 4)
        b = cfg.DifferenceEquality.from_indices(4, 1, 3, 2, 4)
        assert a == b
        assert a.content == (1, -1, -1, 1)

    @pytest.mark.parametrize(
        "plus,minus,content",
        [
            ((0, 3), (1, 2), (1, -1, -1, 1, 0)),  # four distinct indices
            ((0, 2), (1, 1), (1, -2, 1, 0, 0)),  # the progression x1 - 2*x2 + x3
            ((3, 3), (4, 4), (0, 0, 0, 2, -2)),  # x4 = x5, written twice
        ],
    )
    def test_sum_content(self, plus, minus, content):
        # 0-based: e_a + e_b - e_c - e_d, repeated indices adding up
        vec = cfg._sum_content(5, plus, minus)
        assert tuple(vec) == content
        assert cfg.DifferenceEquality.from_content(5, vec).content == content

    def test_same_equality_up_to_sign(self):
        a = cfg.DifferenceEquality.from_content(4, (1, -1, -1, 1))
        b = cfg.DifferenceEquality.from_content(4, (-1, 1, 1, -1))
        assert a.same_equality(b)

    def test_rejects_non_difference_content(self):
        with pytest.raises(ValueError):
            cfg.DifferenceEquality.from_content(4, (1, -1, -1, 0))  # not zero-sum
        with pytest.raises(ValueError):
            cfg.DifferenceEquality.from_content(4, (3, -1, -1, -1))


class TestFromPoints:
    def test_paper_five_point_system(self):
        # 1,2,5,6,9 satisfies x1-x2 = x3-x4 and x1-x3 = x3-x5
        config = cfg.from_points((1, 2, 5, 6, 9))
        assert config.rank == 2
        assert config.implies((1, -1, -1, 1, 0))
        assert config.implies((1, 0, -2, 0, 1))

    def test_paper_six_point_system(self):
        # 1,2,4,5,9,10 forms {x1-x2 = x3-x4 = x5-x6, x1-2x4+x5 = 0}
        config = cfg.from_points((1, 2, 4, 5, 9, 10))
        assert config.rank == 3
        for content in [(1, -1, -1, 1, 0, 0), (1, -1, 0, 0, -1, 1), (1, 0, 0, -2, 1, 0)]:
            assert config.implies(content)

    def test_four_points_with_all_distinct_differences(self):
        config = cfg.from_points((0, 1, 3, 7))
        assert config.rank == 0

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError):
            cfg.from_points((1, 1, 2, 3))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cfg.from_points((1,))

    def test_span_matches_bruteforce_tuple_enumeration(self):
        for points in [(1, 2, 5, 6, 9), (1, 2, 4, 5, 9, 10), (0, 1, 3, 7), (3, 1, 4, 15, 9, 2)]:
            config = cfg.from_points(points)
            oracle_contents = satisfied_contents(points)
            for content in oracle_contents:
                assert config.implies(content)
            for row in config.basis.rows:
                assert frac_solvable(oracle_contents, row)

    def test_accepts_rationals(self):
        config = cfg.from_points((Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(3), Fraction(9, 2)))
        assert config == cfg.from_points((1, 2, 5, 6, 9))


class TestImplies:
    def test_star_transitivity(self):
        star = cfg.from_equalities(6, [(1, 1, -1, -1, 0, 0), (1, 1, 0, 0, -1, -1)])
        assert star.implies((0, 0, 1, 1, -1, -1))

    def test_collinearity_of_example_b(self):
        config = cfg.from_equalities(5, [(1, -1, -1, 1, 0), (1, 1, -1, 0, -1)])
        assert config.implies((0, 2, 0, -1, -1))

    def test_rank_zero_implies_nothing(self):
        config = cfg.from_points((0, 1, 3, 7))
        assert not config.implies((1, -1, -1, 1))


class TestCertifies:
    def test_star_of_eight_certifies_8_3_and_8_4(self):
        star = cfg.from_equalities(
            8, [(1, 1, -1, -1, 0, 0, 0, 0), (1, 1, 0, 0, -1, -1, 0, 0), (1, 1, 0, 0, 0, 0, -1, -1)]
        )
        assert star.certifies((8, 3))
        assert star.certifies((8, 4))

    def test_five_point_example_certifies_exactly_four_pairs(self):
        config = cfg.from_points((1, 2, 5, 6, 9))
        expected = {(4, 2), (4, 3), (5, 3), (5, 4)}
        for i in range(2, 6):
            for j in range(1, i):
                assert config.certifies((i, j)) == ((i, j) in expected)

    def test_rank_zero_certifies_nothing(self):
        config = cfg.from_points((0, 1, 3, 7))
        assert config.certified_pairs() == []

    def test_invalid_pair_rejected(self):
        config = cfg.from_points((0, 1, 3, 7))
        with pytest.raises(ValueError):
            config.certifies((1, 1))

    def test_against_bruteforce_definition(self):
        for points in [(1, 2, 5, 6, 9), (0, 10, 1, 9, 2, 8), (2, 3, 5, 9), (1, 2, 3, 4, 5)]:
            config = cfg.from_points(points)
            k = len(points)
            for i in range(2, k + 1):
                for j in range(1, i):
                    assert config.certifies((i, j)) == brute_certifies(points, i, j)


class TestCertifiedCount:
    def test_stars_certify_p_squared_minus_p(self):
        for p in range(2, 7):
            k = 2 * p
            contents = []
            for idx in range(1, p):
                vec = [0] * k
                vec[0] = vec[1] = 1
                vec[2 * idx] = vec[2 * idx + 1] = -1
                contents.append(tuple(vec))
            star = cfg.from_equalities(k, contents)
            assert star.certified_count() == p * p - p

    def test_five_point_example(self):
        assert cfg.from_points((1, 2, 5, 6, 9)).certified_count() == 4

    def test_counts_match_bruteforce(self):
        for points in [(1, 2, 5, 6, 9), (0, 10, 1, 9, 2, 8), (7, 1, 4, 2)]:
            assert cfg.from_points(points).certified_count() == brute_certified_count(points)


class TestKConfiguration:
    def test_k_is_the_basis_dimension(self):
        basis = cfg.exactlin.reduce([(1, -1, -1, 1, 0)], 5)
        assert cfg.KConfiguration(basis).k == basis.ambient_dim == 5
        empty = cfg.exactlin.reduce([], 7)
        assert cfg.KConfiguration(empty).k == empty.ambient_dim == 7


class TestPermute:
    def test_identity(self):
        config = cfg.from_points((1, 2, 5, 6, 9))
        assert config.permute((1, 2, 3, 4, 5)) == config

    def test_non_bijection_rejected(self):
        config = cfg.from_points((1, 2, 5, 6, 9))
        with pytest.raises(ValueError):
            config.permute((1, 1, 2, 3, 4))

    def test_star_relabels_to_canonical_form(self):
        scrambled = cfg.from_equalities(5, [(1, -1, 1, 0, -1)])  # x2 + x5 = x1 + x3 rearranged
        sigma = (1, 3, 2, 5, 4)  # sends the sum pairs {2,5},{1,3} to {3,4},{1,2}
        relabeled = scrambled.permute(sigma)
        assert relabeled == cfg.from_equalities(5, [(1, 1, -1, -1, 0)])


exhaustive_cases = [
    points
    for k in (4, 5, 6)
    for points in itertools.combinations(range(1, 9), k)
]


@pytest.mark.parametrize("points", exhaustive_cases[:: 5])
def test_oracle_equivalence_small_exhaustive(points):
    config = cfg.from_points(points)
    assert config.certified_count() == comb(len(points), 2) - brute_distinct_differences(points)


def test_from_equalities_rejects_non_zero_sum_content():
    with pytest.raises(ValueError):
        cfg.from_equalities(4, [(1, -1, -1, 0)])


distinct_ints = st.lists(
    st.integers(min_value=-10**6, max_value=10**6), min_size=4, max_size=6, unique=True
)


@settings(max_examples=120, deadline=None)
@given(distinct_ints)
def test_oracle_equivalence_random(points):
    config = cfg.from_points(points)
    assert config.certified_count() == comb(len(points), 2) - brute_distinct_differences(points)


@settings(max_examples=60, deadline=None)
@given(distinct_ints, st.randoms(use_true_random=False))
def test_from_points_is_permutation_covariant(points, rnd):
    k = len(points)
    sigma = list(range(1, k + 1))
    rnd.shuffle(sigma)
    permuted_points = [None] * k
    for i in range(k):
        permuted_points[sigma[i] - 1] = points[i]
    assert cfg.from_points(permuted_points) == cfg.from_points(points).permute(sigma)
    assert cfg.from_points(permuted_points).certified_count() == cfg.from_points(points).certified_count()


@settings(max_examples=60, deadline=None)
@given(
    distinct_ints,
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50)).filter(lambda f: f != 0),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50)),
)
def test_from_points_scaling_translation_invariance(points, lam, mu):
    transformed = [lam * p + mu for p in points]
    assert cfg.from_points(transformed) == cfg.from_points(points)


@settings(max_examples=80, deadline=None)
@given(distinct_ints)
def test_from_points_is_always_valid(points):
    config = cfg.from_points(points)
    k = len(points)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            vec = [0] * k
            vec[i - 1], vec[j - 1] = 1, -1
            assert not config.implies(vec)


@pytest.mark.parametrize("ground_n, k", [(12, 4), (11, 5), (10, 6)])
def test_difference_pattern_fixes_the_configuration(ground_n, k):
    # the scan and the alteration sweep memoize by pattern
    basis_of: dict[tuple[int, ...], object] = {}
    for points in itertools.combinations(range(1, ground_n + 1), k):
        pattern = cfg.difference_pattern(points)
        basis = cfg.from_points(points).basis
        assert basis_of.setdefault(pattern, basis) == basis, points
        assert len(set(pattern)) == cfg.distinct_difference_count(points)
    assert len(basis_of) > 1


increasing_points = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=7, unique=True),
    st.lists(st.fractions(-100, 100, max_denominator=12), min_size=2, max_size=7, unique=True),
).map(sorted)


@settings(max_examples=120, deadline=None)
@given(
    increasing_points,
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50)),
)
def test_difference_pattern_counts_differences_and_is_affine_invariant(points, a, b):
    pattern = cfg.difference_pattern(points)
    assert len(pattern) == comb(len(points), 2)
    assert len(set(pattern)) == cfg.distinct_difference_count(points)
    assert cfg.difference_pattern([a * x + b for x in points]) == pattern


def literal_first_progression(points):
    for i, j, l in itertools.combinations(range(len(points)), 3):
        if points[j] - points[i] == points[l] - points[j]:
            return i + 1, j + 1, l + 1
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 9).flatmap(
        lambda k: st.lists(
            st.integers(-40, 40) | st.integers(-10**6, 10**6), min_size=k, max_size=k, unique=True
        )
    ).map(sorted)
)
def test_first_progression_is_a_progression_and_makes_a_collinear_set(points):
    # the scan counts a pattern with a progression bad without classifying it
    found = cfg.first_progression(points)
    assert found == literal_first_progression(points)
    if found is None:
        return
    i, j, l = found
    assert points[j - 1] - points[i - 1] == points[l - 1] - points[j - 1]
    assert not brute_collinearity_free(points)
    config = cfg.from_points(points)
    for c in (2, Fraction(19, 10), PAPER_C):
        assert not is_c_good(config, c).c_good
