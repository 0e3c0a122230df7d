from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import configuration as cfg
from difflocal import exactlin
from difflocal import implications as imp
from difflocal.lemmas import sec5_figure_premises, subbox_figure_premises, three_implication_figure

from oracles import frac_rank, frac_solvable, literal_candidate_products, literal_minimal_implications


def eq(k, content):
    return cfg.DifferenceEquality.from_content(k, content)


@st.composite
def premise_systems(draw):
    """(k, contents) of up to five equalities x_a - x_b = x_c - x_d on k
    variables, repeated indices allowed, so invalid and collinear spans
    occur; or a star x_1 + x_2 = x_3 + x_4 = ... with up to two extra
    equalities, whose first pair-sum class holds three or more disjoint
    pairs."""
    k = draw(st.integers(min_value=4, max_value=9))
    index = st.integers(min_value=0, max_value=k - 1)
    contents = []
    if k >= 6 and draw(st.booleans()):
        for p in range(1, draw(st.integers(min_value=3, max_value=k // 2))):
            vec = [0] * k
            vec[0] = vec[1] = 1
            vec[2 * p] = vec[2 * p + 1] = -1
            contents.append(tuple(vec))
        extra = 2
    else:
        extra = 5
    for a, b, c, d in draw(st.lists(st.lists(index, min_size=4, max_size=4), max_size=extra)):
        vec = [0] * k
        vec[a] += 1
        vec[b] -= 1
        vec[c] -= 1
        vec[d] += 1
        if any(vec):
            contents.append(tuple(vec))
    return k, contents


@st.composite
def independent_families(draw):
    """(k, contents): up to five independent contents x_a + x_b - x_c - x_d
    on four distinct variables of k <= 9, each draw kept when it is
    independent of those kept before."""
    k = draw(st.integers(min_value=4, max_value=9))
    quads = st.lists(st.integers(min_value=0, max_value=k - 1), min_size=4, max_size=4, unique=True)
    contents = []
    for a, b, c, d in draw(st.lists(quads, max_size=8)):
        vec = [0] * k
        vec[a] = vec[b] = 1
        vec[c] = vec[d] = -1
        if len(contents) < 5 and frac_rank(contents + [vec]) == len(contents) + 1:
            contents.append(vec)
    return k, [tuple(vec) for vec in contents]


class TestCandidateProducts:
    """``_candidate_products`` against solving a linear system for every one
    of the 3*C(|V|,4) sign patterns."""

    @settings(max_examples=200, deadline=None)
    @given(premise_systems(), st.data())
    def test_matches_literal_enumeration(self, system, data):
        k, contents = system
        variables = data.draw(st.sets(st.integers(min_value=1, max_value=k)))
        config = cfg.from_equalities(k, contents)
        assert imp._candidate_products(config, variables) == literal_candidate_products(contents, k, variables)

    @settings(max_examples=200, deadline=None)
    @given(premise_systems())
    def test_every_candidate_is_solved(self, system):
        # one echelon of independent premises writes every candidate of
        # their span, in ``_candidate_products`` order, as a combination of
        # them; candidates lie in the span, so none is unsolvable
        k, contents = system
        premises = []
        for vec in contents:
            if exactlin.reduce([p.content for p in premises] + [vec], k).rank > len(premises):
                premises.append(eq(k, vec))
        config = cfg.from_equalities(k, [p.content for p in premises])
        variables = sorted({v for p in premises for v in p.support})
        solved = imp._solve_coefficients(config, premises)
        assert [cand for cand, _ in solved] == imp._candidate_products(config, variables)
        for cand, coeffs in solved:
            assert frac_solvable(contents, cand)
            assert [sum(c * p.content[j] for c, p in zip(coeffs, premises)) for j in range(k)] == list(cand)

    def test_empty_family_has_nothing_to_solve(self):
        assert imp._solve_coefficients(cfg.from_equalities(5, []), []) == []

    def test_invalid_premises_overlapping_pairs(self):
        # x1 = x2 and x3 = x4: {1,3} ~ {2,3} ~ {1,4} ~ {2,4} in one class
        contents = [(1, -1, 0, 0), (0, 0, 1, -1)]
        config = cfg.from_equalities(4, contents)
        assert [(1, 3), (1, 4), (2, 3), (2, 4)] in config.pair_sum_classes()
        got = imp._candidate_products(config, [1, 2, 3, 4])
        assert got == literal_candidate_products(contents, 4, [1, 2, 3, 4])
        assert got == [(1, -1, 1, -1), (1, -1, -1, 1)]

    def test_star_class_of_four_pairs(self):
        contents = [
            (1, 1, -1, -1, 0, 0, 0, 0),
            (1, 1, 0, 0, -1, -1, 0, 0),
            (1, 1, 0, 0, 0, 0, -1, -1),
        ]
        config = cfg.from_equalities(8, contents)
        assert [(1, 2), (3, 4), (5, 6), (7, 8)] in config.pair_sum_classes()
        got = imp._candidate_products(config, range(1, 9))
        assert len(got) == 6  # C(4, 2) pairs of the star's pairs
        assert got == literal_candidate_products(contents, 8, range(1, 9))

    def test_implications_run_without_membership_tests(self, monkeypatch):
        def no_member(*_args):
            raise AssertionError("exactlin.member called")

        monkeypatch.setattr(exactlin, "member", no_member)
        impls = imp.minimal_implications(sec5_figure_premises())
        four = [m for m in impls if m.size == 4]
        assert len(four) == 1
        assert imp.check_structure(four[0]).all_clauses_pass


class TestMinimalImplications:
    def test_sec5_figure_four_premise_product(self):
        impls = imp.minimal_implications(sec5_figure_premises())
        four = [m for m in impls if m.size == 4]
        assert len(four) == 1
        m = four[0]
        assert m.product == (0, 0, 1, 0, 0, 1, 0, -1, -1)
        assert m.coefficients == (Fraction(-1), Fraction(-1), Fraction(1), Fraction(1))

    def test_single_equality_produces_nothing(self):
        only = [eq(4, (1, -1, -1, 1))]
        assert imp.minimal_implications(only) == []

    def test_sum_aligned_pair_produces_sum_product(self):
        a = eq(6, (1, 1, -1, -1, 0, 0))
        b = eq(6, (1, 1, 0, 0, -1, -1))
        # x_1 plays the hub role: x1 + x2 - x3 - x4 and x1 + x2 - x5 - x6
        impls = imp.minimal_implications([a, b])
        two = [m for m in impls if m.size == 2]
        assert len(two) == 1
        assert two[0].product == (0, 0, 1, 1, -1, -1)
        assert sorted(two[0].coefficients) == [Fraction(-1), Fraction(1)]

    def test_products_reverify_against_oracle_solver(self):
        premises = sec5_figure_premises()
        for m in imp.minimal_implications(premises):
            rows = [list(p.content) for p in m.premises]
            assert frac_solvable(rows, list(m.product))
            combo = [
                sum(c * p.content[j] for c, p in zip(m.coefficients, m.premises))
                for j in range(9)
            ]
            assert tuple(combo) == m.product

    @settings(max_examples=100, deadline=None)
    @given(independent_families())
    def test_matches_literal_subset_walk(self, family):
        k, contents = family
        eqs = [eq(k, vec) for vec in contents]
        impls = imp.minimal_implications(eqs)
        want = literal_minimal_implications(contents, k, len(contents))
        assert [(m.premises, m.product, m.coefficients) for m in impls] == [
            (tuple(eqs[i] for i in subset), products[0], coeffs) for subset, products, coeffs in want
        ]
        for m, (_, products, _) in zip(impls, want):
            second = products[1] if len(products) > 1 else None
            assert imp.check_structure(m).second_product == second

    def test_dependent_family_rejected(self):
        # the third is the second less the first; its independent subsets
        # are not read instead
        a = eq(6, (1, 1, -1, -1, 0, 0))
        b = eq(6, (1, 1, 0, 0, -1, -1))
        c = eq(6, (0, 0, 1, 1, -1, -1))
        assert imp.minimal_implications([a, b])
        with pytest.raises(ValueError, match="equalities are linearly dependent"):
            imp.minimal_implications([a, b, c])
        with pytest.raises(ValueError, match="equalities are linearly dependent"):
            imp.minimal_implications([a, a])

    def test_size_limits(self):
        with pytest.raises(ValueError, match="at most 16 equalities supported, got 17"):
            imp.minimal_implications([eq(4, (1, -1, -1, 1))] * 17)


class TestCheckStructure:
    def test_sec5_figure_passes_all_clauses(self):
        impls = imp.minimal_implications(sec5_figure_premises())
        m = next(m for m in impls if m.size == 4)
        report = imp.check_structure(m)
        assert report.precondition_2good
        assert report.variable_counts_ok
        assert report.variable_count == 9  # 2t+1 with x1 appearing four times
        assert report.appearance_profile[0] == (1, 4)
        assert report.signs_pm1_ok
        assert report.unique_product_ok

    def test_sum_aligned_two_implication_counts(self):
        a = eq(6, (1, 1, -1, -1, 0, 0))
        b = eq(6, (1, 1, 0, 0, -1, -1))
        m = imp.minimal_implications([a, b])[0]
        report = imp.check_structure(m)
        assert report.precondition_2good
        assert report.variable_counts_ok
        assert report.variable_count == 6  # 2t+2 variables, each twice
        assert report.signs_pm1_ok and report.unique_product_ok

    def test_non_pm1_coefficients_fail_clause_and_signal_badness(self):
        # x1 + x2 = x3 + x4 with the degenerate equality x2 = x4 minimally
        # implies x1 - x2 = x3 - x4 with coefficients (1, -2)
        a = eq(4, (1, 1, -1, -1))
        b = eq(4, (0, 1, 0, -1))
        impls = imp.minimal_implications([a, b])
        two = [m for m in impls if m.size == 2]
        assert len(two) == 1
        assert sorted(abs(c) for c in two[0].coefficients) == [1, 2]
        report = imp.check_structure(two[0])
        assert not report.precondition_2good  # the premises imply x2 = x4
        assert not report.signs_pm1_ok

    def test_invalid_premises_detect_second_product(self):
        # {x1 = x2, x3 = x4} minimally implies both x1 + x3 = x2 + x4
        # and x1 + x4 = x2 + x3: uniqueness fails along with validity
        a = eq(4, (1, -1, 0, 0))
        b = eq(4, (0, 0, 1, -1))
        impls = imp.minimal_implications([a, b])
        two = [m for m in impls if m.size == 2]
        assert two
        report = imp.check_structure(two[0])
        assert not report.precondition_2good
        assert not report.unique_product_ok
        assert report.second_product is not None


def test_three_implication_figure_certifies_exactly_five_hub_pairs():
    premises = three_implication_figure()
    config = cfg.from_equalities(7, premises)
    certified = {j for j in range(1, 7) if config.certifies((7, j))}
    assert certified == {1, 2, 4, 5, 6}  # (7,3) stays uncertified


class TestTwoFull:
    def test_single_equality_is_not_2_full(self):
        assert not imp.is_2_full([eq(4, (1, -1, -1, 1))])

    def test_figure_three_implication_is_2_full(self):
        assert imp.is_2_full(three_implication_figure())

    def test_subbox_prefix_is_2_full(self):
        premises = subbox_figure_premises()
        assert imp.is_2_full(premises)  # 4 equations, 9 variables
        assert imp.is_2_full(premises[:3])  # 3 equations, 7 variables
        assert not imp.is_2_full(premises[:2])  # 2 equations, 6 variables

    def test_valid_collinearity_free_pair_is_never_2_full(self):
        # six-variable claim: such pairs span at least six variables, not five
        a = eq(6, (1, 1, -1, -1, 0, 0))
        b = eq(6, (1, 0, -1, 0, 1, -1))
        assert not imp.is_2_full([a, b])

    def test_dependent_input_rejected(self):
        a = eq(4, (1, -1, -1, 1))
        b = eq(4, (-1, 1, 1, -1))
        with pytest.raises(ValueError):
            imp.is_2_full([a, b])


class TestAlignment:
    def test_difference_aligned(self):
        a = eq(7, (-1, -1, 1, 0, 0, 0, 1))  # x7 - x1 - x2 + x3
        b = eq(7, (-1, 0, 0, -1, 1, 0, 1))  # x7 - x1 - x4 + x5
        assert imp.classify_alignment(a, b, 7) is imp.Alignment.DIFFERENCE_ALIGNED

    def test_sum_aligned(self):
        a = eq(7, (1, -1, -1, 0, 0, 0, 1))  # x7 + x1 - x2 - x3
        b = eq(7, (1, 0, 0, -1, -1, 0, 1))  # x7 + x1 - x4 - x5
        assert imp.classify_alignment(a, b, 7) is imp.Alignment.SUM_ALIGNED

    def test_neither_without_shared_variable(self):
        a = eq(7, (-1, -1, 1, 0, 0, 0, 1))
        b = eq(7, (0, 0, 0, 1, -1, -1, 1))  # x7 + x4 - x5 - x6
        assert imp.classify_alignment(a, b, 7) is imp.Alignment.NEITHER

    def test_mixed_signs_are_neither(self):
        a = eq(7, (1, -1, -1, 0, 0, 0, 1))  # x1 carried as +
        b = eq(7, (-1, 0, 0, -1, 1, 0, 1))  # x1 carried as -
        assert imp.classify_alignment(a, b, 7) is imp.Alignment.NEITHER

    def test_missing_hub_rejected(self):
        a = eq(7, (1, -1, -1, 1, 0, 0, 0))
        b = eq(7, (1, 0, 0, -1, -1, 0, 1))
        with pytest.raises(ValueError):
            imp.classify_alignment(a, b, 7)

    def test_alignment_normalizes_orientation(self):
        a = eq(7, (-1, 1, 1, 0, 0, 0, -1))  # negated sum-aligned equality
        b = eq(7, (1, 0, 0, -1, -1, 0, 1))
        assert imp.classify_alignment(a, b, 7) is imp.Alignment.SUM_ALIGNED
