import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from difflocal import configuration as cfg
from difflocal import exactlin
from difflocal import goodness as gd
from difflocal.harness import PAPER_C, lemma_property_suite, odd_equality_case, realize_star, scan_ground
from difflocal.verifier import BudgetExceededError

from oracles import (
    brute_largest_star,
    frac_rank,
    frac_solvable,
    literal_certified_pairs,
    literal_c_light,
    literal_collinearity_free,
    literal_equality,
    literal_largest_star,
    section_dim,
)

TWO = Fraction(2)


def example_a():
    return cfg.from_equalities(4, [(1, -1, -1, 1), (1, 1, -1, -1)])


def example_b():
    return cfg.from_equalities(5, [(1, -1, -1, 1, 0), (1, 1, -1, 0, -1)])


CUBE = (
    8,
    [
        (1, -1, -1, 1, 0, 0, 0, 0),
        (1, -1, 0, 0, -1, 1, 0, 0),
        (1, -1, 0, 0, 0, 0, -1, 1),
        (1, 0, -1, 0, -1, 0, 1, 0),
    ],
)

# valid and collinearity-free, with its first witness at 2 on six variables
SIX_OF_NINE = (
    9,
    [
        (1, 0, -1, 0, -1, 0, 0, 1, 0),
        (1, 0, 0, -1, 1, -1, 0, 0, 0),
        (0, 0, 0, 1, 0, -1, 0, -1, 1),
        (-1, 0, 0, 0, 0, -1, 1, 0, 1),
        (-1, 1, 1, 0, 0, -1, 0, 0, 0),
    ],
)


def example_c_cube():
    return cfg.from_equalities(*CUBE)


def star_of(k):
    return gd.star_configuration(k, [(2 * i + 1, 2 * i + 2) for i in range(k // 2)])


@st.composite
def equality_systems(draw, min_k=4, max_k=6, distinct=False):
    """(k, contents) of up to four equalities x_a - x_b = x_c - x_d on k
    variables.  With repeated indices allowed, invalid and collinear spans
    occur often; ``distinct`` draws four distinct indices per equality."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    index = st.integers(min_value=0, max_value=k - 1)
    quad = st.lists(index, min_size=4, max_size=4, unique=distinct)
    contents = []
    for a, b, c, d in draw(st.lists(quad, max_size=4)):
        vec = [0] * k
        vec[a] += 1
        vec[b] -= 1
        vec[c] -= 1
        vec[d] += 1
        if any(vec):
            contents.append(tuple(vec))
    return k, contents


class TestValidity:
    def test_example_a_invalid_with_witness_x1_x3(self):
        ok, witness = gd.is_valid(example_a())
        assert not ok
        assert witness == (1, 3)

    def test_from_points_configurations_are_valid(self):
        for points in [(1, 2, 5, 6, 9), (0, 10, 1, 9, 2, 8)]:
            ok, witness = gd.is_valid(cfg.from_points(points))
            assert ok and witness is None

    def test_rank_zero_valid(self):
        assert gd.is_valid(cfg.from_points((0, 1, 3, 7)))[0]


class TestCollinearity:
    def test_example_b_witness(self):
        ok, witness = gd.is_collinearity_free(example_b())
        assert not ok
        assert witness == (0, 2, 0, -1, -1)

    def test_five_points_with_arithmetic_progression(self):
        ok, witness = gd.is_collinearity_free(cfg.from_points((1, 2, 5, 6, 9)))
        assert not ok
        assert witness == (1, 0, -2, 0, 1)

    def test_first_triple_in_lex_order(self):
        # x1, x3, x4 and x1, x2, x5 are progressions; (1, 2, 5) comes first
        config = cfg.from_points((0, 10, 1, 2, 20))
        assert gd.is_collinearity_free(config) == (False, (1, -2, 0, 0, 1))
        assert gd.is_c_good(config, TWO).collinearity_witness == (1, -2, 0, 0, 1)

    def test_stars_are_collinearity_free(self):
        for k in (4, 6, 8, 10):
            ok, witness = gd.is_collinearity_free(star_of(k))
            assert ok and witness is None

    def test_witness_reverifies_as_span_member_with_support_three(self):
        for config in (example_b(), cfg.from_points((1, 2, 5, 6, 9)), cfg.from_points((3, 6, 9, 20))):
            ok, witness = gd.is_collinearity_free(config)
            if ok:
                continue
            assert sum(1 for x in witness if x) == 3
            assert config.implies(witness)


# valid and collinearity-free; its first heaviness witness at 2 is on six variables
SIX_VARIABLE_HEAVY = [
    (1, 0, -1, 0, -1, 0, 0, 1, 0),
    (1, 0, 0, -1, 1, -1, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, -1, 1),
    (-1, 0, 0, 0, 0, -1, 1, 0, 1),
    (-1, 1, 1, 0, 0, -1, 0, 0, 0),
]


class TestLightness:
    """Lightness through ``is_c_good`` on valid, collinearity-free
    configurations, where it is the verdict of the heaviness sweep."""

    def test_cube_is_2_heavy_with_eight_variable_witness(self):
        report = gd.is_c_good(example_c_cube(), TWO)
        assert report.valid and report.collinearity_free and report.c_light is False
        witness = report.heaviness_witness
        assert witness.variables == (1, 2, 3, 4, 5, 6, 7, 8)
        assert witness.t == 4

    def test_first_witness_on_six_variables(self):
        # 6 is the least size is_c_good sweeps; here the first witness has it
        report = gd.is_c_good(cfg.from_equalities(9, SIX_VARIABLE_HEAVY), TWO)
        assert report.valid and report.collinearity_free and not report.c_light
        witness = report.heaviness_witness
        assert witness.variables == (1, 2, 3, 6, 7, 9) and witness.t == 3
        assert section_dim(SIX_VARIABLE_HEAVY, 9, witness.variables) == 3

    def test_cube_heavy_at_paper_c_too(self):
        report = gd.is_c_good(example_c_cube(), PAPER_C)
        assert report.collinearity_free and report.c_light is False

    def test_stars_are_2_light(self):
        for k in (4, 6, 8, 12):
            report = gd.is_c_good(star_of(k), TWO)
            assert report.c_light and report.heaviness_witness is None

    def test_rank_zero_light_for_any_c(self):
        config = cfg.from_points((0, 1, 3, 7))
        for c in (Fraction(3, 2), PAPER_C, TWO):
            assert gd.is_c_good(config, c).c_light

    def test_heaviness_monotone_in_c(self):
        configs = [
            example_c_cube(),
            cfg.from_equalities(9, SIX_VARIABLE_HEAVY),
            cfg.from_points((0, 1, 3, 7)),
            star_of(6),
        ]
        cs = [Fraction(11, 10), Fraction(3, 2), Fraction(19, 10), PAPER_C, TWO]
        for config in configs:
            heavy = [gd.is_c_good(config, c).c_light is False for c in cs]
            # once heavy at some c, heavy at every larger c
            for a, b in zip(heavy, heavy[1:]):
                assert (not a) or b

    def test_heaviness_witness_reverifies_by_independent_rank(self):
        config = example_c_cube()
        report = gd.is_c_good(config, TWO)
        assert report.c_light is False
        witness = report.heaviness_witness
        rows = [list(r) for r in witness.section_basis.rows]
        assert frac_rank(rows) == witness.t >= 1
        for row in rows:
            assert all(row[j] == 0 for j in range(config.k) if (j + 1) not in witness.variables)
            assert frac_solvable([list(r) for r in config.basis.rows], row)
        assert len(witness.variables) < TWO * witness.t + 1

    def test_rejects_c_out_of_range(self):
        with pytest.raises(ValueError):
            gd.is_c_good(star_of(4), Fraction(1))
        with pytest.raises(ValueError):
            gd.is_c_good(star_of(4), Fraction(5, 2))


class TestGoodness:
    def test_star_good_at_2(self):
        for k in (4, 6, 8):
            report = gd.is_c_good(star_of(k), TWO)
            assert report.c_good

    def test_example_b_bad_by_collinearity(self):
        report = gd.is_c_good(example_b(), TWO)
        assert report.valid and report.collinearity_free is False
        assert report.c_light is None  # short-circuited
        assert not report.c_good

    def test_example_c_bad_by_heaviness(self):
        report = gd.is_c_good(example_c_cube(), TWO)
        assert report.valid and report.collinearity_free and report.c_light is False
        assert not report.c_good

    def test_example_a_short_circuits_at_validity(self):
        report = gd.is_c_good(example_a(), TWO)
        assert not report.valid
        assert report.collinearity_free is None and report.c_light is None


@st.composite
def relabelled_heavy_systems(draw):
    """The cube or ``SIX_OF_NINE`` with its variables relabelled, and at
    most one more drawn equality, which may leave it heavy or make it
    collinear or invalid."""
    k, contents = draw(st.sampled_from([CUBE, SIX_OF_NINE]))
    perm = draw(st.permutations(range(k)))
    contents = [tuple(row[perm[i]] for i in range(k)) for row in contents]
    extra = draw(equality_systems(min_k=k, max_k=k))[1][: draw(st.integers(0, 1))]
    return k, contents + extra


class TestOneSearch:
    """``is_c_good`` decides collinearity and heaviness in one ordered
    search; its verdicts and witnesses against the literal oracles."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            equality_systems(max_k=7),
            equality_systems(min_k=6, max_k=8, distinct=True),
            relabelled_heavy_systems(),
        ),
        st.sampled_from([TWO, Fraction(19, 10), Fraction(3, 2), PAPER_C]),
    )
    def test_verdicts_match_literal_oracles(self, system, c):
        k, contents = system
        report = gd.is_c_good(cfg.from_equalities(k, contents), c)
        assert report.equality_witness == literal_equality(contents, k)
        if not report.valid:
            return
        assert report.collinearity_free == literal_collinearity_free(contents, k)
        if not report.collinearity_free:
            witness = report.collinearity_witness
            assert frac_solvable(contents, witness)
            support = tuple(i + 1 for i, x in enumerate(witness) if x)
            assert len(support) == 3
            triples = itertools.combinations(range(1, k + 1), 3)
            assert support == next(s for s in triples if section_dim(contents, k, s) >= 1)
            return
        assert report.c_light == literal_c_light(contents, k, c)
        if not report.c_light:
            witness = report.heaviness_witness
            assert section_dim(contents, k, witness.variables) == witness.t
            assert len(witness.variables) < c * witness.t + 1

    def test_collinearity_needs_a_valid_configuration(self):
        with pytest.raises(ValueError):
            gd.is_collinearity_free(example_a())


def reference_sweep(
    config: cfg.KConfiguration, needs: Sequence[tuple[int, int]], budget: Optional[int] = None
) -> Optional[gd.HeavinessWitness]:
    """The first variable set S, by the sizes of ``needs`` and then
    lexicographically, whose section has t >= the need at |S|.

    The (size, need) pairs have needs that never decrease, so the search
    stops at the first need above the rank; t is the rank minus the rank of
    the basis columns outside S.  Raises BudgetExceededError on visiting
    more than ``budget`` subsets (None: no bound).
    """
    k, r = config.k, config.rank
    visited = 0
    for size, need in needs:
        if need > r:
            break
        for subset in itertools.combinations(range(1, k + 1), size):
            visited += 1
            if budget is not None and visited > budget:
                raise BudgetExceededError(f"heaviness witness sweep exceeds its budget of {budget} subsets")
            outside = [j for j in range(k) if (j + 1) not in subset]
            t = r - exactlin.rank_of_columns(config.basis, outside)
            if t >= need:
                return gd.HeavinessWitness(subset, t, exactlin.section_dim(config.basis, subset)[1])
    return None


def heavy_needs(c: Fraction, sizes: range) -> list[tuple[int, int]]:
    """(|S|, need) pairs of the heaviness test at c = p/q: t >= (|S| - 1)*q // p + 1."""
    p, q = c.numerator, c.denominator
    return [(size, (size - 1) * q // p + 1) for size in sizes]


def sweep_heavy(config, c):
    """Heaviness by the definition: the section search over every size from 2."""
    return reference_sweep(config, heavy_needs(c, range(2, config.k + 1))) is not None


class TestHeavinessDFS:
    """The pruned search over residue rows against the section sweep from
    size 2, on any configuration, valid or not."""

    @pytest.mark.parametrize("p", range(5, 11))
    def test_realized_stars(self, p):
        # the sweep from 2 visits about a million subsets at p = 10
        config = cfg.from_points(realize_star(p))
        assert gd._heavy_by_dfs(config, TWO, None)[0] is None and sweep_heavy(config, TWO) is False

    @pytest.mark.parametrize("k", [9, 11, 13])
    def test_odd_equality_case(self, k):
        config = cfg.from_points(odd_equality_case(k)["points"])
        for c in (TWO, PAPER_C):
            assert gd._heavy_by_dfs(config, c, None)[0] is None and sweep_heavy(config, c) is False

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            equality_systems(max_k=8),
            equality_systems(min_k=6, max_k=9, distinct=True),
            relabelled_heavy_systems(),
        ),
        # PAPER_C has p = 2^30 - 1: the prune in big integers
        st.sampled_from([TWO, Fraction(19, 10), Fraction(3, 2), PAPER_C]),
    )
    def test_systems(self, system, c):
        config = cfg.from_equalities(*system)
        assert (gd._heavy_by_dfs(config, c, None)[0] is not None) == sweep_heavy(config, c)
        assert gd._heaviness_sweep(config, c) == reference_sweep(config, heavy_needs(c, range(6, config.k + 1)))

    def test_witness_may_end_on_an_independent_row(self):
        # x1 = x2 = x3 = x4 is heavy on four variables, so the first 6-set is
        # heavy at 2 though rows 5 and 6 raise no t
        config = cfg.from_equalities(6, [(1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (1, 0, -1, 0, 0, 0)])
        witness = gd._heaviness_sweep(config, TWO)
        assert witness == reference_sweep(config, heavy_needs(TWO, range(6, 7)))
        assert (witness.variables, witness.t) == ((1, 2, 3, 4, 5, 6), 3)

    @staticmethod
    def forbid_column_ranks(monkeypatch):
        def no_rank(*_args):
            raise AssertionError("rank_of_columns called")

        monkeypatch.setattr(exactlin, "rank_of_columns", no_rank)

    def test_decides_without_column_ranks(self, monkeypatch):
        self.forbid_column_ranks(monkeypatch)
        assert gd.is_c_good(cfg.from_points(realize_star(8)), TWO).c_good

    def test_names_witness_without_column_ranks(self, monkeypatch):
        expected = reference_sweep(example_c_cube(), heavy_needs(TWO, range(6, 9)))
        self.forbid_column_ranks(monkeypatch)
        witness = gd.is_c_good(example_c_cube(), TWO).heaviness_witness
        assert witness == expected
        assert (witness.variables, witness.t) == (tuple(range(1, 9)), 4)

    def test_budget_counts_search_nodes(self):
        config = cfg.from_points(realize_star(8))
        nodes = gd._heavy_by_dfs(config, TWO, None)[1]
        assert gd.is_c_good(config, TWO, budget=nodes).c_good
        with pytest.raises(BudgetExceededError):
            gd.is_c_good(config, TWO, budget=nodes - 1)

    def test_budget_counts_witness_sweep_subsets(self):
        config = example_c_cube()
        nodes = gd._heavy_by_dfs(config, TWO, None)[1]
        assert nodes == 8
        # the witness search takes 39 nodes at size 6 and 16 at size 7,
        # then 8 to the witness at size 8
        budget = nodes + 39 + 16 + 8
        unbounded = gd.is_c_good(config, TWO).heaviness_witness
        assert unbounded is not None
        assert gd.is_c_good(config, TWO, budget=budget).heaviness_witness == unbounded
        assert gd.is_c_good(config, TWO, budget=budget) == gd.is_c_good(config, TWO)
        # the search itself fits; the sweep runs out when the witness is read
        report = gd.is_c_good(config, TWO, budget=budget - 1)
        assert report.c_light is False
        with pytest.raises(BudgetExceededError):
            report.heaviness_witness


class TestWitnessOnDemand:
    """A heavy report names its witness only when it is read."""

    @staticmethod
    def forbid_sweep(monkeypatch):
        def no_sweep(*_args):
            raise AssertionError("_heaviness_sweep called")

        monkeypatch.setattr(gd, "_heaviness_sweep", no_sweep)

    def test_heavy_verdict_without_sweep(self, monkeypatch):
        self.forbid_sweep(monkeypatch)
        report = gd.is_c_good(example_c_cube(), TWO)
        assert report.c_light is False
        with pytest.raises(AssertionError, match="_heaviness_sweep"):
            report.heaviness_witness

    @pytest.mark.parametrize(
        "call",
        [
            # the cube 0, 1, 10, 11, 100, ... is heavy at 2
            lambda: gd.points_c_good((0, 1, 10, 11, 100, 101, 110, 111), TWO) is False,
            # (14, 8) holds a pattern heavy at 2 and at the paper's c
            lambda: scan_ground(14, 8, "paper").c2_divergences == 0,
            lambda: lemma_property_suite(seed=0, instance_count=16)["failures"] == 0,
        ],
        ids=["points_c_good", "scan_ground", "lemma_suite"],
    )
    def test_verdict_callers_never_sweep(self, monkeypatch, call):
        self.forbid_sweep(monkeypatch)
        assert call()

    def test_witness_read_once(self, monkeypatch):
        calls = []
        sweep = gd._heaviness_sweep
        monkeypatch.setattr(gd, "_heaviness_sweep", lambda *args: calls.append(args) or sweep(*args))
        report = gd.is_c_good(cfg.from_equalities(*SIX_OF_NINE), TWO)
        assert report.heaviness_witness is report.heaviness_witness
        assert len(report.heaviness_witness.variables) == 6
        assert len(calls) == 1

    def test_reports_compare_by_witness(self):
        cube = gd.is_c_good(example_c_cube(), TWO)
        six = gd.is_c_good(cfg.from_equalities(*SIX_OF_NINE), TWO)
        # the same verdicts, different witnesses
        assert (cube.valid, cube.collinearity_free, cube.c_light) == (six.valid, six.collinearity_free, six.c_light)
        assert cube != six
        again = gd.is_c_good(example_c_cube(), TWO)
        assert cube == again and hash(cube) == hash(again)
        assert repr(cube) == (
            "GoodnessReport(c=Fraction(2, 1), valid=True, collinearity_free=True, c_light=False, "
            f"equality_witness=None, collinearity_witness=None, heaviness_witness={cube.heaviness_witness!r})"
        )


class TestSweepStart:
    @settings(max_examples=100, deadline=None)
    @given(equality_systems(min_k=5, max_k=7, distinct=True))
    def test_small_sections_of_valid_collinearity_free_spans(self, system):
        # why is_c_good sweeps from size 6: here every section has
        # t <= |S| - 3, below the t >= (|S| - 1) // 2 + 1 a witness at
        # c <= 2 needs on 4 and 5 variables
        k, contents = system
        assume(literal_equality(contents, k) is None)
        assume(literal_collinearity_free(contents, k))
        for size in (4, 5):
            for subset in itertools.combinations(range(1, k + 1), size):
                assert section_dim(contents, k, subset) <= size - 3


class TestCToTwoClaim:
    def test_small_c_good_configurations_are_2_good(self):
        # span generated by < 1/(2-c) equalities and c-good implies 2-good
        c = Fraction(19, 10)  # 1/(2-c) = 10
        for points in itertools.combinations(range(1, 13), 4):
            config = cfg.from_points(points)
            if config.rank < 10 and gd.is_c_good(config, c).c_good:
                assert gd.is_c_good(config, TWO).c_good


class TestLargestStar:
    def test_three_pair_star_realization(self):
        size, witness = gd.largest_star(cfg.from_points((0, 10, 1, 9, 2, 8)))
        assert size == 6
        assert witness.pairs == ((1, 2), (3, 4), (5, 6))

    def test_five_point_example_star(self):
        size, witness = gd.largest_star(cfg.from_points((1, 2, 5, 6, 9)))
        assert size == 4
        assert witness.pairs == ((1, 4), (2, 3))

    def test_rank_zero_has_no_star(self):
        size, witness = gd.largest_star(cfg.from_points((0, 1, 3, 7)))
        assert size == 0 and witness is None

    def test_witness_pairs_reverify_in_span(self):
        config = cfg.from_points((0, 10, 1, 9, 2, 8))
        _, witness = gd.largest_star(config)
        pairs = witness.pairs
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            vec = [0] * config.k
            vec[a - 1] += 1
            vec[b - 1] += 1
            vec[c - 1] -= 1
            vec[d - 1] -= 1
            assert config.implies(vec)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            gd.largest_star(example_a())

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=4, max_size=7, unique=True))
    def test_matches_numeric_bruteforce_on_points(self, points):
        size, _ = gd.largest_star(cfg.from_points(points))
        assert size == brute_largest_star(tuple(points))


class TestResidueTable:
    """Certified pairs, validity and stars read off ``residues``, against
    the definitions solved on raw contents, invalid spans included."""

    @settings(max_examples=60, deadline=None)
    @given(equality_systems())
    def test_matches_literal_oracles(self, system):
        k, contents = system
        config = cfg.from_equalities(k, contents)
        assert config.certified_pairs() == literal_certified_pairs(contents, k)
        valid, witness = gd.is_valid(config)
        assert witness == literal_equality(contents, k)
        assert valid == (witness is None)
        if valid:
            assert gd.largest_star(config)[0] == literal_largest_star(contents, k)

    @settings(max_examples=60, deadline=None)
    @given(equality_systems(), st.data())
    def test_rows_decide_congruence(self, system, data):
        k, contents = system
        rows = cfg.from_equalities(k, contents).residues
        vector = st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k)
        v, w = data.draw(vector), data.draw(vector)

        def image(vec):
            return [sum(x * row[col] for x, row in zip(vec, rows)) for col in range(len(rows[0]))]

        diff = [a - b for a, b in zip(v, w)]
        assert (image(v) == image(w)) == frac_solvable(contents, diff)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            equality_systems(max_k=8).map(lambda system: cfg.from_equalities(*system)),
            st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=9, unique=True).map(
                cfg.from_points
            ),
        )
    )
    def test_rows_are_unit_vector_residues(self, config):
        # the closed form against one elimination per unit vector, cut to
        # the free columns and scaled to the shared denominator
        k, basis = config.k, config.basis
        pairs = [exactlin.residue(basis, [int(j == i) for j in range(k)]) for i in range(k)]
        assert all(w[p] == 0 for w, _ in pairs for p in basis.pivots)
        free = [j for j in range(k) if j not in basis.pivots]
        den = lcm(*(d for _, d in pairs))
        assert config.residues == tuple(tuple(w[j] * (den // d) for j in free) for w, d in pairs)


class TestDeskScanBound:
    def test_all_good_4_subsets_of_small_ground_respect_bound(self):
        bound = (16 - 8) // 4
        for points in itertools.combinations(range(1, 17), 4):
            config = cfg.from_points(points)
            if gd.is_c_good(config, TWO).c_good:
                certified = config.certified_count()
                assert certified <= bound
                if certified == bound:
                    assert gd.largest_star(config)[0] == 4


def test_points_c_good_agrees_with_full_machinery():
    for points in itertools.combinations(range(1, 11), 4):
        fast = gd.points_c_good(points, TWO)
        full = gd.is_c_good(cfg.from_points(points), TWO).c_good
        assert fast == full


class TestAgainstDefinitionLiteralOracle:
    """Exhaustive comparison with an independent Fraction-based classifier."""

    @pytest.mark.parametrize(
        "ground,k",
        [(range(1, 13), 4), (range(1, 10), 5), (range(1, 9), 6)],
    )
    def test_goodness_matches_bruteforce(self, ground, k):
        from oracles import brute_c_good, brute_collinearity_free, brute_c_light, brute_valid

        # at 3/2 the integer bound t >= (|S| - 1)*2 // 3 + 1 departs most from c = 2
        for c in (TWO, Fraction(19, 10), Fraction(3, 2)):
            for points in itertools.combinations(ground, k):
                config = cfg.from_points(points)
                report = gd.is_c_good(config, c)
                assert report.c_good == brute_c_good(points, c), (points, c)
                assert report.valid == brute_valid(points)
                if report.collinearity_free is not None:
                    assert report.collinearity_free == brute_collinearity_free(points)
                if report.c_light is not None:
                    assert report.c_light == brute_c_light(points, c)
                    # the search from size 6 finds the same witness as the sweep from 2
                    from_2 = reference_sweep(config, heavy_needs(c, range(2, k + 1)))
                    assert report.heaviness_witness == from_2
