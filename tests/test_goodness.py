import itertools
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Optional, Sequence

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from difflocal import configuration as cfg
from difflocal import exactlin
from difflocal import goodness as gd
from difflocal.goodness import PAPER_C
from difflocal.lemmas import lemma_property_suite
from difflocal.scan import odd_equality_case, realize_star, scan_ground
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
    satisfied_contents,
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
def equality_systems(draw, min_k=4, max_k=6, distinct=False, min_count=0, max_count=4):
    """(k, contents) of ``min_count`` to ``max_count`` equalities
    x_a - x_b = x_c - x_d on k variables.  With repeated indices allowed,
    invalid and collinear spans occur often; ``distinct`` draws four
    distinct indices per equality, a content of support 4."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    index = st.integers(min_value=0, max_value=k - 1)
    quad = st.lists(index, min_size=4, max_size=4, unique=distinct)
    contents = []
    for a, b, c, d in draw(st.lists(quad, min_size=min_count, max_size=max_count)):
        vec = [0] * k
        vec[a] += 1
        vec[b] -= 1
        vec[c] -= 1
        vec[d] += 1
        if any(vec):
            contents.append(tuple(vec))
    return k, contents


@st.composite
def scaled_systems(draw, min_k=3, max_k=8):
    """(k, contents) of up to four zero-sum contents, each k - 1 entries
    in -20..20 and one that balances them, so the canonical basis and the
    residue table hold large entries."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    head = st.lists(st.integers(min_value=-20, max_value=20), min_size=k - 1, max_size=k - 1)
    contents = []
    for vec in draw(st.lists(head, max_size=4)):
        if any(vec):
            contents.append((*vec, -sum(vec)))
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


@st.composite
def progression_points(draw):
    """Distinct points, in a drawn order, that hold the 3-term progressions
    x, x + d, x + 2d and x, x + e, x + 2e, so several triples are
    dependent and, in some orders, two dependent pairs of one point nest;
    up to three more points may add further ones."""
    x = draw(st.integers(min_value=0, max_value=8))
    d, e = draw(st.lists(st.integers(min_value=-8, max_value=8).filter(bool), min_size=2, max_size=2, unique=True))
    extra = draw(st.lists(st.integers(min_value=0, max_value=24), max_size=3))
    points = {x, x + d, x + 2 * d, x + e, x + 2 * e, *extra}
    return draw(st.permutations(sorted(points)))


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

    @settings(max_examples=100, deadline=None)
    @given(progression_points())
    def test_witness_is_the_first_dependent_triple(self, points):
        # the witness is the first dependent triple: the lexicographically
        # first S whose section is nonzero, the whole span's rank exceeding
        # its rank on the other columns
        k = len(points)
        contents = satisfied_contents(points)
        full = frac_rank(contents)
        dependent = [
            s
            for s in itertools.combinations(range(1, k + 1), 3)
            if frac_rank([[row[j] for j in range(k) if j + 1 not in s] for row in contents]) < full
        ]
        assume(len(dependent) >= 2)
        ok, witness = gd.is_collinearity_free(cfg.from_points(points))
        assert not ok
        assert tuple(j + 1 for j, x in enumerate(witness) if x) == dependent[0]
        assert frac_solvable(contents, witness)
        assert gcd(*witness) == 1 and next(x for x in witness if x) > 0

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
    configurations, where it is the verdict of the partition or the search."""

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
def relabelled_heavy_systems(draw, max_k=None, extras=1):
    """The cube or ``SIX_OF_NINE`` with its variables relabelled among
    k <= ``max_k`` (default: its own k), and at most ``extras`` more drawn
    equalities, which may leave it heavy or make it collinear or invalid.
    On more than its own variables it is heavy on fewer than all k rows."""
    base, contents = draw(st.sampled_from([CUBE, SIX_OF_NINE]))
    k = draw(st.integers(base, max_k or base))
    place = draw(st.permutations(range(k)))
    placed = []
    for row in contents:
        vec = [0] * k
        for j, x in enumerate(row):
            vec[place[j]] = x
        placed.append(tuple(vec))
    extra = draw(equality_systems(min_k=k, max_k=k))[1][: draw(st.integers(0, extras))]
    return k, placed + extra


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


def search_heavy(config, c):
    """Heaviness by the witness search at every size from 1."""
    return any(gd._heavy_by_dfs(config, c, None, size)[0] is not None for size in range(1, config.k + 1))


def reference_search(config: cfg.KConfiguration, c: Fraction) -> tuple[Optional[tuple[int, ...]], int]:
    """The first heavy variable set at c (1-based), or None, by the pruned
    search over every size at once, and the number of nodes it visits.

    S grows by one residue row at a time, and a branch stops at the first
    heavy S: t = |S| - rank(S) rises only with a row that reduces to zero,
    and a branch is cut when no S + T, T in {i..k-1}, can be heavy, as in
    the witness search of ``goodness._heavy_by_dfs``, which fixes the size.
    """
    rows = config.residues
    k, r = config.k, config.rank
    p, q = c.numerator, c.denominator
    echelon: list[list[int]] = []
    pivots: list[int] = []
    nodes = 0

    def heavy_from(start: int, s: int, rho: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        for i in range(start, k):
            if (p - q) * min(s + k - i, rho + r, k) - p * rho <= -q:
                return None
            nodes += 1
            w = list(rows[i])
            exactlin._eliminate(w, echelon, pivots)
            pivot = exactlin._leading(w)
            if pivot is None:
                if p * (s + 1 - rho) > q * s:
                    return (i + 1,)
                found = s + 1 < k and heavy_from(i + 1, s + 1, rho)
            else:
                echelon.append(w)
                pivots.append(pivot)
                found = heavy_from(i + 1, s + 1, rho + 1)
                echelon.pop()
                pivots.pop()
            if found:
                return (i + 1,) + found
        return None

    return heavy_from(0, 0, 0), nodes


def ratios(k):
    """R_k of ``snap_c``: the ratios (s - 1)/t < 2 with 6 <= s <= k and 3 <= t <= s - 3."""
    return sorted({Fraction(s - 1, t) for s in range(6, k + 1) for t in range(3, s - 2) if s - 1 < 2 * t})


def simplest_between(lo, hi):
    """The fraction of least denominator in the open interval (lo, hi)."""
    q = 1
    while Fraction(lo.numerator * q // lo.denominator + 1, q) >= hi:
        q += 1
    return Fraction(lo.numerator * q // lo.denominator + 1, q)


def thresholds(k):
    """c in R_k, just above each element of R_k (the simplest fraction
    before the next element or 2), and in (1, 2] with denominator <= 6."""
    rk = ratios(k)
    above = [simplest_between(x, y) for x, y in zip(rk, rk[1:] + [TWO])]
    small = [Fraction(p, q) for q in range(1, 7) for p in range(q + 1, 2 * q + 1)]
    return sorted(set(rk + above + small))


# the partition's independence tests at 2 on the light 2p-point star and
# on the odd-k equality case
STAR_STEPS = {5: 23, 6: 28, 7: 33, 8: 38, 9: 43, 10: 48}
ODD_CASE_STEPS = {9: 20, 11: 25, 13: 30}


class TestHeavinessDFS:
    """The verdict by partition and the witness search at every size
    against the section sweep from size 2, on any configuration, valid or
    not."""

    @pytest.mark.parametrize("p", range(5, 11))
    def test_realized_stars(self, p):
        # the sweep from 2 visits about a million subsets at p = 10
        config = cfg.from_points(realize_star(p))
        assert gd._light_by_partition(config, TWO) == (True, STAR_STEPS[p])
        assert sweep_heavy(config, TWO) is False

    @pytest.mark.parametrize("k", [9, 11, 13])
    def test_odd_equality_case(self, k):
        config = cfg.from_points(odd_equality_case(k)["points"])
        for c in (TWO, PAPER_C):
            assert gd._light_by_partition(config, gd.snap_c(c, k)) == (True, ODD_CASE_STEPS[k])
            assert sweep_heavy(config, c) is False

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
        assert search_heavy(config, c) == sweep_heavy(config, c)
        assert gd._heaviness_sweep(config, c) == reference_sweep(config, heavy_needs(c, range(6, config.k + 1)))

    def test_leaves_no_reference_cycles(self, unreachable_after):
        # the search calls itself, and drops that reference when it ends
        assert unreachable_after(gd.is_c_good, example_c_cube(), Fraction(3, 2)) == 0
        assert unreachable_after(gd._heavy_by_dfs, example_c_cube(), TWO, None, 8) == 0

    def test_leaves_no_reference_cycles_past_its_budget(self, unreachable_after):
        def over_budget():
            try:
                gd._heavy_by_dfs(example_c_cube(), TWO, 5, 8)
            except BudgetExceededError:
                return
            pytest.fail("the budget of 5 nodes was not exceeded")

        assert unreachable_after(over_budget) == 0

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

    @pytest.mark.parametrize("p, nodes", zip(range(5, 11), [261, 755, 2205, 6515, 19493, 58939]))
    def test_star_node_counts(self, p, nodes):
        # the search over every size finds no heavy set, in the pinned
        # number of nodes, and the partition agrees
        config = cfg.from_points(realize_star(p))
        assert reference_search(config, TWO) == (None, nodes)
        assert gd._light_by_partition(config, TWO)[0] is True

    @pytest.mark.parametrize("k, nodes", [(9, 157), (11, 447), (13, 1289)])
    def test_odd_equality_case_node_counts(self, k, nodes):
        config = cfg.from_points(odd_equality_case(k)["points"])
        for c in (TWO, PAPER_C):
            assert reference_search(config, c) == (None, nodes)
            assert gd._light_by_partition(config, gd.snap_c(c, k))[0] is True

    @pytest.mark.parametrize("c", [TWO, PAPER_C, Fraction(3, 2)])
    def test_budget_counts_partition_steps(self, c):
        # the partition decides the verdict at every c: 16 rows to cover,
        # and 38 independence tests in all at 2 and at the paper's c, which
        # snaps to 2; at 3/2 each row must join 3 sets, in 52 tests
        config = cfg.from_points(realize_star(8))
        steps = 52 if c == Fraction(3, 2) else 38
        assert gd._light_by_partition(config, gd.snap_c(c, 16)) == (True, steps)
        assert gd.is_c_good(config, c, budget=steps).c_good
        with pytest.raises(BudgetExceededError, match=f"^matroid partition exceeds its budget of {steps - 1} steps$"):
            gd.is_c_good(config, c, budget=steps - 1)

    def test_budget_counts_witness_sweep_subsets(self):
        config = example_c_cube()
        # 8 rows of rank 4 are heavy with no independence test
        assert gd._light_by_partition(config, TWO) == (False, 0)
        # the witness search takes 39 nodes at size 6 and 16 at size 7,
        # then 8 to the witness at size 8
        budget = 39 + 16 + 8
        unbounded = gd.is_c_good(config, TWO).heaviness_witness
        assert unbounded is not None
        assert gd.is_c_good(config, TWO, budget=budget).heaviness_witness == unbounded
        assert gd.is_c_good(config, TWO, budget=budget) == gd.is_c_good(config, TWO)
        # the search itself fits; the sweep runs out when the witness is
        # read, and names the budget it was given, not what size 8 had left
        report = gd.is_c_good(config, TWO, budget=budget - 1)
        assert report.c_light is False
        with pytest.raises(BudgetExceededError, match="^heaviness search exceeds its budget of 62 nodes$"):
            report.heaviness_witness

    @pytest.mark.parametrize(
        "c, size, t, nodes",
        [(TWO, 8, 4, 2725), (Fraction(7, 4), 11, 6, 7688), (Fraction(3, 2), 14, 9, 4209)],
    )
    def test_budget_counts_witness_nodes_above_8_variables(self, c, size, t, nodes):
        # the 16-point cube: its 16 rows of rank 5 are heavy at each c with
        # no independence test, and the witness search takes ``nodes`` nodes
        # over every size up to the witness's
        config = cfg.from_points([int(f"{i:b}") for i in range(16)])
        assert gd._light_by_partition(config, gd.snap_c(c, 16)) == (False, 0)
        witness = gd.is_c_good(config, c, budget=nodes).heaviness_witness
        assert witness == gd.is_c_good(config, c).heaviness_witness
        assert (witness.variables, witness.t) == (tuple(range(1, size + 1)), t)
        report = gd.is_c_good(config, c, budget=nodes - 1)
        with pytest.raises(BudgetExceededError, match=f"^heaviness search exceeds its budget of {nodes - 1} nodes$"):
            report.heaviness_witness

    def test_witness_refusal_names_the_whole_budget(self):
        # the 8-point cube and three generic points: the verdict at 2 makes
        # 23 tests and the search 400 nodes, counted against one budget
        config = cfg.from_points((0, 1, 10, 11, 100, 101, 110, 111, 5003, 70019, 900037))
        assert gd._light_by_partition(config, TWO) == (False, 23)
        witness = gd.is_c_good(config, TWO, budget=423).heaviness_witness
        assert witness.variables == tuple(range(1, 9))
        for budget in (422, 100):
            report = gd.is_c_good(config, TWO, budget=budget)
            with pytest.raises(BudgetExceededError, match=f"^heaviness search exceeds its budget of {budget} nodes$"):
                report.heaviness_witness


class TestPartition:
    """The verdict by matroid partition against the search and the
    literal definition, on any configuration, valid or not."""

    # the literal oracle tries every one of the 2^k sets of a light span
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            equality_systems(min_k=6, max_k=11, distinct=True, min_count=1, max_count=6),
            # heavy on fewer than all k rows, so the partition runs to the end
            relabelled_heavy_systems(max_k=11, extras=2),
        )
    )
    # x1 = x2 = x3: the third row cannot join the cover
    @example((9, [(1, -1, 0, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0, 0, 0)]))
    # the cube on 9 variables: covered, but no row of the cube joins twice
    @example((9, [row + (0,) for row in CUBE[1]]))
    def test_matches_search_and_literal_oracle(self, system):
        k, contents = system
        config = cfg.from_equalities(k, contents)
        light = gd._light_by_partition(config, TWO)[0]
        assert light == (not search_heavy(config, TWO))
        assert light == literal_c_light(contents, k, TWO)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            equality_systems(max_k=7),
            equality_systems(min_k=6, max_k=10, distinct=True, min_count=1, max_count=6),
            relabelled_heavy_systems(max_k=10, extras=2),
        ).flatmap(lambda system: st.tuples(st.just(system), st.sampled_from(thresholds(system[0]))))
    )
    # the cube is light at 7/4 and heavy at 9/5, the simplest c above 7/4
    # and below 2, the next element of R_8 and 2
    @example(((8, CUBE[1]), Fraction(7, 4)))
    @example(((8, CUBE[1]), Fraction(9, 5)))
    def test_matches_literal_oracle_at_every_c(self, drawn):
        (k, contents), c = drawn
        light = gd._light_by_partition(cfg.from_equalities(k, contents), c)[0]
        assert light == literal_c_light(contents, k, c)

    @pytest.mark.parametrize("p", range(3, 13))
    def test_realized_stars(self, p):
        config = cfg.from_points(realize_star(p))
        for c in (TWO, Fraction(19, 10), Fraction(7, 4), Fraction(3, 2)):
            assert gd._light_by_partition(config, gd.snap_c(c, 2 * p))[0] is True

    def test_cubes(self):
        for config in (example_c_cube(), cfg.from_points((1, 2, 4, 5, 10, 11, 13, 14))):
            assert gd._light_by_partition(config, TWO)[0] is False
            assert search_heavy(config, TWO)
            assert literal_c_light([list(row) for row in config.basis.rows], 8, TWO) is False


class TestTwoRange:
    """Every c in (2 - 1/floor(k/2), 2] decides as c = 2: there ``snap_c``
    is 2."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            equality_systems(min_k=6, max_k=11, distinct=True, min_count=1, max_count=6),
            relabelled_heavy_systems(max_k=11, extras=2),
        )
    )
    def test_search_decides_as_2(self, system):
        config = cfg.from_equalities(*system)
        self.assert_decides_as_2(config)

    @pytest.mark.parametrize("p", [5, 10])
    def test_realized_stars(self, p):
        self.assert_decides_as_2(cfg.from_points(realize_star(p)))

    @staticmethod
    def assert_decides_as_2(config):
        # by the search at every size, on any configuration, valid or not
        k = config.k
        cs = [PAPER_C, 2 - Fraction(1, k // 2) + Fraction(1, 1000)]
        if k < 20:
            cs.append(Fraction(19, 10))
        at_2 = search_heavy(config, TWO)
        for c in cs:
            assert gd.snap_c(c, k) == TWO
            assert search_heavy(config, c) == at_2, c

    def test_cube_bounds_the_range(self, monkeypatch):
        # the cube is light at 7/4 = 2 - 1/floor(8/2) and heavy just above
        # it, and the partition decides all three
        config = cfg.from_points((1, 2, 4, 5, 10, 11, 13, 14))
        routes = []
        for name in ("_light_by_partition", "_heavy_by_dfs"):
            route = getattr(gd, name)
            monkeypatch.setattr(gd, name, lambda *args, route=route, name=name: routes.append(name) or route(*args))
        verdicts = [gd.is_c_good(config, c).c_light for c in (Fraction(7, 4), Fraction(176, 100), TWO)]
        assert verdicts == [True, False, False]
        assert routes == ["_light_by_partition"] * 3


class TestSnap:
    """``snap_c`` moves c to the least ratio (|S| - 1)/t of R_k, or 2, at
    or above it, which leaves every verdict of a valid, collinearity-free
    configuration as it was."""

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 9, 12, 24, 64])
    def test_two_exactly_above_the_range(self, k):
        edge = 2 - Fraction(1, k // 2)
        rk = ratios(k)
        for c in (PAPER_C, TWO, Fraction(19, 10), Fraction(3, 2), Fraction(11, 10), edge, edge + Fraction(1, 10**6)):
            snapped = gd.snap_c(c, k)
            assert c <= snapped <= 2 and (snapped == 2) == (c > edge or k < 6)
            assert snapped == 2 or snapped in rk
            assert not any(c <= x < snapped for x in rk)

    def test_values(self):
        assert gd.snap_c(Fraction(19, 10), 24) == Fraction(19, 10)
        assert gd.snap_c(Fraction(3, 2), 8) == Fraction(3, 2)
        # 7/5 < 71/50 < 10/7 = (11 - 1)/7, the least element of R_11 above it
        assert gd.snap_c(Fraction(71, 50), 11) == Fraction(10, 7)
        assert gd.snap_c(PAPER_C, 64) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            equality_systems(min_k=6, max_k=9, distinct=True, min_count=2, max_count=6),
            relabelled_heavy_systems(max_k=9, extras=2),
        ),
        st.data(),
    )
    def test_literal_verdict_at_snapped_c(self, system, data):
        k, contents = system
        assume(literal_equality(contents, k) is None)
        assume(literal_collinearity_free(contents, k))
        c = data.draw(st.sampled_from(thresholds(k) + [PAPER_C, Fraction(9, 5) + Fraction(1, 10**6)]), label="c")
        assert literal_c_light(contents, k, c) == literal_c_light(contents, k, gd.snap_c(c, k))


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
        # the same verdicts, different heavy configurations and so witnesses
        assert (cube.valid, cube.collinearity_free, cube.c_light) == (six.valid, six.collinearity_free, six.c_light)
        assert cube != six
        again = gd.is_c_good(example_c_cube(), TWO)
        assert cube == again and hash(cube) == hash(again)
        assert repr(cube) == (
            "GoodnessReport(c=Fraction(2, 1), valid=True, collinearity_free=True, c_light=False, "
            "equality_witness=None, collinearity_witness=None)"
        )

    def test_print_compare_hash_never_sweep(self, monkeypatch):
        cube = gd.is_c_good(example_c_cube(), TWO)
        six = gd.is_c_good(cfg.from_equalities(*SIX_OF_NINE), TWO)
        self.forbid_sweep(monkeypatch)
        repr(cube)
        assert cube != six and cube == gd.is_c_good(example_c_cube(), TWO)
        assert len({cube, six}) == 2

    def test_report_over_witness_budget_prints_compares_hashes(self):
        # the verdict takes no step of the 20; the witness search needs 63
        # nodes
        report = gd.is_c_good(example_c_cube(), TWO, budget=20)
        assert report.c_light is False
        assert repr(report).startswith("GoodnessReport(")
        assert report == gd.is_c_good(example_c_cube(), TWO)
        assert {report} == {gd.is_c_good(example_c_cube(), TWO)}
        with pytest.raises(BudgetExceededError, match="budget of 20 nodes"):
            report.heaviness_witness


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

    @pytest.mark.parametrize("k", [4, 5])
    def test_below_6_variables_rank_below_3_decides(self, monkeypatch, k):
        # a valid, collinearity-free span is the section of all k variables,
        # so its rank is at most k - 3: below 3 here, light with no test
        def refuse(*args):
            raise AssertionError("a configuration on fewer than 6 variables reached a heaviness test")

        monkeypatch.setattr(gd, "_light_by_partition", refuse)
        monkeypatch.setattr(gd, "_heavy_by_dfs", refuse)
        vectors = itertools.product(range(-2, 3), repeat=k)
        contents = sorted({cfg.canonical_sign(v) for v in vectors if cfg.is_difference_content(v)})
        spans = set()
        for count in (1, 2, 3):
            for chosen in itertools.combinations(contents, count):
                config = cfg.from_equalities(k, chosen)
                if config.basis.rows in spans:
                    continue
                spans.add(config.basis.rows)
                if gd.is_valid(config)[0] and gd.is_collinearity_free(config)[0]:
                    assert config.rank < 3
                    for c in (TWO, PAPER_C, Fraction(3, 2)):
                        assert gd.is_c_good(config, c).c_good
        assert len(spans) == {4: 83, 5: 2375}[k]


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
            scaled_systems().map(lambda system: cfg.from_equalities(*system)),
            st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=12, unique=True).map(
                cfg.from_points
            ),
            st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=2, max_size=12, unique=True).map(
                cfg.from_points
            ),
        ),
    )
    # base 2m + 1 would give rows 1 + 1 and 2 + 5 one key here (m = 6)
    @example(cfg.from_equalities(5, [(1, 3, 1, 0, -5), (2, 2, -1, 2, -5)]))
    def test_keys_add_as_rows(self, config):
        # keys[a] + keys[b] == keys[c] + keys[d] iff rows a + b and c + d are
        # equal, for every a, b, c, d (a == b and c == d included, so equal
        # keys are equal rows): pairs grouped by key sum are the pairs
        # grouped by row sum
        rows, keys = config.residues, config.residue_keys

        def row_sum(a, b):
            return tuple([x + y for x, y in zip(rows[a], rows[b])])

        by_keys: dict = {}
        by_rows: dict = {}
        for a, b in itertools.combinations_with_replacement(range(config.k), 2):
            by_keys.setdefault(keys[a] + keys[b], []).append((a, b))
            by_rows.setdefault(row_sum(a, b), []).append((a, b))
        assert list(by_keys.values()) == list(by_rows.values())
        # the classes of distinct pairs, in order, as grouped by row sum
        classes: dict = {}
        for a, b in itertools.combinations(range(config.k), 2):
            classes.setdefault(row_sum(a, b), []).append((a + 1, b + 1))
        assert config.pair_sum_classes() == list(classes.values())

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            equality_systems(max_k=8).map(lambda system: cfg.from_equalities(*system)),
            scaled_systems().map(lambda system: cfg.from_equalities(*system)),
            st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=12, unique=True).map(
                cfg.from_points
            ),
        )
    )
    # m is den, the pivot entry 2
    @example(cfg.from_equalities(3, [(2, -1, -1)]))
    # m is a scaled basis entry, 3, above den = 1
    @example(cfg.from_equalities(3, [(1, -3, 2)]))
    def test_keys_are_rows_read_as_digits(self, config):
        # key i is row i of the table read as base-(4m + 1) digits, m the
        # largest |entry| of the table, the lowest digit first
        rows = config.residues
        base = 4 * max(abs(x) for row in rows for x in row) + 1
        assert config.residue_keys == tuple(sum(x * base**n for n, x in enumerate(row)) for row in rows)

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
        got = gd.points_c_good(points, TWO)
        full = gd.is_c_good(cfg.from_points(points), TWO).c_good
        assert got == full


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
