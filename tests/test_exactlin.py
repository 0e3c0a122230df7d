import itertools

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import exactlin

from oracles import frac_rank, frac_rref, frac_solvable, section_dim

STAR6 = [(1, 1, -1, -1, 0, 0), (1, 1, 0, 0, -1, -1)]


def test_reduce_empty():
    basis = exactlin.reduce([], ambient_dim=5)
    assert basis.rank == 0
    assert basis.rows == ()


def test_reduce_scalar_multiples_collapse():
    basis = exactlin.reduce([(1, -1, -1, 1, 0), (2, -2, -2, 2, 0)])
    assert basis.rows == ((1, -1, -1, 1, 0),)


def test_reduce_matches_reference_rref_on_invalid_example():
    # x1 - x2 = x3 - x4 together with x1 + x2 = x3 + x4
    vectors = [(1, -1, -1, 1), (1, 1, -1, -1)]
    basis = exactlin.reduce(vectors)
    assert basis.rows == tuple(frac_rref(vectors))
    assert (1, 0, -1, 0) in basis.rows  # the span forces x1 = x3


def test_reduce_dimension_mismatch():
    with pytest.raises(ValueError):
        exactlin.reduce([(1, -1), (1, -1, 0)])


def test_member_zero_vector():
    basis = exactlin.reduce(STAR6)
    assert exactlin.member(basis, (0,) * 6)


def test_member_invalid_example():
    basis = exactlin.reduce([(1, -1, -1, 1), (1, 1, -1, -1)])
    assert exactlin.member(basis, (1, 0, -1, 0))


def test_member_star_rejects_difference_pairing():
    basis = exactlin.reduce(STAR6)
    target = (1, -1, -1, 1, 0, 0)
    assert not frac_solvable(STAR6, target)  # oracle first
    assert not exactlin.member(basis, target)


def test_member_dimension_mismatch():
    basis = exactlin.reduce(STAR6)
    with pytest.raises(ValueError):
        exactlin.member(basis, (1, 0, 0))


def test_section_full_and_empty_support():
    basis = exactlin.reduce(STAR6)
    t_full, sec_full = exactlin.section_dim(basis, range(1, 7))
    assert t_full == basis.rank
    assert sec_full.rows == basis.rows
    t_empty, sec_empty = exactlin.section_dim(basis, ())
    assert t_empty == 0 and sec_empty.rank == 0


def test_section_of_the_zero_span():
    zero = exactlin.reduce([], 5)
    for support in ((), (2, 4), range(1, 6)):
        assert exactlin.section_dim(zero, support) == (0, zero)


def test_section_affine_cube_has_four_equations_on_eight_variables():
    cube = exactlin.reduce(
        [
            (1, -1, -1, 1, 0, 0, 0, 0),
            (1, -1, 0, 0, -1, 1, 0, 0),
            (1, -1, 0, 0, 0, 0, -1, 1),
            (1, 0, -1, 0, -1, 0, 1, 0),
        ]
    )
    t, _ = exactlin.section_dim(cube, range(1, 9))
    assert t == 4


def test_section_monotone_in_support():
    basis = exactlin.reduce(STAR6)
    supports = [set(), {1, 2}, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6}]
    dims = [exactlin.section_dim(basis, s)[0] for s in supports]
    assert dims == sorted(dims)


def test_residue_distinguishes_scalar_multiples():
    # residues must compare equal only for vectors congruent modulo the span
    basis = exactlin.reduce([(0, 2, 0, -1, -1)])
    r1 = exactlin.residue(basis, (1, 0, -1, 0, 0))
    r2 = exactlin.residue(basis, (2, 0, -2, 0, 0))
    assert r1 != r2


small_vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4), small_vec)
def test_member_agrees_with_dense_rational_solver(vectors, probe):
    basis = exactlin.reduce(vectors, ambient_dim=5)
    assert exactlin.member(basis, probe) == frac_solvable(vectors, probe)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_vec, min_size=0, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    small_vec,
)
def test_member_is_the_zero_residue(vectors, coefficients, shift):
    basis = exactlin.reduce(vectors, ambient_dim=5)
    inside = tuple(sum(a * v[j] for a, v in zip(coefficients, vectors)) for j in range(5))
    for probe in (inside, tuple(x + y for x, y in zip(inside, shift))):
        zero = not any(exactlin.residue(basis, probe)[0])
        assert exactlin.member(basis, probe) == zero == frac_solvable(vectors, probe)
    assert exactlin.member(basis, inside)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4))
def test_reduce_is_a_closure_operator(vectors):
    once = exactlin.reduce(vectors, ambient_dim=5)
    twice = exactlin.reduce(once.rows, ambient_dim=5)
    assert once == twice


@settings(max_examples=100, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_reduce_is_generating_set_independent(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    # adding sums of pairs does not change the span
    augmented = shuffled + [
        tuple(a + b for a, b in zip(vectors[0], v)) for v in vectors[1:2]
    ]
    assert exactlin.reduce(vectors, 5) == exactlin.reduce(augmented, 5)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4))
def test_reduce_matches_reference_rref(vectors):
    assert exactlin.reduce(vectors, 5).rows == tuple(frac_rref(vectors))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4), st.sets(st.integers(0, 4)))
def test_rank_of_columns_matches_rational_rank(vectors, columns):
    basis = exactlin.reduce(vectors, 5)
    cols = sorted(columns)
    restricted = [[row[c] for c in cols] for row in basis.rows]
    assert exactlin.rank_of_columns(basis, cols) == frac_rank(restricted)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_against_rational_rank(data):
    # pivots on the first `width` columns; the rest of each row and an
    # identity block ride along
    width = data.draw(st.integers(1, 5))
    length = data.draw(st.integers(width + 1, width + 3))
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=length, max_size=length), min_size=1, max_size=6))
    n = len(rows)
    mat = [row + [int(j == i) for j in range(n)] for i, row in enumerate(rows)]
    rank = exactlin.echelon(mat, width)
    assert rank == frac_rank([row[:width] for row in rows])
    for row in mat[rank:]:
        assert not any(row[:width])
        ys = row[length:]
        assert any(ys)
        assert row[:length] == [sum(y * r[j] for y, r in zip(ys, rows)) for j in range(length)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_leaves_reduced_rows(data):
    # without a block the pivot rows are reduce's canonical basis; with one,
    # each pivot column is still cleared from every other pivot row
    width = data.draw(st.integers(1, 5))
    extra = data.draw(st.integers(0, 3))
    entry = st.integers(-3, 3)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=width + extra, max_size=width + extra), min_size=1, max_size=6)
    )
    plain = [row[:width] for row in rows]
    rank = exactlin.echelon(plain, width)
    assert tuple(map(tuple, plain[:rank])) == exactlin.reduce([row[:width] for row in rows]).rows
    mat = [list(row) for row in rows]
    assert exactlin.echelon(mat, width) == rank
    pivots = [next(j for j, x in enumerate(row) if x) for row in mat[:rank]]
    assert pivots == sorted(pivots) and all(p < width for p in pivots)
    for i, p in enumerate(pivots):
        assert mat[i][p] > 0
        assert all(mat[other][p] == 0 for other in range(rank) if other != i)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4), st.data())
def test_echelon_inserts_only_rows_after_the_canonical_ones(vectors, data):
    # canonical rows at the top, then new rows: some drawn afresh, some
    # copies or sums of the spanning vectors (dependent), some repeated
    canonical = exactlin.reduce(vectors, 5).rows
    pool = list(vectors) + [tuple(a + b for a, b in zip(v, w)) for v, w in zip(vectors, vectors[1:])]
    fresh = st.lists(small_vec, max_size=3)
    new = data.draw(fresh) + data.draw(st.lists(st.sampled_from(pool), max_size=3) if pool else fresh)
    new += data.draw(st.lists(st.sampled_from(new), max_size=2)) if new else []
    new = data.draw(st.permutations(new))
    mat = [list(r) for r in canonical] + [list(v) for v in new]
    rank = exactlin.echelon(mat, 5, len(canonical))
    expected = exactlin.reduce(list(vectors) + new, 5)
    assert rank == expected.rank
    assert tuple(map(tuple, mat[:rank])) == expected.rows
    assert not any(x for row in mat[rank:] for x in row)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4), st.data())
def test_extend_is_reduce_of_rows_and_contents(vectors, data):
    # contents: multiples and sums of the rows, which add nothing, then in
    # half the cases fresh draws; lists, so that a mutation would show
    rows = exactlin.reduce(vectors, 5).rows
    pool = [[2 * x for x in r] for r in rows] + [[a + b for a, b in zip(v, w)] for v, w in zip(rows, rows[1:])]
    contents = data.draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
    contents += data.draw(st.one_of(st.just([]), st.lists(small_vec.map(list), max_size=3)))
    contents = data.draw(st.permutations(contents))
    before = [list(v) for v in contents]
    got = exactlin.extend(rows, contents, 5)
    expected = exactlin.reduce(list(rows) + contents, 5).rows
    assert got == expected
    assert contents == before
    assert rows == exactlin.reduce(vectors, 5).rows
    assert (got is rows) == (len(expected) == len(rows))


@st.composite
def zero_sum_spans(draw):
    k = draw(st.integers(2, 7))
    head = st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1)
    contents = [tuple(v) + (-sum(v),) for v in draw(st.lists(head, min_size=1, max_size=5))]
    support = draw(st.sets(st.integers(1, k)))
    return k, contents, support


@settings(max_examples=200, deadline=None)
@given(zero_sum_spans())
def test_section_dim_against_rank_difference(case):
    k, contents, support = case
    t, section = exactlin.section_dim(exactlin.reduce(contents, k), support)
    assert t == section.rank == section_dim(contents, k, support)
    for row in section.rows:
        assert frac_solvable(contents, row)
        assert all(row[j] == 0 for j in range(k) if (j + 1) not in support)
    assert exactlin.reduce(section.rows, k) == section


def test_section_dims_against_bruteforce_supports():
    vectors = [(1, -1, -1, 1, 0), (1, 0, -2, 0, 1)]
    basis = exactlin.reduce(vectors)
    for size in range(6):
        for support in itertools.combinations(range(1, 6), size):
            t, section = exactlin.section_dim(basis, support)
            for row in section.rows:
                assert frac_solvable(vectors, row)
                assert all(row[j] == 0 for j in range(5) if (j + 1) not in support)
            # oracle: rank of all span vectors supported inside S, via RREF of
            # the kernel construction done with Fractions
            assert t == section.rank


def test_section_rejects_out_of_range_support():
    basis = exactlin.reduce(STAR6)
    with pytest.raises(ValueError):
        exactlin.section_dim(basis, {0})
    with pytest.raises(ValueError):
        exactlin.section_dim(basis, {7})
