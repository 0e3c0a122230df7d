"""Exact linear algebra over the rationals on integer-coefficient row vectors.

Vectors are plain tuples of Python ints (arbitrary precision), one coefficient
per variable x_1..x_k.  An ``ExactBasis`` stores the canonical basis of the
rational span of a family of such vectors: reduced row echelon form over Q,
with every row rescaled to a primitive integer vector (entry gcd 1) whose
pivot entry is positive.  This canonical form is unique for a given subspace,
so two spans are equal iff their bases compare equal as tuples.

All elimination is fraction-free (cross-multiplication followed by gcd
renormalization), so no Fraction objects are created on the hot paths and no
rounding can occur anywhere.  ``_eliminate`` reduces one vector against
echelon rows, and ``echelon`` holds the one insertion loop around it: it
brings a matrix, with an optional augmented block, to reduced row echelon
form.  ``reduce`` is ``echelon`` with no block, and ``extend`` grows a span
that is canonical already: it inserts only the new contents below a copy of
its rows, so no caller copies rows to grow a span.  The scan's walk extends
a prefix's rows by a point's contents with it, and the lemma suite its hub
families by one draw and its harvest by one candidate at a time.
``section_dim`` reads relations off the block, and the implication solver
brings one family's premises to echelon form once, each with an identity
block, and reduces every candidate product against them to read its
coefficients off the block; and ``residue`` (with ``member``, its zero test)
and the residue-row searches of ``goodness`` call ``_eliminate`` as it is.
The matroid partition of ``goodness``, its one verdict route at every c,
does both: it brings each independent set to echelon form with an
augmented identity block, once per set of rows, and reduces a row against
it with ``_eliminate`` to read the row's circuit off the block.
``rank_of_columns`` has no caller in the package; it is kept for the
benchmark, which traces it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

def _leading(vec: Sequence[int]) -> int | None:
    for j, x in enumerate(vec):
        if x:
            return j
    return None


def _normalize(row: list[int], pivot: int) -> None:
    # Primitive integer row with positive pivot entry; the entries before the
    # pivot are already zero.
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for j in range(pivot, len(row)):
            row[j] //= g


@dataclass(frozen=True)
class ExactBasis:
    """Canonical (RREF, primitive, positive-pivot) basis of a rational span."""

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(map(_leading, self.rows))  # type: ignore[arg-type]

    @property
    def rank(self) -> int:
        return len(self.rows)


def reduce(vectors: Iterable[Sequence[int]], ambient_dim: int | None = None) -> ExactBasis:
    """Canonical basis of the rational span of ``vectors``: the first
    ``rank`` rows that ``echelon`` leaves.

    Idempotent, and identical for any generating set of the same span.
    ``ambient_dim`` is required when ``vectors`` is empty.
    """
    mat = [list(v) for v in vectors]
    if ambient_dim is None:
        if not mat:
            raise ValueError("ambient_dim required for an empty generating set")
        ambient_dim = len(mat[0])
    bad = next((len(w) for w in mat if len(w) != ambient_dim), None)
    if bad is not None:
        raise ValueError(f"dimension mismatch: expected {ambient_dim}, got {bad}")
    rank = echelon(mat, ambient_dim)
    return ExactBasis(ambient_dim, tuple(map(tuple, mat[:rank])))


def _eliminate(w: list[int], rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> int:
    """Reduce ``w`` in place against echelon rows; returns ``den > 0``.

    Each row must be zero at the pivots of the rows before it, as canonical
    rows are, so that clearing one pivot never refills an earlier one.
    Cross-multiplied elimination: afterwards ``w`` is zero at every pivot
    and ``w / den`` is the true residue of the original ``w`` modulo the
    rows' span.
    """
    n = len(w)
    den = 1
    for r, p in zip(rows, pivots):
        wp = w[p]
        if wp:
            rp = r[p]
            for col in range(n):
                w[col] = w[col] * rp - r[col] * wp
            den *= rp
    return den


def member(basis: ExactBasis, v: Sequence[int]) -> bool:
    """True iff ``v`` lies in the rational span of ``basis``: iff its
    ``residue`` is zero."""
    return not any(residue(basis, v)[0])


def residue(basis: ExactBasis, v: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical residue of ``v`` modulo the span, as a pair ``(w, den)``.

    The true residue equals ``w / den`` with ``den > 0`` and
    ``gcd(gcd(w), den) == 1``; two vectors are congruent modulo the span iff
    their residue pairs compare equal.
    """
    if len(v) != basis.ambient_dim:
        raise ValueError(f"dimension mismatch: expected {basis.ambient_dim}, got {len(v)}")
    w = list(v)
    den = _eliminate(w, basis.rows, basis.pivots)
    g = gcd(*w, den)
    if g > 1:
        w = [x // g for x in w]
        den //= g
    return tuple(w), den


def echelon(mat: list[list[int]], width: int, done: int = 0) -> int:
    """Fraction-free reduced row echelon form of ``mat`` in place; returns its rank.

    Pivots are searched on the first ``width`` columns only; any further
    columns are an augmented block carried through the same row operations.
    The first ``done`` rows must already be pivot rows as this function
    leaves them, such as the rows of an ``ExactBasis``: they are kept as
    they stand, and only the rows after them are inserted.  Each inserted
    row is reduced by ``_eliminate`` against the pivot rows kept so far; a
    new pivot row is made primitive with a positive pivot, inserted in pivot
    order, and cleared from the other pivot rows.  Afterwards the first
    ``rank`` rows hold the pivots, in pivot order, and each pivot column is
    zero in every other pivot row: without an augmented block they are the
    canonical basis that ``reduce`` returns.  Every later row is zero on the
    first ``width`` columns, so its augmented block records a linear
    relation among the original rows.
    """
    rows = mat[:done]
    pivots = [_leading(r) for r in rows]
    dependent = []
    for w in mat[done:]:
        _eliminate(w, rows, pivots)
        j = _leading(w)
        if j is None or j >= width:
            dependent.append(w)
            continue
        _normalize(w, j)
        pos = bisect_left(pivots, j)
        rows.insert(pos, w)
        pivots.insert(pos, j)
        for idx, r in enumerate(rows):
            if idx != pos and r[j]:
                _eliminate(r, (w,), (j,))  # back-substitution
                _normalize(r, pivots[idx])
    mat[:] = rows + dependent
    return len(rows)


def extend(rows: tuple[tuple[int, ...], ...], contents: Iterable[Sequence[int]], width: int) -> tuple:
    """Canonical rows of span(rows, contents), where ``rows`` are canonical
    rows of width ``width``: the same ``rows`` object when no content is
    new.  Neither argument is mutated, though ``echelon`` back-substitutes
    into the rows it keeps: it works on a copy."""
    mat = [*map(list, rows), *map(list, contents)]
    rank = echelon(mat, width, len(rows))
    return rows if rank == len(rows) else tuple(map(tuple, mat[:rank]))


def rank_of_columns(basis: ExactBasis, columns: Sequence[int]) -> int:
    """Rank of the basis matrix restricted to the given 0-based columns."""
    return echelon([[row[c] for c in columns] for row in basis.rows], len(columns))


def section_dim(basis: ExactBasis, support: Iterable[int]) -> tuple[int, ExactBasis]:
    """Dimension and canonical basis of the span vectors supported inside S.

    ``support`` is a set of 1-based variable indices.  Returns
    ``(t, section_basis)`` where ``t = dim {v in span : supp(v) subseteq S}``.
    The basis rows are brought to echelon form on the columns outside S,
    each carrying itself as an augmented block; the rows that vanish there
    hold section vectors in their blocks, and those span the section.
    """
    k = basis.ambient_dim
    supp = set(support)
    for s in supp:
        if not 1 <= s <= k:
            raise ValueError(f"support index {s} outside 1..{k}")
    cols = [j for j in range(k) if (j + 1) not in supp]
    width = len(cols)
    aug = [[row[c] for c in cols] + list(row) for row in basis.rows]
    done = echelon(aug, width)
    section = reduce([w[width:] for w in aug[done:]], k)
    return section.rank, section
