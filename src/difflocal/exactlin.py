"""Exact linear algebra over the rationals on integer-coefficient row vectors.

Vectors are plain tuples of Python ints (arbitrary precision), one coefficient
per variable x_1..x_k.  An ``ExactBasis`` stores the canonical basis of the
rational span of a family of such vectors: reduced row echelon form over Q,
with every row rescaled to a primitive integer vector (entry gcd 1) whose
pivot entry is positive.  This canonical form is unique for a given subspace,
so two spans are equal iff their bases compare equal as tuples.

All elimination is fraction-free (cross-multiplication followed by gcd
renormalization), so no Fraction objects are created on the hot paths and no
rounding can occur anywhere.  One loop does it: ``_eliminate`` reduces one
vector against echelon rows.  ``reduce`` adds back-substitution to it,
``echelon`` (``section_dim`` and the implication solver) forward elimination
with an optional augmented block, and ``member`` and the residue-row
searches of ``goodness`` use it as it is.  ``residue`` and
``rank_of_columns`` have no caller in the package; they are kept for the
benchmark, which traces them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(_leading(r) for r in self.rows)  # type: ignore[misc]

    @property
    def rank(self) -> int:
        return len(self.rows)


def reduce(vectors: Iterable[Sequence[int]], ambient_dim: int | None = None) -> ExactBasis:
    """Canonical basis of the rational span of ``vectors``.

    Idempotent, and identical for any generating set of the same span.
    ``ambient_dim`` is required when ``vectors`` is empty.
    """
    vecs = [tuple(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim required for an empty generating set")
        ambient_dim = len(vecs[0])
    rows: list[list[int]] = []
    pivots: list[int] = []
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError(f"dimension mismatch: expected {ambient_dim}, got {len(v)}")
        w = list(v)
        _eliminate(w, rows, pivots)
        j = _leading(w)
        if j is None:
            continue
        _normalize(w, j)
        pos = bisect_left(pivots, j)
        rows.insert(pos, w)
        pivots.insert(pos, j)
        for idx, r in enumerate(rows):
            if idx != pos and r[j]:
                _eliminate(r, (w,), (j,))  # back-substitution
                _normalize(r, pivots[idx])
    return ExactBasis(ambient_dim, tuple(tuple(r) for r in rows))


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
    """True iff ``v`` lies in the rational span of ``basis``."""
    if len(v) != basis.ambient_dim:
        raise ValueError(f"dimension mismatch: expected {basis.ambient_dim}, got {len(v)}")
    w = list(v)
    _eliminate(w, basis.rows, basis.pivots)
    return not any(w)


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


def echelon(mat: list[list[int]], width: int) -> int:
    """Fraction-free forward elimination of ``mat`` in place; returns its rank.

    Pivots are searched on the first ``width`` columns only; any further
    columns are an augmented block carried through the same row operations.
    Each row is reduced by ``_eliminate`` against the pivot rows kept so far,
    in pivot order.  Afterwards the first ``rank`` rows hold the pivots, in
    pivot order, and every later row is zero on the first ``width`` columns,
    so its augmented block records a linear relation among the original rows.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    dependent = []
    for w in mat:
        _eliminate(w, rows, pivots)
        j = _leading(w[:width])
        if j is None:
            dependent.append(w)
            continue
        _normalize(w, j)
        pos = bisect_left(pivots, j)
        rows.insert(pos, w)
        pivots.insert(pos, j)
    mat[:] = rows + dependent
    return len(rows)


def rank_of_columns(basis: ExactBasis, columns: Sequence[int]) -> int:
    """Rank of the basis matrix restricted to the given 0-based columns."""
    return echelon([[row[c] for c in columns] for row in basis.rows], len(columns))


def section_dim(basis: ExactBasis, support: Iterable[int]) -> tuple[int, ExactBasis]:
    """Dimension and canonical basis of the span vectors supported inside S.

    ``support`` is a set of 1-based variable indices.  Returns
    ``(t, section_basis)`` where ``t = dim {v in span : supp(v) subseteq S}``.
    """
    k = basis.ambient_dim
    supp = set(support)
    for s in supp:
        if not 1 <= s <= k:
            raise ValueError(f"support index {s} outside 1..{k}")
    cols = [j for j in range(k) if (j + 1) not in supp]
    r = basis.rank
    if r == 0:
        return 0, ExactBasis(k, ())
    if not cols:
        return r, basis
    # Kernel of the restriction map: eliminate on the outside columns while
    # an identity block records which combination of basis rows each row is.
    width = len(cols)
    aug = [
        [row[c] for c in cols] + [int(j == i) for j in range(r)]
        for i, row in enumerate(basis.rows)
    ]
    done = echelon(aug, width)
    combos = []
    for kernel_row in aug[done:]:
        vec = [0] * k
        for cf, row in zip(kernel_row[width:], basis.rows):
            if cf:
                for c in range(k):
                    vec[c] += cf * row[c]
        combos.append(vec)
    section = reduce(combos, k)
    return section.rank, section
