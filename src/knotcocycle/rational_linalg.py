"""Exact sparse linear algebra over the rationals.

Rows map column indices to nonzero ints or Fractions, made Fractions
where they enter an elimination or a reduction so that division stays
exact.  Elimination picks, for each pivot column in increasing order,
the sparsest remaining candidate row (lowest row index on ties), so the
reduced form and the kernel basis are reproducible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple


class SparseMatrix(NamedTuple):
    nrows: int
    ncols: int
    rows: list[dict[int, Fraction]] | tuple = ()

    def triplets(self):
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                yield r, c, row[c]

    def multiply_vector(self, vec: dict[int, Fraction]) -> list[Fraction]:
        out = []
        for row in self.rows:
            s = Fraction(0)
            for c, v in row.items():
                x = vec.get(c)
                if x:
                    s += v * x
            out.append(s)
        return out


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        nv = row.get(c, Fraction(0)) - f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


def _eliminate(rows: list[dict[int, Fraction]], ncols: int):
    """Reduced row echelon form: the pivot rows and their pivot columns.

    Pivots are taken in increasing column order, so the i-th row has its
    leading entry, 1, in the i-th pivot column.
    """
    work = [{c: Fraction(v) for c, v in r.items()} for r in rows if r]
    pivots: list[int] = []
    final: list[dict[int, Fraction]] = []
    for col in range(ncols):
        best = None
        for i, row in enumerate(work):
            if col in row:
                if best is None or len(row) < len(work[best]):
                    best = i
        if best is None:
            continue
        piv = work.pop(best)
        inv = 1 / piv[col]
        piv = {c: v * inv for c, v in piv.items()}
        for row in itertools.chain(work, final):
            f = row.get(col)
            if f:
                _subtract(row, f, piv)
        work = [r for r in work if r]
        pivots.append(col)
        final.append(piv)
    return final, pivots


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced echelon form and the pivot column list; rank = len(pivots)."""
    final, pivots = _eliminate(m.rows, m.ncols)
    return SparseMatrix(len(final), m.ncols, final), pivots


def rank(m: SparseMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Exact basis of the null space; count equals ncols - rank."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    pivot_row = dict(zip(pivots, reduced.rows))
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for p in pivots:
            v = pivot_row[p].get(free)
            if v:
                vec[p] = -v
        basis.append(vec)
    return basis


def residual(reduced: SparseMatrix, row: dict[int, Fraction]) -> dict[int, Fraction]:
    """The normal form of a row modulo the row span of an ``rref`` result.

    The residual misses every pivot column; it is empty exactly when the
    row lies in the span, and equal for rows that differ by a member of
    the span.  Eliminate once with ``rref`` to reduce many rows.
    """
    work = {c: Fraction(v) for c, v in row.items()}
    for prow in reduced.rows:
        f = work.get(min(prow))
        if f:
            _subtract(work, f, prow)
    return work


def extend_reduced(reduced: SparseMatrix, row: dict[int, Fraction]) -> SparseMatrix | None:
    """``reduced`` with one more row, or None when the row lies in its span.

    The new row is the residual of ``row``, scaled to 1 at its least
    column.  It is 0 at the leading columns of the rows before it, so
    ``residual`` against the result is again a normal form modulo the
    span, one that rows differing by a member of the span share.
    """
    work = residual(reduced, row)
    if not work:
        return None
    inv = 1 / work[min(work)]
    return SparseMatrix(reduced.nrows + 1, reduced.ncols,
                        [*reduced.rows, {c: v * inv for c, v in work.items()}])


def in_row_span(m: SparseMatrix, row: dict[int, Fraction]) -> bool:
    """Whether the row lies in the span of the matrix rows."""
    return not residual(rref(m)[0], row)


def solve_in_span(rows: list[dict[int, Fraction]], target: dict[int, Fraction]):
    """Coefficients expressing target over the rows, or None.

    Solves the transposed system exactly; intended for small systems such
    as the triviality test for cocycle formulas.  The coefficients of rows
    that are not pivots of the elimination are 0, so a solution without a
    zero coefficient is the only one: the rows are linearly independent.
    """
    cols = set(target)
    for r in rows:
        cols.update(r)
    # Build [rows^T | target] and eliminate.
    aug: list[dict[int, Fraction]] = []
    for c in sorted(cols):
        row = {}
        for j, r in enumerate(rows):
            v = r.get(c)
            if v:
                row[j] = v
        t = target.get(c)
        if t:
            row[len(rows)] = t
        aug.append(row)
    final, pivots = _eliminate(aug, len(rows) + 1)
    if len(rows) in pivots:
        return None
    coeffs = {p: row.get(len(rows), Fraction(0)) for p, row in zip(pivots, final)}
    return [coeffs.get(j, Fraction(0)) for j in range(len(rows))]
