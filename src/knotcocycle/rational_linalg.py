"""Exact sparse linear algebra over the rationals.

Rows map column indices to nonzero ints or Fractions.  Inside, every
elimination runs on integer rows: an entry update is one integer
multiply-subtract, and a row update ends with one gcd that makes the
row primitive (``primitive``).  Scaling a row keeps its support, so
the pivots are those of elimination over the rationals, and Fractions
appear only in the rows, residuals and solutions returned.  Elimination
picks, for each pivot column in increasing order, the sparsest remaining
candidate row (lowest row index on ties), so the reduced form and the
kernel basis are reproducible.
"""

from __future__ import annotations

import math
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


def _scaled(row) -> tuple[dict[int, int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}, den


def _combine(row: dict[int, int], piv: dict[int, int], col: int):
    """a * row - b * piv for the least a > 0 that clears col, and a."""
    f, q = row[col], piv[col]
    g = math.gcd(f, q)
    a, b = abs(q) // g, (f // g if q > 0 else -f // g)
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in piv.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            del out[c]
    return out, a


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A nonzero int row divided by its gcd, signed positive at its least column."""
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def primitive(row) -> dict[int, int]:
    """The primitive integer row on the line of a row of ints and Fractions.

    Its entries are coprime ints, positive at the least column, so two
    rows share it exactly when each is a nonzero multiple of the other;
    the zero row gives {}.
    """
    return _primitive(_scaled(row)[0]) if row else {}


def reduce_primitive(row: dict[int, int], prow: dict[int, int], col=None) -> dict[int, int]:
    """``primitive`` of row minus the multiple of prow that is 0 at col.

    Both rows are primitive, and col is prow's least column, found when
    not given; row comes back as it is when it is 0 there.
    """
    col = min(prow) if col is None else col
    if col not in row:
        return row
    out, _ = _combine(row, prow, col)
    return _primitive(out) if out else out


def _eliminate(rows, ncols: int):
    """Reduced row echelon form on primitive integer rows: the rows and their pivot columns.

    Pivots are taken in increasing column order; the i-th row is the
    rational reduced row scaled by its nonzero entry in the i-th pivot
    column, and is 0 in the other pivot columns.
    """
    work = [primitive(r) for r in rows if r]
    pivots: list[int] = []
    final: list[dict[int, int]] = []
    for col in range(ncols):
        best = None
        for i, row in enumerate(work):
            if col in row:
                if best is None or len(row) < len(work[best]):
                    best = i
        if best is None:
            continue
        piv = work.pop(best)
        work = [r for r in (reduce_primitive(r, piv, col) for r in work) if r]
        final = [reduce_primitive(r, piv, col) for r in final]
        pivots.append(col)
        final.append(piv)
    return final, pivots


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced echelon form and the pivot column list; rank = len(pivots)."""
    final, pivots = _eliminate(m.rows, m.ncols)
    rows = [{c: Fraction(v, row[p]) for c, v in row.items()} for p, row in zip(pivots, final)]
    return SparseMatrix(len(rows), m.ncols, rows), pivots


def rank(m: SparseMatrix) -> int:
    return len(_eliminate(m.rows, m.ncols)[1])


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Exact basis of the null space; count equals ncols - rank."""
    final, pivots = _eliminate(m.rows, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for p, row in zip(pivots, final):
            v = row.get(free)
            if v:
                vec[p] = Fraction(-v, row[p])
        basis.append(vec)
    return basis


def residual(reduced: SparseMatrix, row: dict[int, Fraction]) -> dict[int, Fraction]:
    """The normal form of a row modulo the row span of an ``rref`` result.

    The residual misses every pivot column; it is empty exactly when the
    row lies in the span, and equal for rows that differ by a member of
    the span.  Eliminate once with ``rref`` to reduce many rows.  Each
    row of ``reduced`` is 1 at its least column and clears that column.
    """
    work, scale = _scaled(row)  # work = scale * (the reduction so far)
    for prow in reduced.rows:
        col = min(prow)
        if col in work:
            work, a = _combine(work, _scaled(prow)[0], col)
            scale *= a
    return {c: Fraction(v, scale) for c, v in work.items()}


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
    coeffs = {p: Fraction(row.get(len(rows), 0), row[p]) for p, row in zip(pivots, final)}
    return [coeffs.get(j, Fraction(0)) for j in range(len(rows))]
