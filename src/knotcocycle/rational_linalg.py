"""Exact sparse linear algebra over the rationals.

Rows are stored as sparse mappings from column index to nonzero
Fraction.  Elimination picks, for each pivot column in increasing order,
the sparsest remaining candidate row (lowest row index on ties), so the
reduced form and the kernel basis are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class SparseMatrix:
    nrows: int
    ncols: int
    rows: list[dict[int, Fraction]] = field(default_factory=list)

    @classmethod
    def from_triplets(cls, nrows: int, ncols: int, triplets) -> "SparseMatrix":
        rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
        for r, c, v in triplets:
            v = Fraction(v)
            if v == 0:
                continue
            if c in rows[r]:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            rows[r][c] = v
        return cls(nrows, ncols, rows)

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


def _eliminate(rows: list[dict[int, Fraction]], ncols: int):
    """Reduced row echelon form in place; returns the pivot columns."""
    work = [dict(r) for r in rows if r]
    pivots: list[tuple[int, int]] = []  # (col, index into final list)
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
                for c, v in piv.items():
                    nv = row.get(c, Fraction(0)) - f * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
        work = [r for r in work if r]
        pivots.append((col, len(final)))
        final.append(piv)
    return final, [c for c, _ in pivots]


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced echelon form and the pivot column list; rank = len(pivots)."""
    final, pivots = _eliminate(m.rows, m.ncols)
    order = sorted(range(len(final)), key=lambda i: min(final[i]))
    rows = [final[i] for i in order]
    return SparseMatrix(len(rows), m.ncols, rows), sorted(pivots)


def rank(m: SparseMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Exact basis of the null space; count equals ncols - rank."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    pivot_row = {}
    for row in reduced.rows:
        lead = min(row)
        pivot_row[lead] = row
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


def in_row_span(m: SparseMatrix, row: dict[int, Fraction]) -> bool:
    """Whether the row lies in the span of the matrix rows."""
    reduced, _ = rref(m)
    work = dict(row)
    for prow in reduced.rows:
        lead = min(prow)
        f = work.get(lead)
        if f:
            for c, v in prow.items():
                nv = work.get(c, Fraction(0)) - f * v
                if nv == 0:
                    work.pop(c, None)
                else:
                    work[c] = nv
    return not work


def solve_in_span(rows: list[dict[int, Fraction]], target: dict[int, Fraction]):
    """Coefficients expressing target over the rows, or None.

    Solves the transposed system exactly; intended for small systems such
    as the triviality test for cocycle formulas.
    """
    cols = set(target)
    for r in rows:
        cols.update(r)
    col_list = sorted(cols)
    col_index = {c: i for i, c in enumerate(col_list)}
    # Build [rows^T | target] and eliminate.
    aug: list[dict[int, Fraction]] = []
    for c in col_list:
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
    coeffs = {}
    for row in final:
        lead = min(row)
        coeffs[lead] = row.get(len(rows), Fraction(0))
    return [coeffs.get(j, Fraction(0)) for j in range(len(rows))]
