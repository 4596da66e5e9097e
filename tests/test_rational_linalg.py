import random
from fractions import Fraction

from knotcocycle.rational_linalg import (SparseMatrix, extend_reduced, in_row_span,
                                         kernel_basis, rank, residual, rref, solve_in_span)


def dense_rank_oracle(rows, ncols):
    """Textbook elimination over Fraction, independent of the sparse path."""
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = 1 / m[rk][col]
        m[rk] = [x * inv for x in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def test_zero_matrix():
    m = SparseMatrix(3, 4, [{}, {}, {}])
    red, pivots = rref(m)
    assert pivots == [] and rank(m) == 0
    assert len(kernel_basis(m)) == 4


def test_identity():
    m = SparseMatrix(3, 3, [{i: Fraction(1)} for i in range(3)])
    red, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert kernel_basis(m) == []


def test_rank_one():
    m = SparseMatrix(2, 2, [{0: Fraction(1), 1: Fraction(2)},
                            {0: Fraction(2), 1: Fraction(4)}])
    assert rank(m) == 1


def test_kernel_of_difference_row():
    m = SparseMatrix(1, 2, [{0: Fraction(1), 1: Fraction(-1)}])
    (vec,) = kernel_basis(m)
    assert vec == {0: Fraction(1), 1: Fraction(1)}


def test_zero_row_matrix_kernel():
    m = SparseMatrix(1, 5, [{}])
    assert len(kernel_basis(m)) == 5


def test_random_matrices_against_dense_oracle():
    rng = random.Random(17)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = []
        for _ in range(nrows):
            row = {c: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                   for c in range(ncols) if rng.random() < 0.5}
            rows.append({c: v for c, v in row.items() if v})
        m = SparseMatrix(nrows, ncols, rows)
        rk = rank(m)
        assert rk == dense_rank_oracle(rows, ncols)
        basis = kernel_basis(m)
        assert len(basis) == ncols - rk
        for vec in basis:
            assert all(s == 0 for s in m.multiply_vector(vec))


def test_permuted_rows_same_kernel_subspace():
    rng = random.Random(23)
    rows = []
    for _ in range(5):
        rows.append({c: Fraction(rng.randrange(-3, 4)) for c in range(6)
                     if rng.random() < 0.6})
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    m1 = SparseMatrix(5, 6, rows)
    perm = rows[::-1]
    m2 = SparseMatrix(5, 6, perm)
    k1, k2 = kernel_basis(m1), kernel_basis(m2)
    assert len(k1) == len(k2)
    # cross membership both ways
    for vec in k1:
        assert all(s == 0 for s in m2.multiply_vector(vec))
    for vec in k2:
        assert all(s == 0 for s in m1.multiply_vector(vec))


def test_solve_in_span():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    target = {0: Fraction(2), 1: Fraction(3)}
    coeffs = solve_in_span(rows, target)
    assert coeffs == [Fraction(2), Fraction(1)]
    assert solve_in_span([{0: Fraction(1)}], {1: Fraction(1)}) is None


def test_in_row_span():
    m = SparseMatrix(2, 3, [{0: Fraction(1), 2: Fraction(1)},
                            {1: Fraction(1)}])
    assert in_row_span(m, {0: Fraction(2), 1: Fraction(-1), 2: Fraction(2)})
    assert not in_row_span(m, {2: Fraction(1)})


def _random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {c: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
               for c in range(ncols) if rng.random() < 0.5}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_residual_empty_exactly_in_span():
    rng = random.Random(31)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = SparseMatrix(nrows, ncols, _random_rows(rng, nrows, ncols))
        reduced, _ = rref(m)
        # combinations of the rows are in the span, random rows mostly not
        combo = {}
        for row in m.rows:
            for c, v in row.items():
                combo[c] = combo.get(c, Fraction(0)) + 2 * v
        combo = {c: v for c, v in combo.items() if v}
        assert not residual(reduced, combo)
        for x in (combo, *_random_rows(rng, 3, ncols)):
            assert (not residual(reduced, x)) == in_row_span(m, x)


def test_residual_ignores_rows_of_the_matrix():
    rng = random.Random(37)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = SparseMatrix(nrows, ncols, _random_rows(rng, nrows, ncols))
        reduced, _ = rref(m)
        (x,) = _random_rows(rng, 1, ncols)
        for row in m.rows:
            shifted = dict(x)
            for c, v in row.items():
                shifted[c] = shifted.get(c, Fraction(0)) + v
            shifted = {c: v for c, v in shifted.items() if v}
            assert residual(reduced, shifted) == residual(reduced, x)


def test_residual_misses_pivot_columns():
    rng = random.Random(41)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        reduced, pivots = rref(SparseMatrix(nrows, ncols, _random_rows(rng, nrows, ncols)))
        for x in _random_rows(rng, 3, ncols):
            assert not set(residual(reduced, x)) & set(pivots)


def test_solution_without_zero_coefficient_is_unique():
    rng = random.Random(43)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = _random_rows(rng, nrows, ncols)
        combo = {}
        for row in rows:
            f = Fraction(rng.randrange(-2, 3))
            for c, v in row.items():
                combo[c] = combo.get(c, Fraction(0)) + f * v
        sol = solve_in_span(rows, {c: v for c, v in combo.items() if v})
        assert sol is not None
        if all(sol):
            assert rank(SparseMatrix(nrows, ncols, rows)) == nrows


def test_extended_basis_reduces_like_an_elimination():
    rng = random.Random(7)
    ncols = 6

    def vec():
        return {c: Fraction(x) for c in rng.sample(range(ncols), 3) if (x := rng.randint(-2, 2))}

    for _ in range(30):
        rows, basis = [], SparseMatrix(0, ncols)
        for _ in range(5):
            row = vec()
            grown = extend_reduced(basis, row)
            assert (grown is None) == in_row_span(SparseMatrix(len(rows), ncols, rows), row)
            if grown is not None:
                rows.append(row)
                basis = grown
        assert basis.nrows == rank(SparseMatrix(len(rows), ncols, rows)) == len(rows)
        for _ in range(5):
            v = vec()
            red = residual(basis, v)
            assert (not red) == in_row_span(SparseMatrix(len(rows), ncols, rows), v)
            shifted = dict(v)
            for row in rows:
                f = Fraction(rng.randint(-2, 2))
                for c, x in row.items():
                    shifted[c] = shifted.get(c, 0) + f * x
            assert residual(basis, {c: x for c, x in shifted.items() if x}) == red
