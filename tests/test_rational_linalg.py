import math
import random
from fractions import Fraction

from knotcocycle.rational_linalg import (SparseMatrix, in_row_span, kernel_basis, primitive,
                                         rank, reduce_primitive, residual, rref, solve_in_span)
from oracles import fraction_eliminate, fraction_residual, fraction_solve_in_span


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


def _chain_reduce(pivots, row):
    """A primitive row reduced by each pivot row in turn."""
    out = primitive(row)
    for p in pivots:
        out = reduce_primitive(out, p)
    return out


def test_primitive_rows_reduce_like_an_elimination():
    rng = random.Random(7)
    ncols = 6

    def vec():
        return {c: Fraction(x) for c in rng.sample(range(ncols), 3) if (x := rng.randint(-2, 2))}

    for _ in range(30):
        rows, pivots = [], []
        for _ in range(5):
            row = vec()
            red = _chain_reduce(pivots, row)
            assert (not red) == in_row_span(SparseMatrix(len(rows), ncols, rows), row)
            if red:
                rows.append(row)
                pivots.append(red)
        assert len(pivots) == rank(SparseMatrix(len(rows), ncols, rows)) == len(rows)
        for _ in range(5):
            v = vec()
            red = _chain_reduce(pivots, v)
            assert (not red) == in_row_span(SparseMatrix(len(rows), ncols, rows), v)
            assert not set(red) & {min(p) for p in pivots}
            shifted = dict(v)
            for row in rows:
                f = Fraction(rng.randint(-2, 2))
                for c, x in row.items():
                    shifted[c] = shifted.get(c, 0) + f * x
            assert _chain_reduce(pivots, {c: x for c, x in shifted.items() if x}) == red


def test_primitive_rows_are_one_per_line():
    rng = random.Random(11)
    for _ in range(60):
        (row,) = _random_rows(rng, 1, 6)
        p = primitive(row)
        assert primitive({}) == {} and (not p) == (not row)
        if not p:
            continue
        assert all(type(v) is int for v in p.values()) and p[min(p)] > 0
        assert math.gcd(*p.values()) == 1 and p.keys() == row.keys()
        f = Fraction(rng.choice((-3, -1, 2, 5)), rng.randrange(1, 4))
        assert primitive({c: f * v for c, v in row.items()}) == p
        assert len({Fraction(v) / row[c] for c, v in p.items()}) == 1


def _sparse_rows(rng, nrows, ncols):
    """Random rows with Fraction entries, a quarter of them empty, the rest with 1 to 4 entries."""
    rows = []
    for _ in range(nrows):
        size = 0 if rng.random() < 0.25 else rng.randint(1, min(4, ncols))
        cols = rng.sample(range(ncols), size)
        row = {c: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for c in cols}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def _same(a: dict, b: dict) -> bool:
    """Equal values in the same key order, every value a Fraction."""
    return list(a.items()) == list(b.items()) and all(type(v) is Fraction for v in a.values())


def test_integer_elimination_matches_the_fraction_oracle():
    rng = random.Random(53)
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _sparse_rows(rng, nrows, ncols)
        m = SparseMatrix(nrows, ncols, rows)
        final, pivots = fraction_eliminate(rows, ncols)
        reduced, got = rref(m)
        assert got == pivots and rank(m) == len(pivots) and reduced.nrows == len(final)
        assert all(_same(r, f) for r, f in zip(reduced.rows, final, strict=True))
        kernel = [{free: Fraction(1), **{p: -row[free] for p, row in zip(pivots, final)
                                         if row.get(free)}}
                  for free in range(ncols) if free not in pivots]
        assert all(_same(k, o) for k, o in zip(kernel_basis(m), kernel, strict=True))
        combo = {}
        for row in rows:
            f = Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + f * v
        for x in ({c: v for c, v in combo.items() if v}, *_sparse_rows(rng, 3, ncols)):
            assert _same(residual(reduced, x), fraction_residual(reduced, x))
            assert solve_in_span(rows, x) == fraction_solve_in_span(rows, x)
            sol = solve_in_span(rows, x)
            assert sol is None or all(type(v) is Fraction for v in sol)
