"""Second routes kept as independent oracles for the package's fast paths.

Each function here is the straightforward form of something the package
computes another way:

- ``arrow_positions``, ``isolated`` and ``killable``: the positional
  route, a table of each arrow's tail and head positions and the R1 and
  R2 death positions tested on it, against the adjacent tokens that
  ``moves.enumerate_moves`` reads;
- ``pair_via_completions``: the pairing <completions(A), subdiagrams(G)>
  over the two 2^deg formal sums, against the embedding count of
  ``diagrams.pair``; ``forget_signs`` is the adjoint of ``completions``,
  weighting by the ``sign_product`` of a Gauss diagram;
- ``pair_germ_via_s``: the germ pairing <S(alpha), I(gamma)> through the
  sign enhancement ``s_map`` and the signed subgerm map ``i_map``,
  against ``germs.pair_germ``;
- ``t_map`` after ``i_map``: T applied after the signed expansion I,
  against ``germs.ti`` on the unsigned skeleton; ``i_meridian`` is I on
  a meridian, and ``meridian_without`` deletes bystanders from one;
- ``expanded_add_ti``: T(I(germ)) by deleting and canonicalising every
  subgerm of the skeleton, against the placement table of
  ``germs.add_ti``; ``expanded_ti`` and ``expanded_ti_meridian`` apply
  it to a germ and to a meridian;
- ``brute_r3_moves``: the R3 search over every triple of split gaps with
  the triangle test written over frozensets, against ``moves.r3_moves``;
- ``looped_births``: the births listed by nested loops, against the
  indexed births of ``moves.enumerate_moves``;
- ``listed_random_move`` and ``listed_random_gauss_diagram``: the
  samplers that list every applicable move before choosing one;
- ``table_interleave``: the crossing test read from the whole
  ``arrow_positions`` table, against ``moves.interleave``;
- ``triangle_completions`` and ``derived_monotonic_partners``: the
  triangle relation derived by completing a partial germ to an arrow
  triangle and deleting each distinguished arrow in turn, against
  ``germs.monotonic_partners``;
- ``permuted_arrow_diagrams``: the canonical arrow diagrams found by
  permuting all (2n)! token orders and discarding repeats, against
  ``germs.enumerate_arrow_diagrams``;
- ``seen_partial_germs`` and ``seen_arrow_3germs``: the germs reached
  from both of their sides, the second dropped through a set, against
  the one-sided ``germs.enumerate_partial_germs`` and
  ``germs.enumerate_arrow_3germs``;
- ``walked_cube_meridians`` over ``walked_scenes``: the cube meridians
  found by trying every R2 birth next to the active arrows of every
  scene with k bystanders, against the bystander insertion of
  ``strata.enumerate_cube_meridians``;
- ``locate_edge``: an edge found by scanning for its two flanking
  tokens, against the gap shift of ``germs._delete_from_germ``;
- ``subset_unit_candidates``: alpha31's unit-coefficient supports found
  by one ``solve_in_span`` per support, against the prefix elimination
  of ``fixturegen._unit_candidates``;
- ``fraction_eliminate``, ``fraction_residual`` and
  ``fraction_solve_in_span``: elimination with a Fraction in every
  entry, each row scaled to 1 at its pivot, against the primitive
  integer rows of ``rational_linalg``;
- ``filtered_trivial_variable_vectors``: the trivial variable vectors
  kept after computing every degree-3 coboundary, against the R1/R2
  filter before the coboundary in ``cocycles.trivial_variable_vectors``;
- ``spanned_by_every_coboundary``: the triviality check of ``verify``
  over every dA with deg A from 0 to 3, against the death-term rule of
  ``cocycles.trivial_cocycle_vectors`` that ``verify_cocycle`` applies;
- ``whole_space_coboundary`` and ``whole_space_formulas``: the matrix of
  d over every arrow diagram up to a degree and its kernel basis, printed
  as ``invariants`` prints it, against ``cli.cmd_invariants``, which
  builds d only on the diagrams with no death;
- ``positional_bans``: the four variable bans read one by one from the
  ``arrow_positions`` table of each side, against the death moves of
  ``strata.banned_variable``;
- ``positional_coboundary``: dA with its R1 and R2 terms found by
  scanning the ``arrow_positions`` table for isolated arrows and
  killable pairs, against the death moves of ``coboundary.coboundary``;
- ``chain_boundary``: the sum of ``germs.boundary`` over a germ chain,
  which telescopes to zero on a closed chain such as a meridian.
- ``geometric_sector_orders``: the quadruple-point meridian's sectors read
  off four lines of slopes 1, 2, 3 and 5 whose intercepts move on a
  circle, in floats, against the wall rule of ``quadruple.sector_orders``;
- ``homogeneous_parts``: a formal sum split by germ degree, so a
  meridian's full expansion gives its equation, against the degree-3
  expansion of ``strata.meridian_equation``;
- ``load_tetra_rows``: the tetrahedron pair read back from the fixture
  that ``fixturegen`` writes, against the meridians of
  ``quadruple.tetrahedron_meridians`` that the degree-3 system expands.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from knotcocycle import fixtures_io as fio
from knotcocycle.coboundary import coboundary
from knotcocycle.cocycles import TRIVIAL_DEGREES
from knotcocycle.diagrams import (HEAD, TAIL, ArrowDiagram, FormalSum, GaussDiagram,
                                  format_diagram)
from knotcocycle.germs import (KIND_P, KIND_R1, KIND_R2, Germ, _delete_from_germ, _subgerm_walk,
                               boundary, canonical_term, check_closed,
                               enumerate_arrow_diagrams, make_germ,
                               monotonic_reduce, partial_germ_into, r3_germ_into, subgerms)
from knotcocycle.moves import (MOVE_KINDS, R1_BIRTH, R2_BIRTH, InvalidMove, _literally_equal,
                               apply_move, edge_flanks, enumerate_moves, r1_birth, r2_birth,
                               r2_death, r3, r3_moves, split_gaps, validate_r3)
from knotcocycle.rational_linalg import SparseMatrix, kernel_basis, solve_in_span
from knotcocycle.strata import CUBE, Meridian, restrict_to_variables


def arrow_positions(d: ArrowDiagram) -> dict[int, dict[str, int]]:
    """Each arrow's tail and head positions in the word, arrows in first occurrence."""
    pos: dict[int, dict[str, int]] = {}
    for i, (aid, kind) in enumerate(d.word):
        pos.setdefault(aid, {})[kind] = i
    return pos


def isolated(pos, aid: int) -> bool:
    """Whether the two ends of an arrow are adjacent (R1 death position)."""
    return abs(pos[aid][TAIL] - pos[aid][HEAD]) == 1


def killable(pos, a: int, b: int) -> bool:
    """Whether two arrows have adjacent tails and adjacent heads (R2 death position)."""
    return (abs(pos[a][TAIL] - pos[b][TAIL]) == 1
            and abs(pos[a][HEAD] - pos[b][HEAD]) == 1)


def subdiagrams(g: GaussDiagram) -> FormalSum:
    """Formal sum of the 2^deg subdiagrams of g, with multiplicity."""
    ids = g.arrow_ids()
    out = FormalSum()
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            out.add(g.delete(set(ids) - set(subset)).canonical(), 1)
    return out


def completions(a: ArrowDiagram) -> FormalSum:
    """Alternating sum of the 2^deg sign-completions of a."""
    ids = a.arrow_ids()
    out = FormalSum()
    for signs in itertools.product((1, -1), repeat=len(ids)):
        coeff = 1
        for s in signs:
            coeff *= s
        out.add(GaussDiagram(a.word, dict(zip(ids, signs))).canonical(), coeff)
    return out


def sign_product(g: GaussDiagram) -> int:
    return math.prod(g.signs.values())


def forget_signs(g: GaussDiagram) -> FormalSum:
    """Underlying arrow diagram weighted by the product of the signs."""
    out = FormalSum()
    out.add(g.skeleton().canonical(), sign_product(g))
    return out


def pair_via_completions(a: ArrowDiagram, g: GaussDiagram) -> Fraction:
    return completions(a).dot(subdiagrams(g))


def i_map(germ_or_chain, degrees=None) -> FormalSum:
    """The map I on a germ, extended linearly to chains of germs.

    ``degrees`` restricts the output to subgerms of those degrees, as in
    ``subgerms``.
    """
    if isinstance(germ_or_chain, Germ):
        return subgerms(germ_or_chain, degrees=degrees)
    out = FormalSum()
    for g, c in germ_or_chain.items():
        for key, coeff in subgerms(g, degrees=degrees).items():
            out.add(key, c * coeff)
    return out


def s_map(alpha: FormalSum) -> FormalSum:
    """Sign enhancement of unsigned germs, with the product as coefficient."""
    out = FormalSum()
    for germ, c in alpha.items():
        ids = germ.arrow_ids()
        for signs in itertools.product((1, -1), repeat=len(ids)):
            table = dict(zip(ids, signs))
            prod = 1
            for s in signs:
                prod *= s
            enhanced = Germ(germ.kind,
                            _sign_up(germ.g0, table), _sign_up(germ.g1, table),
                            germ.dist)
            key, coeff = canonical_term(enhanced, c * prod)
            out.add(key, coeff)
    return out


def _sign_up(d: ArrowDiagram, table) -> GaussDiagram:
    return GaussDiagram(d.word, {a: table[a] for a in d.arrow_ids()})


def pair_germ_via_s(alpha: FormalSum, gamma) -> Fraction:
    """Independent evaluation <S(alpha), I(gamma)>."""
    return s_map(alpha).dot(i_map(gamma))


def meridian_without(m: Meridian, removed: frozenset[int]) -> Meridian:
    """The meridian with some bystander arrows deleted throughout."""
    germs = [_delete_from_germ(g, set(removed)) for g in m.germs]
    return Meridian(m.tag, germs, m.bystanders - removed)


def forget_germ_signs(germ: Germ) -> tuple[Germ, Fraction]:
    """The map T on a single germ: skeleton weighted by its sign product."""
    if not germ.signed:
        raise ValueError("T applies to signed germs")
    prod = sign_product(germ.bigger())
    skel = Germ(germ.kind, germ.g0.skeleton(), germ.g1.skeleton(), germ.dist)
    return canonical_term(skel, prod)


def t_map(chain: FormalSum) -> FormalSum:
    out = FormalSum()
    for g, c in chain.items():
        key, coeff = forget_germ_signs(g)
        out.add(key, c * coeff)
    return out


def i_meridian(m, s: frozenset[int], degrees=None) -> FormalSum:
    """I(m; s): signed subgerms keeping the bystanders in s and losing the others."""
    if not s <= m.bystanders:
        raise ValueError("s must be a set of bystanders")
    drop = m.bystanders - s
    out = FormalSum()
    for germ in m.germs:
        for key, c in subgerms(germ, s, drop, degrees).items():
            out.add(key, c)
    return out


def expanded_add_ti(out: FormalSum, germ: Germ, coeff=1, keep: frozenset[int] = frozenset(),
                    drop: frozenset[int] = frozenset(), degrees=None, memo=None) -> None:
    """``germs.add_ti`` with every subgerm deleted from the skeleton and canonicalised.

    ``memo``, a dict, keeps the normal form of each subgerm by its
    literal skeleton and removed arrows, for callers that expand the
    signings of one skeleton.
    """
    if not germ.signed:
        raise ValueError("T applies to signed germs")
    big = germ.bigger()
    signs, prod = big.signs, sign_product(big)
    skel = Germ(germ.kind, germ.g0.skeleton(), germ.g1.skeleton(), germ.dist)
    literal = (skel.kind, skel.g0.word, skel.g1.word, skel.dist)
    for removed in _subgerm_walk(skel, keep, drop, degrees):
        weight = prod
        for a in removed:
            weight *= signs[a]
        if memo is None:
            key, c = canonical_term(_delete_from_germ(skel, removed), coeff * weight)
        else:
            if (literal, removed) not in memo:
                memo[literal, removed] = _delete_from_germ(skel, removed).canonical()
            key, s = memo[literal, removed]
            c = coeff * weight * s
        out.add(key, c)


def expanded_ti(germ: Germ, degrees=None, memo=None) -> FormalSum:
    """``germs.ti`` of one germ through ``expanded_add_ti``."""
    out = FormalSum()
    expanded_add_ti(out, germ, degrees=degrees, memo=memo)
    return out


def expanded_ti_meridian(m: Meridian, s: frozenset[int], degrees=None) -> FormalSum:
    """``strata.ti_meridian`` through ``expanded_add_ti``."""
    out = FormalSum()
    for germ in m.germs:
        expanded_add_ti(out, germ, 1, s, m.bystanders - s, degrees)
    return out


def frozenset_r3_triangle(d, gaps):
    """``moves.r3_triangle`` with the edges' arrow pairs as frozensets."""
    gaps = tuple(sorted(gaps))
    if len(gaps) != 3 or any(g2 - g1 < 2 for g1, g2 in zip(gaps, gaps[1:])):
        return None
    pairs = []
    for g in gaps:
        if not 1 <= g <= len(d.word) - 1:
            return None
        (a, _), (b, _) = edge_flanks(d, g)
        if a == b:
            return None
        pairs.append(frozenset((a, b)))
    arrows = frozenset().union(*pairs)
    if len(arrows) != 3 or len(set(pairs)) != 3:
        return None
    flanked = [d.word[g - 1] for g in gaps] + [d.word[g] for g in gaps]
    if sorted(flanked) != sorted(t for t in d.word if t[0] in arrows):
        return None
    return tuple(sorted(arrows))


def brute_r3_moves(d, arrows=None) -> list:
    """Every valid R3 move, testing all triples of split gaps."""
    return [r3(gaps) for gaps in itertools.combinations(split_gaps(d, arrows), 3)
            if frozenset_r3_triangle(d, gaps) is not None and validate_r3(d, gaps)]


def looped_births(d, kind: str) -> list:
    """The R1 or R2 births of d, listed by nested loops."""
    n2 = len(d.word)
    signs = (1, -1) if isinstance(d, GaussDiagram) else (1,)
    if kind == R1_BIRTH:
        return [r1_birth(gap, order, sign) for gap in range(n2 + 1)
                for order in ("TH", "HT") for sign in signs]
    assert kind == R2_BIRTH
    return [r2_birth(gt, gh, tails_first, swap, s1)
            for gt in range(n2 + 1) for gh in range(n2 + 1)
            for tails_first in ((True, False) if gt == gh else (True,))
            for swap in (False, True) for s1 in signs]


def listed_random_move(rng, d):
    """``random_move`` by listing every applicable move of every kind."""
    moves = [m for kind in MOVE_KINDS for m in enumerate_moves(d, kind)]
    return rng.choice(moves) if moves else None


def listed_random_gauss_diagram(rng, max_degree: int) -> GaussDiagram:
    """``random_gauss_diagram`` by listing the moves of each drawn kind."""
    g = GaussDiagram((), {})
    for _ in range(rng.randrange(0, 3 * max_degree + 2)):
        kind = rng.choice(MOVE_KINDS)
        moves = enumerate_moves(g, kind)
        if not moves:
            continue
        nxt = apply_move(g, rng.choice(moves))
        if nxt.degree <= max_degree:
            g = nxt
    return g


def table_interleave(d, a: int, b: int) -> bool:
    """Whether arrows a and b cross, read from the ``arrow_positions`` table."""
    pos = arrow_positions(d)
    p1, p2 = sorted(pos[a].values())
    q1, q2 = sorted(pos[b].values())
    return (p1 < q1 < p2 < q2) or (q1 < p1 < q2 < p2)


def triangle_completions(p: Germ) -> list[Germ]:
    """The completions of a partial arrow germ to an arrow triangle.

    A third arrow is added next to the free ends of the distinguished
    pair, one for each direction of the added arrow; the directions
    that give a valid R3 triangle are kept.  A monotonic germ has one
    completion, a non-monotonic one has two.
    """
    if p.kind != KIND_P or p.signed:
        raise ValueError("completion is defined for partial arrow germs")
    d = p.g1
    (a, ka), (b, kb) = edge_flanks(d, *p.dist)
    other = {TAIL: HEAD, HEAD: TAIL}
    free_a = (a, other[ka])
    free_b = (b, other[kb])
    up_edge = (ka == HEAD) + (kb == HEAD)
    need = sorted({0, 1, 2} - {up_edge})
    out = []
    for kind_at_a, kind_at_b in ((TAIL, HEAD), (HEAD, TAIL)):
        ups = sorted(((free_a[1] == HEAD) + (kind_at_a == HEAD),
                      (free_b[1] == HEAD) + (kind_at_b == HEAD)))
        if ups != need:
            continue
        rid = max(d.arrow_ids()) + 1
        word = []
        for tok in d.word:
            word.append(tok)
            if tok == free_a:
                word.append((rid, kind_at_a))
            elif tok == free_b:
                word.append((rid, kind_at_b))
        comp = ArrowDiagram(word)
        gap_a = word.index((rid, kind_at_a))
        gap_b = word.index((rid, kind_at_b))
        gap_ab = locate_edge(comp, (a, ka), (b, kb))
        triple_gaps = tuple(sorted((gap_ab, gap_a, gap_b)))
        assert validate_r3(comp, triple_gaps)
        out.append(r3_germ_into(comp, triple_gaps))
    assert len(out) == (1 if p.is_monotonic() else 2)
    return out


def derived_monotonic_partners(p: Germ) -> list[Germ]:
    """The monotonic partial germs left by deleting a distinguished arrow of a completion."""
    partners = []
    for tri in triangle_completions(p):
        rid = max(tri.g1.arrow_ids())
        for victim in sorted(tri.distinguished_ids() - {rid}):
            sub = _delete_from_germ(tri, {victim})
            if sub.kind == KIND_P:
                canon, _ = sub.canonical()
                if canon.is_monotonic():
                    partners.append(canon)
    return partners


def permuted_arrow_diagrams(degree: int):
    """The canonical arrow diagrams in order of first occurrence among all token orders."""
    tokens = []
    for i in range(1, degree + 1):
        tokens.extend([(i, TAIL), (i, HEAD)])
    seen = set()
    for perm in itertools.permutations(tokens):
        d = ArrowDiagram(perm)
        key = d.canonical_key()
        if key not in seen:
            seen.add(key)
            yield d.canonical()


def seen_partial_germs(degree: int):
    """The canonical partial arrow germs, in order of first occurrence from either side."""
    seen = set()
    for d in enumerate_arrow_diagrams(degree):
        for gap in split_gaps(d):
            germ, _ = partial_germ_into(d, gap).canonical()
            if germ not in seen:
                seen.add(germ)
                yield germ


def seen_arrow_3germs(degree: int):
    """The canonical arrow 3-germs, in order of first occurrence from either side."""
    seen = set()
    for d in enumerate_arrow_diagrams(degree):
        for move in r3_moves(d):
            germ, _ = r3_germ_into(d, move.data).canonical()
            if germ not in seen:
                seen.add(germ)
                yield germ


def locate_edge(d, flank_left, flank_right) -> int:
    """The gap of d between the two given tokens."""
    word = d.word
    for i in range(1, len(word)):
        if word[i - 1] == flank_left and word[i] == flank_right:
            return i
    raise ValueError(f"edge {flank_left},{flank_right} not found")


def walked_scenes(bystanders: int):
    """Scene diagrams: active arrows 1 and 2 plus bystanders 3, 4, ...

    Words are generated literally, and only those whose first active
    token belongs to arrow 1 are kept, one per basepoint placement of
    the local picture.
    """
    tokens = [(1, TAIL), (1, HEAD), (2, TAIL), (2, HEAD)]
    for b in range(bystanders):
        tokens.extend([(3 + b, TAIL), (3 + b, HEAD)])
    ids = sorted({a for a, _ in tokens})
    for perm in itertools.permutations(tokens):
        if next(a for a, _ in perm if a in (1, 2)) != 1:
            continue
        for signs in itertools.product((1, -1), repeat=len(ids)):
            yield GaussDiagram(perm, dict(zip(ids, signs)))


def pruned_births(g0: GaussDiagram):
    """R2 births whose two blocks both touch an end of an active arrow.

    The first R3 move needs the slid arrow next to an end of each active
    arrow; other births never close up into a cube meridian.
    """
    good_gaps = set()
    for i, (aid, _) in enumerate(g0.word):
        if aid in (1, 2):
            good_gaps.update((i, i + 1))
    for m in enumerate_moves(g0, R2_BIRTH):
        if m.data[0] in good_gaps and m.data[1] in good_gaps:
            yield m


def walked_cube_meridians(scenes):
    """The cube meridians over the given scenes, by trying every pruned birth.

    Each unoriented meridian comes out once, sliding the later-born pair
    arrow first, with the scene as base diagram.
    """
    for g0 in scenes:
        byst = frozenset(a for a in g0.arrow_ids() if a not in (1, 2))
        for birth in pruned_births(g0):
            born = make_germ(g0, birth)
            g1 = born.g1
            c1, c2 = born.dist
            for m1 in r3_moves(g1, frozenset((1, 2, c2))):
                slide1 = make_germ(g1, m1)
                for m2 in r3_moves(slide1.g1, frozenset((1, 2, c1))):
                    slide2 = make_germ(slide1.g1, m2)
                    try:
                        dies = make_germ(slide2.g1, r2_death(c1, c2))
                    except InvalidMove:
                        continue
                    if _literally_equal(dies.g1, g0):
                        m = Meridian(CUBE, [born, slide1, slide2, dies], byst)
                        check_closed(m.germs)
                        yield m


def subset_unit_candidates(fg, others, res, target) -> list[dict]:
    """The unit-coefficient solutions over the supports (fg, a, b, c), one elimination each."""
    candidates = []
    for s3 in itertools.combinations(others, 3):
        support = (fg, *s3)
        sol = solve_in_span([res[j] for j in support], target)
        if sol is None or not all(sol):
            continue
        cand = {j: x / sol[0] for j, x in zip(support, sol)}
        if all(abs(c) == 1 for c in cand.values()):
            candidates.append(cand)
    return candidates


def _subtract(row: dict, f: Fraction, other: dict) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        nv = row.get(c, Fraction(0)) - f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


def fraction_eliminate(rows, ncols: int):
    """Reduced row echelon form over Fractions: the pivot rows, 1 at their pivots, and the pivots.

    Pivots are taken in increasing column order, each from the sparsest
    remaining row (lowest index on ties).
    """
    work = [{c: Fraction(v) for c, v in r.items()} for r in rows if r]
    pivots, final = [], []
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


def fraction_residual(reduced: SparseMatrix, row: dict) -> dict:
    """A row reduced in turn by each row of ``reduced`` at its least column, in Fractions."""
    work = {c: Fraction(v) for c, v in row.items()}
    for prow in reduced.rows:
        f = work.get(min(prow))
        if f:
            _subtract(work, f, prow)
    return work


def fraction_solve_in_span(rows, target):
    """``rational_linalg.solve_in_span`` through ``fraction_eliminate``."""
    cols = sorted(set(target).union(*rows))
    aug = [{**{j: r[c] for j, r in enumerate(rows) if r.get(c)},
            **({len(rows): target[c]} if target.get(c) else {})} for c in cols]
    final, pivots = fraction_eliminate(aug, len(rows) + 1)
    if len(rows) in pivots:
        return None
    coeffs = {p: row.get(len(rows), Fraction(0)) for p, row in zip(pivots, final)}
    return [coeffs.get(j, Fraction(0)) for j in range(len(rows))]


@functools.cache
def every_coboundary(degree: int) -> tuple[FormalSum, ...]:
    """The nonzero dA of every arrow diagram A of a degree, in enumeration order."""
    return tuple(db for db in map(coboundary, enumerate_arrow_diagrams(degree)) if db)


def filtered_trivial_variable_vectors(var_index) -> list[dict]:
    """The degree-3 coboundaries on the variables, each dA computed before it is filtered."""
    out = []
    for db in every_coboundary(3):
        if any(k not in var_index for k in db.keys()):
            continue
        vec = restrict_to_variables(db, var_index)
        if vec:
            out.append(vec)
    return out


def spanned_by_every_coboundary(alpha: FormalSum) -> bool:
    """Whether alpha lies in the span of every dA with deg A in ``TRIVIAL_DEGREES``."""
    rows = [{g.key(): c for g, c in db.items()}
            for deg in TRIVIAL_DEGREES for db in every_coboundary(deg)]
    return solve_in_span(rows, {g.key(): c for g, c in alpha.items()}) is not None


@functools.cache
def whole_space_coboundary(max_degree: int) -> tuple[list[ArrowDiagram], SparseMatrix]:
    """Every arrow diagram of degree at most max_degree and the matrix of d on them.

    One column per diagram in enumeration order, one row per germ key.
    """
    diagrams = [a for deg in range(max_degree + 1) for a in enumerate_arrow_diagrams(deg)]
    rows: dict = {}
    for i, a in enumerate(diagrams):
        for germ, c in coboundary(a).items():
            rows.setdefault(germ.key(), {})[i] = c
    return diagrams, SparseMatrix(len(rows), len(diagrams), list(rows.values()))


def whole_space_formulas(max_degree: int) -> list[list[str]]:
    """The kernel basis of the whole-space matrix of d, each vector as ``invariants`` prints it."""
    diagrams, mat = whole_space_coboundary(max_degree)
    return [sorted(f"{c} * [{format_diagram(diagrams[i])}]" for i, c in vec.items())
            for vec in kernel_basis(mat)]


def positional_bans(germ: Germ) -> set[int]:
    """The participation bans 1 to 4 that hit a germ, tested on each side's position table.

    1: an arrow other than the distinguished ones is isolated; 2: two such
    arrows are killable; 3: a distinguished arrow of a partial germ is
    isolated; 4: a distinguished arrow of an R3 germ is isolated and the
    other two are killable once it is deleted.
    """
    dist = germ.distinguished_ids()
    rest = [a for a in germ.arrow_ids() if a not in dist]
    bans = set()
    for side in (germ.g0, germ.g1):
        pos = arrow_positions(side)
        if any(isolated(pos, a) for a in rest):
            bans.add(1)
        if any(killable(pos, x, y) for x, y in itertools.combinations(rest, 2)):
            bans.add(2)
        for a in sorted(dist):
            if isolated(pos, a):
                if germ.kind == KIND_P:
                    bans.add(3)
                elif killable(arrow_positions(side.delete({a})), *sorted(dist - {a})):
                    bans.add(4)
    return bans


def positional_coboundary(a: ArrowDiagram) -> FormalSum:
    """dA with its R1 and R2 terms found by scanning the arrow position table."""
    pos = arrow_positions(a)
    out = FormalSum()
    for aid in pos:
        if isolated(pos, aid):
            key, coeff = canonical_term(Germ(KIND_R1, a.delete({aid}), a, (aid,)))
            out.add(key, coeff)
    for x, y in itertools.combinations(sorted(pos), 2):
        if killable(pos, x, y):
            key, coeff = canonical_term(Germ(KIND_R2, a.delete({x, y}), a, (x, y)))
            out.add(key, coeff)
    for move in r3_moves(a):
        key, coeff = canonical_term(r3_germ_into(a, move.data))
        out.add(key, coeff)
    lam = FormalSum()
    for gap in split_gaps(a):
        key, coeff = canonical_term(partial_germ_into(a, gap))
        lam.add(key, coeff)
    return out + monotonic_reduce(lam)


def chain_boundary(germs) -> FormalSum:
    """The boundary of a germ chain: the sum of the boundaries of its germs."""
    return sum((boundary(g) for g in germs), FormalSum())


def homogeneous_parts(fs: FormalSum) -> dict[int, FormalSum]:
    parts: dict[int, FormalSum] = {}
    for key, c in fs.items():
        parts.setdefault(key.degree, FormalSum()).add(key, c)
    return parts


def load_tetra_rows(fixtures) -> list[FormalSum]:
    """The equations of ``strata/fig9_tetra.json`` in a fixture directory, in file order."""
    obj = fio.load_json(fixtures / "strata" / "fig9_tetra.json")
    return [fio.formula_from_json(item) for item in obj["equations"]]


SLOPES = (1.0, 2.0, 3.0, 5.0)
_PERT_A = (1.0, 0.0, 0.0, 0.0)
_PERT_B = (0.0, 1.0, 0.0, 0.0)


def _wall_angles():
    """Angles at which each strand triple becomes concurrent."""
    events = []
    for tri in itertools.combinations(range(4), 3):
        i, j, k = tri
        coeff = [0.0] * 4
        coeff[i] = SLOPES[j] - SLOPES[k]
        coeff[j] = SLOPES[k] - SLOPES[i]
        coeff[k] = SLOPES[i] - SLOPES[j]
        ca = sum(coeff[n] * _PERT_A[n] for n in range(4))
        cb = sum(coeff[n] * _PERT_B[n] for n in range(4))
        # ca cos(t) + cb sin(t) = 0
        base = math.atan2(-ca, cb)
        events.append((base % (2 * math.pi), tri))
        events.append(((base + math.pi) % (2 * math.pi), tri))
    events.sort()
    return events


def geometric_sector_orders():
    """Per-sector partner orders along each strand, read off the lines' crossings.

    Strand s is the line y = SLOPES[s] x + c[s], the intercepts c moving
    on a circle in the plane of _PERT_A and _PERT_B; the sectors start
    after the first wall, at the midpoint angle between two walls.
    """
    events = _wall_angles()
    out = []
    for idx, (a0, _) in enumerate(events):
        a1 = events[(idx + 1) % len(events)][0]
        if idx + 1 == len(events):
            a1 += 2 * math.pi
        mid = (a0 + a1) / 2
        c = [_PERT_A[n] * math.cos(mid) + _PERT_B[n] * math.sin(mid) for n in range(4)]
        out.append(tuple(
            tuple(o for _, o in sorted(((c[o] - c[s]) / (SLOPES[s] - SLOPES[o]), o)
                                       for o in range(4) if o != s))
            for s in range(4)))
    return out
