"""Codimension-2 strata, their meridians, and the degree-3 system.

A meridian is a closed chain of germs, like a loop: consecutive germs
share a diagram (``germs.check_closed``) and the telescoping boundary
vanishes.  The only strata whose equations are assembled as rows are
the tangency-with-transverse-branch ("cube") family and the
quadruple-point ("tetrahedron") family; every other stratum acts
through the variable filter below, and the double-R3 stratum starts
contributing only in degree 4.

Cube meridians are enumerated combinatorially: a scene is a small Gauss
diagram with two active arrows, a pair is born next to them by an R2
move, slides across the two triangles it forms with the active arrows
(two R3 moves) and dies again.  Every decoration (signs, positions,
basepoint) is enumerated once, up to swapping the labels of the two
active arrows.  The slides are searched once per scene word, on the
unsigned births, and a signed slide is an unsigned one whose edges
agree on w * eps: so the signs of the scene and of the birth are
solved for, not searched, and the two solutions of each birth are
each other with every sign flipped.  A meridian with one bystander
deletes to one without, so it is built from that one by inserting the
bystander's ends into gaps that no move of the loop touches; its germs
are that one's germs with the bystander inserted and the R3 gaps
shifted past its ends.

An equation is the degree-3 part of T(I(m; s)) where s selects the
surviving bystanders; for the degree-3 system only s of size at most
one matters.  Flipping every sign negates it, so of two meridians that
differ only so, the later one (the ``twin`` link) negates the earlier
one's equation instead of expanding its own.  The system is assembled
in one pass over one meridian list: the cube meridians, the
one-bystander ones when criterion 6b is checked, and the two
tetrahedron meridians; each meridian's tag names its stratum.  The
list's nonzero equations, each the first of its scalar class, are the
stored equations, and their restrictions to the variables, normalised
to integer vectors with positive leading coefficient, are the rows.
Every equation with s = {b} is zero, so the bystander meridians add no
row: they are listed only to check that.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, HEAD, TAIL
from .germs import (Germ, KIND_P, KIND_R2, KIND_R3, add_ti, enumerate_arrow_3germs,
                    enumerate_arrow_diagrams, enumerate_partial_germs, germ_between, make_germ,
                    reversed_chain)
from .moves import (R1_DEATH, R2_BIRTH, R2_DEATH, _fresh_ids, edge_data, edge_flanks,
                    enumerate_moves, r2_birth, r2_birth_word, r2_death, r3_moves, transpose)
from .rational_linalg import SparseMatrix, primitive, rank

CUBE = "cube"
QUADRUPLE = "quadruple"


class Meridian:
    """A closed germ chain with its bystander arrows.

    ``twin`` is None or an earlier meridian that differs from this one
    only by the sign of every arrow.  That multiplies a degree-k
    T(I(m; s)) by (-1)^k, as each degree-k subgerm keeps k arrows, so
    ``meridian_equation`` negates the twin's.
    """

    __slots__ = ("tag", "germs", "bystanders", "twin", "equations")

    def __init__(self, tag: str, germs: list[Germ], bystanders: frozenset[int] = frozenset(),
                 twin: Meridian | None = None):
        self.tag = tag
        self.germs = germs
        self.bystanders = bystanders
        self.twin = twin
        # meridian_equation's results by s, computed once per meridian.
        self.equations: dict = {}

    def base(self) -> GaussDiagram:
        return self.germs[0].g0


def ti_meridian(m: Meridian, s: frozenset[int], degrees=None) -> FormalSum:
    """T(I(m; s)): subgerms keeping the bystanders in s and losing the others.

    ``degrees`` restricts the output to subgerms of those degrees, as in
    ``germs.subgerms``.  Each germ is expanded on its unsigned skeleton
    (``germs.add_ti``), every term read from its placement table.
    """
    if not s <= m.bystanders:
        raise ValueError("s must be a set of bystanders")
    drop = m.bystanders - s
    out = FormalSum()
    for germ in m.germs:
        add_ti(out, germ, 1, s, drop, degrees)
    return out


# -- Variable filter (the strata that never appear as rows) -----------------

def banned_variable(germ: Germ) -> bool:
    """The four participation bans for arrow 3-germ formulas, read off each side's deaths.

    A germ is banned when, on either side,
    1. an arrow other than the distinguished ones can die by R1;
    2. two such arrows can die together by R2;
    3. a distinguished arrow can die by R1 and the germ is partial;
    4. a distinguished arrow of an R3 germ can die by R1, after which
       the other two can die by R2.
    """
    dist = germ.distinguished_ids()
    for side in (germ.g0, germ.g1):
        for death in enumerate_moves(side, R1_DEATH):
            (a,) = death.data
            if a not in dist or germ.kind == KIND_P:  # bans 1 and 3
                return True
            if r2_death(*(dist - {a})) in enumerate_moves(side.delete({a}), R2_DEATH):  # ban 4
                return True
        if any(dist.isdisjoint(death.data) for death in enumerate_moves(side, R2_DEATH)):  # ban 2
            return True
    return False


@functools.cache
def variable_basis(degree: int) -> tuple[Germ, ...]:
    """Allowed arrow 3-germs and monotonic partial germs of the degree.

    Computed once per process, so callers must not mutate the germs.
    """
    germs: list[Germ] = list(enumerate_arrow_3germs(degree))
    germs.extend(p for p in enumerate_partial_germs(degree) if p.is_monotonic())
    return tuple(sorted((g for g in germs if not banned_variable(g)), key=lambda g: g.key()))


# -- Cube meridian enumeration ----------------------------------------------

def _scene_diagrams():
    """Scene diagrams: the two active arrows 1 and 2, one list of signings per word.

    Swapping the two labels gives the same scene, so the words are the
    12 canonical ones of degree 2, those starting with arrow 1, in
    lexicographic order; each basepoint placement of the local picture
    then occurs exactly once.
    """
    for d in enumerate_arrow_diagrams(2):
        yield [GaussDiagram(d.word, {1: s1, 2: s2})
               for s1, s2 in itertools.product((1, -1), repeat=2)]


def _sliding_births(skeleton: ArrowDiagram) -> list:
    """The unsigned R2 births at a scene word whose pair slides, each with its two slides.

    The first slide moves the later-born arrow c2 across its triangle
    with the active arrows 1 and 2, the second moves c1.  Over the 12
    words, 72 of the 720 births have a first slide, and each has one of
    each.  An entry is the birth, then each slide with its ``_edge_eps``.
    """
    c1, c2 = _fresh_ids(skeleton, 2)
    out = []
    for birth in enumerate_moves(skeleton, R2_BIRTH):
        d1 = ArrowDiagram(r2_birth_word(skeleton.word, birth.data, c1, c2))
        first = r3_moves(d1, frozenset((1, 2, c2)))
        if first:
            (m1,) = first
            d2 = transpose(d1, m1.data)
            (m2,) = r3_moves(d2, frozenset((1, 2, c1)))
            out.append((birth, m1, _edge_eps(d1, m1, c2), m2, _edge_eps(d2, m2, c1)))
    return out


def _edge_eps(d: ArrowDiagram, move, c: int) -> tuple:
    """The eps of a slide's edges flanked by {1, 2}, {1, c} and {2, c}, in that order."""
    eps = {frozenset(a for a, _ in edge_flanks(d, g)): edge_data(d, g)[3] for g in move.data}
    return tuple(eps[frozenset(pair)] for pair in ((1, 2), (1, c), (2, c)))


def _slides(eps, s1: int, s2: int, sc: int) -> bool:
    """Whether a slide is signed when arrows 1, 2 and c are: its edges agree on w * eps."""
    e12, e1c, e2c = eps
    return s1 * s2 * e12 == s1 * sc * e1c == s2 * sc * e2c


def _bystander_meridians(m: Meridian, twins: list[Meridian] | None = None):
    """The 40 one-bystander meridians that delete to the bystander-free m.

    The bystander's ends go into the same gaps t <= h of the three
    diagrams after the birth: gaps that no R3 germ switches and that no
    pair of ends of the two born arrows flanks in the first or the
    third.  The scene is the first without the pair.  No move of the
    loop touches those gaps, so each germ is m's germ between the
    diagrams with the bystander inserted: an R2 germ keeps its arrows
    (the bystander is arrow 0, below every other id, so the birth keeps
    the born ids of m), and an R3 gap x becomes x + (x > t) + (x > h).

    ``twins``, those of m's twin in this order, give each one's twin:
    the same gaps and ends with the bystander's sign flipped.
    """
    born = m.germs[0].distinguished_ids()
    after = [g.g0 for g in m.germs[1:]]
    blocked = {*m.germs[1].dist, *m.germs[2].dist}  # switched by an R3 germ
    blocked.update(g for d in after[::2] for g in range(1, len(d.word))
                   if {d.word[g - 1][0], d.word[g][0]} == born)  # one end of each born arrow
    gaps = [g for g in range(len(after[0].word) + 1) if g not in blocked]
    placements = itertools.product(itertools.combinations_with_replacement(gaps, 2),
                                   ((TAIL, HEAD), (HEAD, TAIL)), (1, -1))
    for i, ((t, h), (e1, e2), sign) in enumerate(placements):  # the sign alternates
        walk = [GaussDiagram(d.word[:t] + ((0, e1),) + d.word[t:h] + ((0, e2),) + d.word[h:],
                             {**d.signs, 0: sign}) for d in after]
        walk.insert(0, walk[0].delete(born))
        germs = [Germ(g.kind, a, b, g.dist if g.kind == KIND_R2
                      else [x + (x > t) + (x > h) for x in g.dist])
                 for g, a, b in zip(m.germs, walk, walk[1:] + walk[:1])]
        yield Meridian(CUBE, germs, frozenset((0,)), None if twins is None else twins[i ^ 1])


def enumerate_cube_meridians(bystanders: int = 0):
    """All cube meridians over no or one bystander arrow.

    Yields closed 4-germ loops: R2 birth, two R3 moves relating the pair
    to the two active arrows, R2 death.  Each unoriented meridian comes
    out once, in the orientation that slides the later-born pair arrow
    first, with the scene as base diagram, ordered by signing, birth
    and birth sign.

    The slides are searched once per scene word (``_sliding_births``)
    and their signs solved: with e12, e1c and e2c the eps of the first
    slide's edges, it is signed exactly when s1 * s2 = e1c * e2c and c2
    is signed s2 * e12 * e1c.  So 2 of the 8 choices of signing and
    birth sign slide, each the other with every sign flipped, and the
    later one is the earlier one's ``twin``.  The second slide is
    checked by the same rule, and the death's ``germ_between`` raises
    unless the pair dies back to the scene: 792 R3 searches and 144
    births made, against 2,160 and 576 for searching every signed
    birth.  ``_bystander_meridians`` builds the others from these.
    """
    if bystanders not in (0, 1):
        raise ValueError(f"cube meridians have 0 or 1 bystanders, not {bystanders}")
    for scenes in _scene_diagrams():
        plans = _sliding_births(scenes[0].skeleton())
        firsts = {}  # plan index -> the first meridian built on it, and what it yielded
        for g0 in scenes:
            s1, s2 = g0.signs[1], g0.signs[2]
            for i, (birth, m1, eps1, m2, eps2) in enumerate(plans):
                sc2 = s2 * eps1[0] * eps1[1]  # solves s1 * s2 * e12 == s1 * sc2 * e1c
                if not (_slides(eps1, s1, s2, sc2) and _slides(eps2, s1, s2, -sc2)):
                    continue
                born = make_germ(g0, r2_birth(*birth.data[:4], -sc2))  # c1 is signed -sc2
                slide1 = Germ(KIND_R3, born.g1, transpose(born.g1, m1.data), m1.data)
                slide2 = Germ(KIND_R3, slide1.g1, transpose(slide1.g1, m2.data), m2.data)
                twin, twins = firsts.pop(i, (None, None))
                m = Meridian(CUBE, [born, slide1, slide2, germ_between(slide2.g1, g0)],
                             twin=twin)
                built = list(_bystander_meridians(m, twins)) if bystanders else [m]
                if twin is None:
                    firsts[i] = m, built
                yield from built


def meridian_key(m: Meridian):
    return tuple(g.key() for g in m.germs)


def meridian_reversed(m: Meridian) -> Meridian:
    return Meridian(m.tag, reversed_chain(m.germs), m.bystanders)


def dedupe_meridians(meridians):
    """Keep one representative per unoriented meridian."""
    out = []
    seen = set()
    for m in meridians:
        k = meridian_key(m)
        if k in seen:
            continue
        seen.add(k)
        seen.add(meridian_key(meridian_reversed(m)))
        out.append(m)
    return out


# -- Rows and the assembled system -------------------------------------------

def restrict_to_variables(fs: FormalSum, var_index: dict) -> dict[int, Fraction]:
    """Read off the variable coordinates of a chain-side functional.

    A 3-germ formula has coordinates only on allowed 3-germs and monotonic
    partial germs, so the pairing <alpha, fs> sees exactly these entries of
    fs; every other germ key contributes nothing and is dropped.  The
    functional must NOT be rewritten through the triangle relations first:
    that would change its values on the monotonic basis.
    """
    row: dict[int, Fraction] = {}
    for key, c in fs.items():
        j = var_index.get(key)
        if j is not None:
            row[j] = row.get(j, 0) + c
    return {j: v for j, v in row.items() if v}


def normalise_row(row: dict) -> tuple:
    """One representative of the row's nonzero multiples: its ``primitive`` row, sorted."""
    return tuple(sorted(primitive(row).items()))


def meridian_equation(m: Meridian, s: frozenset[int] = frozenset()) -> FormalSum:
    """The degree-3 equation of a meridian: the degree-3 part of T(I(m; s)).

    Computed once per meridian and s and kept on the meridian, so
    ``classify_scenes`` and ``collect_rows`` share it; callers must not
    mutate it.  A meridian with a ``twin`` takes the negation of the
    twin's, term by term in the same order, in O(terms) and with no
    expansion.
    """
    part = m.equations.get(s)
    if part is None:
        part = m.equations[s] = (ti_meridian(m, s, {3}) if m.twin is None
                                 else -meridian_equation(m.twin, s))
    return part


def equation_row(part: FormalSum, var_index) -> tuple:
    """The normalised row of an equation over the variables."""
    return normalise_row(restrict_to_variables(part, var_index))


class EquationSource(NamedTuple):
    """The meridian and bystander set s of an equation; ``meridian.tag`` is its stratum."""
    meridian: Meridian
    s: frozenset[int]


class System:
    """The assembled degree-3 linear system.

    Systems compare and hash by identity, so per-system results can be
    cached.
    """

    __slots__ = ("degree", "variables", "var_index", "rows", "sources", "full_rows")

    def __init__(self, degree: int, variables: tuple[Germ, ...], var_index: dict,
                 rows: list[tuple], sources: dict[tuple, EquationSource],
                 full_rows: list[FormalSum]):
        self.degree = degree
        self.variables = variables
        self.var_index = var_index
        self.rows = rows
        self.sources = sources
        self.full_rows = full_rows

    def matrix(self) -> SparseMatrix:
        rows = [dict(row) for row in self.rows]
        return SparseMatrix(len(rows), len(self.variables), rows)

    def rank(self) -> int:
        return rank(self.matrix())


def collect_rows(meridians) -> list[tuple[FormalSum, EquationSource]]:
    """The distinct degree-3 equations of the meridians, in order, with their sources.

    s runs over the empty set and the single bystanders; on a meridian
    with bystanders s = {} is skipped, as it reproduces the equation of
    the meridian with them deleted, which the bystander-free meridians
    give.  Zero equations are dropped, and of the equations that differ
    by a scalar factor only the first is kept.  On the one-bystander
    cube meridians every s = {b} equation is zero, so they give none.
    """
    out = []
    seen = set()
    for m in meridians:
        for s in [frozenset((b,)) for b in sorted(m.bystanders)] or [frozenset()]:
            part = meridian_equation(m, s)
            key = normalise_row({k.key(): v for k, v in part.items()})
            if key and key not in seen:
                seen.add(key)
                out.append((part, EquationSource(m, s)))
    return out


# -- Scene classification -----------------------------------------------------

def picture_fingerprint(m: Meridian):
    """Rotation-invariant fingerprint of a cube meridian's local picture.

    The degree-4 snapshot after the birth is relabelled by the roles of
    its arrows (the two active ones, the pair arrow slid first, the one
    slid second); the fingerprint is minimised over basepoint rotations
    and over the role symmetries, so two meridians agree exactly when
    they differ by moving the point at infinity.
    """
    g1 = m.germs[1].g0
    active = sorted(a for a in g1.arrow_ids() if a in (1, 2))
    tri1 = m.germs[1].distinguished_ids()
    pair = sorted(m.germs[3].distinguished_ids())
    cfirst = sorted(tri1 - set(active))[0]
    csecond = [c for c in pair if c != cfirst][0]
    byst = sorted(a for a in g1.arrow_ids() if a not in (*active, cfirst, csecond))
    best = None
    for a1, a2 in ((active[0], active[1]), (active[1], active[0])):
        for c1, c2 in ((cfirst, csecond), (csecond, cfirst)):
            role = {a1: 1, a2: 2, c1: 3, c2: 4}
            role.update({b: 5 + i for i, b in enumerate(byst)})
            word = [(role[a], k) for a, k in g1.word]
            signs = tuple(g1.signs[a] for a in sorted(role, key=role.get))
            for r in range(len(word)):
                cand = (tuple(word[r:] + word[:r]), signs)
                if best is None or cand < best:
                    best = cand
    return best


def row_of_meridian(m: Meridian, var_index) -> tuple:
    return equation_row(meridian_equation(m), var_index)


def reversal_on_rows(variables, var_index):
    rev = {}
    for j, g in enumerate(variables):
        gr, s = g.reverse_arrows().canonical()
        rev[j] = (var_index[gr], s)

    def reverse_row(row: tuple) -> tuple:
        return normalise_row({rev[j][0]: v * rev[j][1] for j, v in row})

    return reverse_row


def classify_scenes(meridians, variables, var_index):
    """Group cube meridians into the six essentially-different scenes.

    Returns a map from labels 'a'..'f' to class records.  Labels are
    assigned so that scene c is the one whose individual pictures yield
    three essentially different equations over the three basepoint
    placements, and scenes d and e are the two whose equations involve
    four-term rows; the remaining labels follow the canonical
    fingerprint order.  Raises RuntimeError unless the classes split into
    two four-term ones, one such c and three others, as those of all the
    bystander-free cube meridians do.
    """
    reverse_row = reversal_on_rows(variables, var_index)
    pictures: dict = {}
    for m in meridians:
        pictures.setdefault(picture_fingerprint(m), []).append(m)
    picture_rows = {fp: frozenset(row_of_meridian(m, var_index) for m in ms)
                    for fp, ms in pictures.items()}

    groups: dict = {}
    for fp, rows in picture_rows.items():
        key = rows | frozenset(reverse_row(r) for r in rows)
        groups.setdefault(key, []).append(fp)

    classes = []
    for key, fps in groups.items():
        ms = [m for fp in fps for m in pictures[fp]]
        rows = set().union(*(picture_rows[fp] for fp in fps))
        nonempty = {r for r in rows if r}
        up_to_rev = {min(r, reverse_row(r)) for r in nonempty}
        has4 = any(len(r) >= 4 for r in nonempty)
        classes.append({
            "fingerprints": sorted(fps),
            "meridians": ms,
            "rows": rows,
            "eq_count": len(up_to_rev),
            "four_term": has4,
        })

    classes.sort(key=lambda c: c["fingerprints"][0])
    # d, e: the four-term classes; c: three equations without four-term rows.
    de = [c for c in classes if c["four_term"]]
    cc = [c for c in classes if not c["four_term"] and c["eq_count"] == 3]
    rest = [c for c in classes if c not in de and c not in cc]
    if not (len(de) == 2 and len(cc) == 1 and len(rest) == 3):
        raise RuntimeError(f"expected scenes split 2/1/3, got "
                           f"{len(de)}/{len(cc)}/{len(rest)}")
    return {"a": rest[0], "b": rest[1], "c": cc[0],
            "d": de[0], "e": de[1], "f": rest[2]}


def assemble_system(meridians) -> System:
    """The degree-3 system of a meridian list, assembled in one pass.

    ``meridians``, iterated once, holds every meridian whose equations
    are rows: the cube meridians, the one-bystander ones (their
    equations are all zero, so they check criterion 6b and add no row)
    and the tetrahedron pair, as ``cocycles.assemble_default_system``
    lists them.  The equations of ``collect_rows`` are the stored
    equations ``full_rows``; their nonzero normalised rows, each kept at
    its first occurrence with the source of that equation, are ``rows``.
    """
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    full_rows: list[FormalSum] = []
    sources: dict[tuple, EquationSource] = {}
    for part, source in collect_rows(meridians):
        full_rows.append(part)
        norm = equation_row(part, var_index)
        if norm:
            sources.setdefault(norm, source)
    return System(3, variables, var_index, list(sources), sources, full_rows)
