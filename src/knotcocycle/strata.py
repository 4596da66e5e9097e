"""Codimension-2 strata, their meridians, and the degree-3 system.

A meridian is a closed chain of germs: consecutive germs share a
diagram and the telescoping boundary vanishes.  The only strata whose
equations are assembled as rows are the tangency-with-transverse-branch
("cube") family and the quadruple-point ("tetrahedron") family; every
other stratum acts through the variable filter below, and the
double-R3 stratum starts contributing only in degree 4.

Cube meridians are enumerated combinatorially: a scene is a small Gauss
diagram with two active arrows, a pair is born next to them by an R2
move, slides across the two triangles it forms with the active arrows
(two R3 moves) and dies again.  Every decoration (signs, positions,
basepoint, optional bystander arrow) is enumerated and the loop-closure
requirement prunes the invalid ones.

An equation is a homogeneous part of T(I(m; s)) where s selects the
surviving bystanders; for the degree-3 system only s of size at most
one matters.  Rows are normalised to integer vectors with positive
leading coefficient, so scalar multiples collapse under deduplication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import FormalSum, GaussDiagram, HEAD, TAIL
from .germs import (Germ, KIND_P, enumerate_arrow_3germs, enumerate_partial_germs,
                    make_germ, subgerms, t_map, _delete_from_germ)
from .moves import (R2_BIRTH, apply_move, arrow_positions, enumerate_moves,
                    isolated, killable, r2_death, r3_moves)
from .rational_linalg import SparseMatrix, kernel_basis, rank

CUBE = "cube"
QUADRUPLE = "quadruple"


@dataclass
class Meridian:
    tag: str
    germs: list[Germ]
    bystanders: frozenset[int] = frozenset()

    def base(self) -> GaussDiagram:
        return self.germs[0].g0

    def check_closed(self) -> None:
        for a, b in zip(self.germs, self.germs[1:]):
            if list(a.g1.word) != list(b.g0.word) or a.g1.signs != b.g0.signs:
                raise ValueError("consecutive germs do not share a diagram")
        last, first = self.germs[-1], self.germs[0]
        if list(last.g1.word) != list(first.g0.word) or last.g1.signs != first.g0.signs:
            raise ValueError("meridian does not close up")

    def boundary(self) -> FormalSum:
        out = FormalSum()
        for g in self.germs:
            out.add(g.g1.canonical(), 1)
            out.add(g.g0.canonical(), -1)
        return out

    def reverse_arrows(self) -> "Meridian":
        return Meridian(self.tag, [g.reverse_arrows() for g in self.germs],
                        self.bystanders)


def i_meridian(m: Meridian, s: frozenset[int]) -> FormalSum:
    """I(m; s): subgerms keeping the bystanders in s and losing the others."""
    if not s <= m.bystanders:
        raise ValueError("s must be a set of bystanders")
    drop = m.bystanders - s
    out = FormalSum()
    for germ in m.germs:
        for key, c in subgerms(germ, s, drop).items():
            out.add(key, c)
    return out


def ti_meridian(m: Meridian, s: frozenset[int]) -> FormalSum:
    """T(I(m; s)): bystanders outside s removed, those in s retained."""
    return t_map(i_meridian(m, s))


def meridian_without(m: Meridian, removed: frozenset[int]) -> Meridian:
    """The meridian with some bystander arrows deleted throughout."""
    germs = [_delete_from_germ(g, set(removed)) for g in m.germs]
    return Meridian(m.tag, germs, m.bystanders - removed)


def homogeneous_parts(fs: FormalSum) -> dict[int, FormalSum]:
    parts: dict[int, FormalSum] = {}
    for key, c in fs.items():
        parts.setdefault(key.degree, FormalSum()).add(key, c)
    return parts


# -- Variable filter (the strata that never appear as rows) -----------------

def banned_variable(germ: Germ) -> bool:
    """The four participation bans for arrow 3-germ formulas."""
    dist = germ.distinguished_ids()
    rest = [a for a in germ.arrow_ids() if a not in dist]
    for side in (germ.g0, germ.g1):
        pos = arrow_positions(side)
        if any(isolated(pos, a) for a in rest):
            return True
        if any(killable(pos, x, y) for x, y in itertools.combinations(rest, 2)):
            return True
        for a in sorted(dist):
            if isolated(pos, a):
                if germ.kind == KIND_P:
                    return True
                others = sorted(dist - {a})
                if killable(arrow_positions(side.delete({a})), *others):
                    return True
    return False


def variable_basis(degree: int) -> list[Germ]:
    """Allowed arrow 3-germs and monotonic partial germs of the degree."""
    germs: list[Germ] = list(enumerate_arrow_3germs(degree))
    germs.extend(p for p in enumerate_partial_germs(degree) if p.is_monotonic())
    return sorted((g for g in germs if not banned_variable(g)), key=lambda g: g.key())


# -- Cube meridian enumeration ----------------------------------------------

def _scene_diagrams(extra_bystanders: int):
    """Scene diagrams: two active arrows plus optional bystanders.

    Words are generated literally (not up to relabelling) so that every
    basepoint placement of the local picture occurs exactly once; the
    active arrows are ids 1 and 2.
    """
    tokens = [(1, TAIL), (1, HEAD), (2, TAIL), (2, HEAD)]
    for b in range(extra_bystanders):
        tokens.extend([(3 + b, TAIL), (3 + b, HEAD)])
    ids = sorted({a for a, _ in tokens})
    seen = set()
    for perm in itertools.permutations(tokens):
        if perm in seen:
            continue
        seen.add(perm)
        for signs in itertools.product((1, -1), repeat=len(ids)):
            yield GaussDiagram(perm, dict(zip(ids, signs)))


def _pruned_births(g0: GaussDiagram):
    """R2 births whose blocks can touch the active arrows' ends.

    The first R3 move needs the slid arrow adjacent to an end of each
    active arrow, which forces both birth blocks next to a token of
    arrow 1 or 2; other births can never close up into a cube meridian.
    """
    good_gaps = set()
    for i, (aid, _) in enumerate(g0.word):
        if aid in (1, 2):
            good_gaps.add(i)
            good_gaps.add(i + 1)
    for m in enumerate_moves(g0, R2_BIRTH):
        gt, gh = m.data[0], m.data[1]
        if gt in good_gaps and gh in good_gaps:
            yield m


def enumerate_cube_meridians(bystanders: int = 0, scenes=None):
    """All cube meridians over the given number of bystander arrows.

    Yields closed 4-germ loops: R2 birth, two R3 moves relating the pair
    to the two active arrows, R2 death.  Both traversal orientations are
    produced; meridians come out with the scene as base diagram.
    """
    if scenes is None:
        scenes = _scene_diagrams(bystanders)
    for g0 in scenes:
        byst = frozenset(a for a in g0.arrow_ids() if a not in (1, 2))
        for birth in _pruned_births(g0):
            g1 = apply_move(g0, birth)
            pair = sorted(set(g1.arrow_ids()) - set(g0.arrow_ids()))
            c1, c2 = pair
            for first, second in ((c1, c2), (c2, c1)):
                for m1 in r3_moves(g1, frozenset((1, 2, first))):
                    g2 = apply_move(g1, m1)
                    for m2 in r3_moves(g2, frozenset((1, 2, second))):
                        g3 = apply_move(g2, m2)
                        death = r2_death(c1, c2)
                        try:
                            g4 = apply_move(g3, death)
                        except Exception:
                            continue
                        if list(g4.word) != list(g0.word) or g4.signs != g0.signs:
                            continue
                        m = Meridian(CUBE, [make_germ(g0, birth),
                                            make_germ(g1, m1),
                                            make_germ(g2, m2),
                                            make_germ(g3, death)], byst)
                        m.check_closed()
                        yield m


def meridian_key(m: Meridian):
    return tuple(g.key() for g in m.germs)


def meridian_reversed(m: Meridian) -> Meridian:
    return Meridian(m.tag, [g.swapped() for g in reversed(m.germs)], m.bystanders)


def dedupe_meridians(meridians, up_to_traversal: bool = True):
    """Keep one representative per meridian (optionally per unoriented one)."""
    out = []
    seen = set()
    for m in meridians:
        k = meridian_key(m)
        if k in seen:
            continue
        seen.add(k)
        if up_to_traversal:
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
            row[j] = row.get(j, Fraction(0)) + c
    return {j: v for j, v in row.items() if v}


def normalise_row(row: dict[int, Fraction]) -> tuple:
    if not row:
        return ()
    items = sorted(row.items())
    denom_lcm = 1
    for _, v in items:
        denom_lcm = denom_lcm * v.denominator // _gcd(denom_lcm, v.denominator)
    ints = [(j, int(v * denom_lcm)) for j, v in items]
    g = 0
    for _, v in ints:
        g = _gcd(g, abs(v))
    ints = [(j, v // g) for j, v in ints]
    if ints[0][1] < 0:
        ints = [(j, -v) for j, v in ints]
    return tuple(ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@dataclass
class EquationSource:
    stratum: str
    meridian: Meridian
    s: frozenset[int]
    degree: int


@dataclass
class System:
    """The assembled degree-3 linear system."""

    degree: int
    variables: list[Germ]
    var_index: dict
    rows: list[tuple]
    sources: dict[tuple, EquationSource] = field(default_factory=dict)
    full_rows: list[FormalSum] = field(default_factory=list)

    def matrix(self) -> SparseMatrix:
        rows = [dict((j, Fraction(v)) for j, v in row) for row in self.rows]
        return SparseMatrix(len(rows), len(self.variables), rows)

    def kernel(self):
        return kernel_basis(self.matrix())

    def rank(self) -> int:
        return rank(self.matrix())


def collect_rows(meridians, var_index, degree: int, sources=None, tag="cube",
                 full_rows=None, full_seen=None, skip_empty_s=False):
    rows = []
    seen = set()
    for m in meridians:
        subsets = [frozenset()] + [frozenset((b,)) for b in sorted(m.bystanders)]
        if skip_empty_s and m.bystanders:
            # s = {} on a decorated meridian reproduces the row of the
            # meridian with the bystander deleted, already collected.
            subsets = subsets[1:]
        for s in subsets:
            parts = homogeneous_parts(ti_meridian(m, s))
            part = parts.get(degree)
            if not part:
                continue
            row = restrict_to_variables(part, var_index)
            norm = normalise_row(row)
            if norm and norm not in seen:
                seen.add(norm)
                rows.append(norm)
                if sources is not None:
                    sources[norm] = EquationSource(tag, m, s, degree)
            if full_rows is not None and part:
                fkey = _formal_key(part)
                if fkey and fkey not in full_seen:
                    full_seen.add(fkey)
                    full_rows.append(part)
    return rows


def _formal_key(fs: FormalSum):
    items = sorted(((k.key(), v) for k, v in fs.items()), key=lambda kv: kv[0])
    if not items:
        return ()
    lead = items[0][1]
    return tuple((k, v / lead) for k, v in items)


# -- Scene classification -----------------------------------------------------

def picture_fingerprint(m: Meridian, with_rotation: bool = True):
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
            rots = range(len(word)) if with_rotation else (0,)
            for r in rots:
                cand = (tuple(word[r:] + word[:r]), signs)
                if best is None or cand < best:
                    best = cand
    return best


def row_of_meridian(m: Meridian, var_index) -> tuple:
    part = homogeneous_parts(ti_meridian(m, frozenset())).get(3)
    if not part:
        return ()
    return normalise_row(restrict_to_variables(part, var_index))


def reversal_on_rows(variables, var_index):
    rev = {}
    for j, g in enumerate(variables):
        gr, s = g.reverse_arrows().canonical()
        rev[j] = (var_index[gr], s)

    def reverse_row(row: tuple) -> tuple:
        return normalise_row({rev[j][0]: Fraction(v) * rev[j][1] for j, v in row})

    return reverse_row


def classify_scenes(meridians, variables, var_index):
    """Group cube meridians into the six essentially-different scenes.

    Returns a map from labels 'a'..'f' to class records.  Labels are
    assigned so that scene c is the one whose individual pictures yield
    three essentially different equations over the three basepoint
    placements, and scenes d and e are the two whose equations involve
    four-term rows; the remaining labels follow the canonical
    fingerprint order.
    """
    reverse_row = reversal_on_rows(variables, var_index)
    pictures: dict = {}
    for m in meridians:
        pictures.setdefault(picture_fingerprint(m), []).append(m)

    groups: dict = {}
    for fp, ms in pictures.items():
        rows = frozenset(row_of_meridian(m, var_index) for m in ms)
        key = frozenset(rows) | frozenset(reverse_row(r) for r in rows)
        groups.setdefault(key, []).append(fp)

    classes = []
    for key, fps in groups.items():
        ms = [m for fp in fps for m in pictures[fp]]
        rows = {row_of_meridian(m, var_index) for m in ms}
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
    labels = {}
    pool = [c for c in classes]
    # d, e: the four-term classes; c: three equations without four-term rows.
    de = [c for c in pool if c["four_term"]]
    cc = [c for c in pool if not c["four_term"] and c["eq_count"] == 3]
    rest = [c for c in pool if c not in de and c not in cc]
    if len(de) == 2 and len(cc) == 1 and len(rest) == 3:
        order = {"a": rest[0], "b": rest[1], "c": cc[0],
                 "d": de[0], "e": de[1], "f": rest[2]}
    else:
        order = {chr(ord("a") + i): c for i, c in enumerate(classes)}
    for label, c in order.items():
        labels[label] = c
    return labels


def assemble_system(tetra_rows=None, bystanders: bool = False,
                    meridians=None) -> System:
    """The complete degree-3 system: cube rows plus the tetrahedron pair.

    ``tetra_rows`` are the two quadruple-point equations as FormalSums
    over germs (loaded from the fixture or regenerated); the double-R3
    stratum only contributes from degree 4 on and is omitted.
    """
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    if meridians is None:
        meridians = dedupe_meridians(enumerate_cube_meridians(0),
                                     up_to_traversal=True)
    sources: dict = {}
    full_rows: list = []
    full_seen: set = set()
    rows = collect_rows(meridians, var_index, 3, sources=sources, tag=CUBE,
                        full_rows=full_rows, full_seen=full_seen)
    if bystanders:
        mers1 = dedupe_meridians(enumerate_cube_meridians(1),
                                 up_to_traversal=True)
        extra = collect_rows(mers1, var_index, 3, sources=sources, tag=CUBE,
                             full_rows=full_rows, full_seen=full_seen,
                             skip_empty_s=True)
        known = set(rows)
        rows.extend(r for r in extra if r not in known)
    if tetra_rows is not None:
        known = set(rows)
        for fs in tetra_rows:
            part = {k: v for k, v in fs.items() if k.degree == 3}
            fsum = FormalSum(part.items())
            norm = normalise_row(restrict_to_variables(fsum, var_index))
            if norm and norm not in known:
                known.add(norm)
                rows.append(norm)
                sources[norm] = EquationSource(QUADRUPLE, None, frozenset(), 3)
            fkey = _formal_key(fsum)
            if fkey and fkey not in full_seen:
                full_seen.add(fkey)
                full_rows.append(fsum)
    return System(3, variables, var_index, rows, sources, full_rows)
