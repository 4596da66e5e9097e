"""Germs of one-parameter families: the 1-chain and 1-cochain bases.

An i-germ is an ordered couple ``(g0, g1)`` of diagrams differing by an
R_i move, with the edges involved in the move distinguished.  A partial
germ is a 3-germ minus one distinguished arrow; what remains is a
transposition of two consecutive arrow ends across the single surviving
distinguished edge.  3-germs and partial germs satisfy the antisymmetry
relation (x, y) = -(y, x); we normalise them so that the distinguished
edges of ``g1`` carry co-orientation value +1, where the co-orientation
value of an edge is ``w * eps`` on Gauss diagrams and ``eps`` on arrow
diagrams (for a 3-germ, the product over the three edges).

Since exactly one end swap flips eps of its own edge and fixes the other
data, every unordered germ has exactly one normalised side, and a germ
presented the other way round carries a factor -1.

The triangle relations are built by one rule.  A non-monotonic partial
arrow germ P has an edge bounding the ends (a, k) and (b, k) of one
kind k, two tails or two heads.  Moving one of those ends, keeping its
kind, to just after the free end of the other arrow gives a monotonic
partial germ switched at the new edge; with two tails b moves first,
with two heads a does, and

    P  =  M_first + M_second   (mod triangle relations),

all three written in normalised orientation.  The rule is what deleting
a distinguished arrow of the two completions of P to an arrow triangle
leaves; that derivation is kept as an oracle in ``tests/oracles.py``.
The two relator families of the theory are the two cases up = 0 and
up = 2, images of each other under reversing every arrow.

T(I(germ)) is summed over the subgerms of the unsigned skeleton.  A
subgerm's normal form depends only on where the distinguished arrows'
ends lie on the two sides, on which of them it drops, and on where the
ends of the other arrows it keeps fall among them.  ``add_ti`` reads
every subgerm from the placement table ``_PLACEMENTS``, one per process.
A miss reads the subgerm's words off the skeleton's words and puts them
in normal form with ``_normalise``, the one normal-form rule, which
``Germ.canonical`` also follows; only a normal form met for the first
time is built as a germ.  Normal forms keep their ``key()`` and hash
once computed; a germ not canonicalised yet reads its key off its sides.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, HEAD, TAIL, _first_occurrence
from .moves import (InvalidMove, Move, R1_BIRTH, R1_DEATH, R2_BIRTH, R2_DEATH,
                    R3, _fresh_ids, _literally_equal, apply_move, edge_data, edge_flanks,
                    move_between, r1_death, r2_death, r3, r3_moves, split_gaps, transpose)

KIND_R1 = "R1"
KIND_R2 = "R2"
KIND_R3 = "R3"
KIND_P = "P"

# The germ kinds of a formula's terms that a germ of each move kind can meet.
_MEETS = {KIND_R1: (KIND_R1,), KIND_R2: (KIND_R2,), KIND_R3: (KIND_R3, KIND_P)}


class Germ:
    """An ordered diagram couple with distinguished move data.

    ``dist`` is a sorted tuple of ints for every kind: the move's arrow
    ids for R1 (one) and R2 (two), and gap indices, synchronised between
    the two sides, for R3 (three) and partial germs (one).  The
    constructor sorts whatever iterable it is given.  Validity of the
    underlying move is not enforced, so formal germs (arbitrary sign
    decorations of a skeleton) can be represented; ``validate`` checks it.
    """

    __slots__ = ("kind", "g0", "g1", "dist", "_canon", "_key", "_hash")

    def __init__(self, kind, g0, g1, dist):
        self.kind = kind
        self.g0 = g0
        self.g1 = g1
        self.dist = tuple(sorted(dist))
        self._canon = None
        self._key = self._hash = None  # set on normal forms only, by key() and hash()

    @property
    def signed(self) -> bool:
        return isinstance(self.g1, GaussDiagram)

    @property
    def degree(self) -> int:
        return max(self.g0.degree, self.g1.degree)

    def bigger(self):
        return self.g1 if self.g1.degree >= self.g0.degree else self.g0

    def arrow_ids(self) -> list[int]:
        return self.bigger().arrow_ids()

    def distinguished_ids(self) -> frozenset[int]:
        if self.kind in (KIND_R1, KIND_R2):
            return frozenset(self.dist)
        return frozenset(a for g in self.dist for a, _ in edge_flanks(self.g1, g))

    def orientation_value(self, side) -> int:
        """Co-orientation value of the distinguished edge(s) on one side."""
        val = 1
        for g in self.dist:
            _, _, w, eps = edge_data(side, g)
            val *= eps * (w if w is not None else 1)
        return val

    def is_monotonic(self) -> bool:
        if self.kind != KIND_P:
            raise ValueError("monotonicity is a partial-germ notion")
        _, up, _, _ = edge_data(self.g1, *self.dist)
        return up == 1

    def validate(self) -> None:
        """Raise ``ValueError`` unless g0 -> g1 is the named move at ``dist``.

        The sides are compared literally, same word and same signs.  An
        R3 germ switches the three gaps of a valid triangle; a partial
        germ switches the ends of two distinct arrows at its gap; an R1
        or R2 germ loses an arrow, or a pair, in the death position that
        ``moves.enumerate_moves`` reads, from the larger side.
        """
        if self.kind == KIND_P:
            edge_data(self.g1, *self.dist)  # raises unless two arrows bound the gap
            undone, other = transpose(self.g1, self.dist), self.g0
        elif self.kind == KIND_R3:
            undone, other = apply_move(self.g1, r3(self.dist)), self.g0
        else:
            if self.kind == KIND_R2 and len(set(self.dist)) != 2:
                raise InvalidMove(f"an R2 germ needs two distinct arrows, got {list(self.dist)}")
            big = self.bigger()
            death = (r1_death if self.kind == KIND_R1 else r2_death)(*self.dist)
            undone, other = apply_move(big, death), self.g0 if big is self.g1 else self.g1
        if not _literally_equal(undone, other):
            raise InvalidMove(f"g0 -> g1 is not the {self.kind} move at {list(self.dist)}")

    def swapped(self) -> "Germ":
        return Germ(self.kind, self.g1, self.g0, self.dist)

    def canonical(self) -> tuple["Germ", int]:
        """Normalised representative and the sign carried by this one.

        The normal form is the one ``_normalise`` reads off the words.  A
        germ presented the other way round is minus its normal form, so
        that cochain evaluation along a traversal is antisymmetric under
        reversing a step for every move kind -- the Stokes formula fails
        on death-oriented germs otherwise.
        """
        if self._canon is not None:
            # A normal form marks itself True rather than holding (self, 1),
            # so it is not a reference cycle and dies with its last user.
            return (self, 1) if self._canon is True else self._canon
        sign, m, dist = self._normal_data()
        g0, g1 = (self.g0, self.g1)[::sign]
        if m is not None:
            canon = Germ(self.kind, g0.relabel(m), g1.relabel(m), dist)
        else:  # labelled by first occurrence already
            canon = self if sign == 1 else Germ(self.kind, g0, g1, dist)
        canon._canon = True
        if canon is self:
            return self, 1
        self._canon = (canon, sign)
        return self._canon

    def _normal_data(self):
        """``_normalise`` on this germ: its normal form's sign, relabelling and dist."""
        value = self.orientation_value(self.g1) if self.kind in (KIND_R3, KIND_P) else 1
        return _normalise(self.kind, self.g0.word, self.g1.word, self.dist, value)

    def _normal_form(self) -> "Germ":
        return self if self._canon is True else self.canonical()[0]

    def key(self):
        """The normal form's identity, computed once on the normal form and kept there.

        A germ not canonicalised yet reads it off its sides instead, without
        building its normal form: relabelling keeps a diagram's
        ``canonical_key``.  Hashing builds the normal form, which keeps it.
        """
        if self._canon is None:
            sign, _, dist = self._normal_data()
            return (self.kind, *(self.g0.canonical_key(), self.g1.canonical_key())[::sign], dist)
        c = self._normal_form()
        if c._key is None:
            c._key = (c.kind, c.g0.canonical_key(), c.g1.canonical_key(), c.dist)
        return c._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Germ) and self.key() == other.key()

    def __hash__(self) -> int:
        c = self._normal_form()
        if c._hash is None:
            c._hash = hash(c.key())
        return c._hash

    def reverse_arrows(self) -> "Germ":
        return Germ(self.kind, self.g0.reverse_arrows(), self.g1.reverse_arrows(), self.dist)

    def __repr__(self) -> str:
        return f"Germ({self.kind}, {self.g0!r} -> {self.g1!r}, dist={self.dist})"


def canonical_term(germ: Germ, coeff=1) -> tuple[Germ, int | Fraction]:
    c, s = germ.canonical()
    return c, coeff * s


# A move kind's germ kind, and for a birth the number of arrows it bears.
_GERM_KINDS = {R1_BIRTH: (KIND_R1, 1), R1_DEATH: (KIND_R1, 0), R2_BIRTH: (KIND_R2, 2),
               R2_DEATH: (KIND_R2, 0), R3: (KIND_R3, 0)}


def _germ_data(g0, move: Move):
    """The germ kind and distinguished data of a move at g0; born ids are ``_fresh_ids``."""
    if move.kind not in _GERM_KINDS:
        raise InvalidMove(f"unknown move kind {move.kind}")
    kind, born = _GERM_KINDS[move.kind]
    return kind, _fresh_ids(g0, born) if born else move.data


def make_germ(g0, move: Move) -> Germ:
    """The germ of a move applied at g0, oriented g0 -> result; ``apply_move`` checks the move."""
    kind, dist = _germ_data(g0, move)
    return Germ(kind, g0, apply_move(g0, move), dist)


def germ_between(d, target) -> Germ:
    """The germ of the one move ``move_between`` finds from d to target; its g1 is target."""
    kind, dist = _germ_data(d, move_between(d, target))
    return Germ(kind, d, target, dist)


class OpenLoopError(ValueError):
    pass


def check_closed(germs) -> None:
    """Raise ``OpenLoopError`` unless the germs form a closed chain.

    Consecutive germs share a diagram literally; the last one ends on the
    first one's g0 up to relabelling, as a death undone by a rebirth with
    fresh ids does.  An empty chain is closed.
    """
    for a, b in zip(germs, germs[1:]):
        if not _literally_equal(a.g1, b.g0):
            raise OpenLoopError("consecutive germs do not share a diagram")
    if germs and germs[-1].g1 != germs[0].g0:
        raise OpenLoopError("the chain does not return to its base diagram")


def reversed_chain(germs) -> list[Germ]:
    """The chain traversed backwards: each germ swapped, in reverse order."""
    return [g.swapped() for g in reversed(germs)]


def boundary(germ: Germ) -> FormalSum:
    out = FormalSum()
    out.add(germ.g1.canonical(), 1)
    out.add(germ.g0.canonical(), -1)
    return out


def _normalise(kind, w0, w1, dist, value):
    """How the germ with these words becomes its normal form: (sign, relabelling, dist).

    R3 and partial germs normalise to the side with co-orientation value
    +1, ``value`` being that of w1; R1 and R2 germs to the birth
    orientation (larger side second).  The sign is -1 when the sides
    swap.  The relabelling, None for the identity, renames the arrows by
    first occurrence on the larger side of the normal form, and dist is
    the normal form's: R1 and R2 arrow ids renamed, gaps as they are.
    """
    sign = 1
    if (value != 1) if kind in (KIND_R3, KIND_P) else (len(w1) < len(w0)):
        sign, w0, w1 = -1, w1, w0
    m = _first_occurrence(w1 if len(w1) >= len(w0) else w0)
    if m is not None and kind in (KIND_R1, KIND_R2):
        dist = tuple(sorted(m[a] for a in dist))
    return sign, m, dist


def _deleted(germ: Germ, ids: set[int]):
    """The subgerm without the arrows ids: its kind, words and distinguished data.

    Its gaps are the germ's less the deleted tokens before them; a 3-germ
    losing one distinguished arrow keeps, as a partial germ, its first
    edge not flanked by that arrow.  Last come the germ's gaps that the
    subgerm keeps, empty for R1 and R2.
    """
    w0 = tuple(t for t in germ.g0.word if t[0] not in ids)
    w1 = tuple(t for t in germ.g1.word if t[0] not in ids)
    if germ.kind in (KIND_R1, KIND_R2):
        return germ.kind, w0, w1, germ.dist, ()
    word = germ.g1.word
    kind, gaps = germ.kind, germ.dist
    gone = ids & germ.distinguished_ids()
    if gone:
        (x,) = gone
        kind, gaps = KIND_P, [g for g in gaps if x not in (word[g - 1][0], word[g][0])][:1]
        if not gaps:
            raise ValueError("no surviving distinguished edge")
    dist = tuple(g - sum(1 for a, _ in word[:g] if a in ids) for g in gaps)
    return kind, w0, w1, dist, tuple(gaps)


def _delete_from_germ(germ: Germ, ids: set[int]) -> Germ:
    """Remove matched arrows from both sides, keeping distinguished data."""
    kind, _, _, dist, _ = _deleted(germ, ids)
    return Germ(kind, germ.g0.delete(ids), germ.g1.delete(ids), dist)


def _normal_subgerm(germ: Germ, ids: set[int]) -> tuple[Germ, int]:
    """The normal form of the skeleton's subgerm without the arrows ids, and its sign.

    It is read off the words: the kept edges are flanked by the germ's
    tokens, so their co-orientation values are the germ's.  A normal
    form met before is taken from ``_NORMAL_FORMS``; a new one is built
    once, with its two diagrams.
    """
    kind, w0, w1, dist, gaps = _deleted(germ, ids)
    value = math.prod(edge_data(germ.g1, g)[3] for g in gaps)
    sign, m, dist = _normalise(kind, w0, w1, dist, value)
    w0, w1 = (w0, w1)[::sign]
    if m is not None:
        w0, w1 = (tuple((m[a], k) for a, k in w) for w in (w0, w1))
    canon = _NORMAL_FORMS.get((kind, w0, w1, dist))
    if canon is None:
        canon = _NORMAL_FORMS[kind, w0, w1, dist] = Germ(kind, ArrowDiagram(w0),
                                                         ArrowDiagram(w1), dist)
        canon._canon = True
    return canon, sign


def _subgerm_levels(germ: Germ, keep: frozenset[int], drop: frozenset[int], degrees):
    """The distinguished arrows, the free bystanders, and the levels of the expansion.

    A level is a number r of free bystanders to remove with the tuples
    dd of distinguished arrows that may go with them, those that leave a
    subgerm of a kept degree; levels without any are left out.
    """
    dist = germ.distinguished_ids()
    if (keep | drop) & dist:
        raise ValueError("keep/drop sets must consist of non-distinguished arrows")
    rest = [a for a in germ.arrow_ids() if a not in dist and a not in keep and a not in drop]
    removable_dist: tuple = ((),)
    if germ.kind == KIND_R3:
        removable_dist = ((),) + tuple((x,) for x in sorted(dist))
    top = germ.degree - len(drop)
    levels = []
    for r in range(len(rest) + 1):
        dds = [dd for dd in removable_dist
               if degrees is None or top - r - len(dd) in degrees]
        if dds:
            levels.append((r, dds))
    return dist, rest, levels


def _subgerm_walk(germ: Germ, keep: frozenset[int], drop: frozenset[int], degrees):
    """The arrow sets that the subgerms of ``subgerms`` remove, in expansion order."""
    _, rest, levels = _subgerm_levels(germ, keep, drop, degrees)
    for r, dds in levels:
        for bys in itertools.combinations(rest, r):
            for dd in dds:
                yield drop.union(bys, dd)


def subgerms(germ: Germ, keep: frozenset[int] = frozenset(),
             drop: frozenset[int] = frozenset(), degrees=None) -> FormalSum:
    """The map I: formal sum of all subgerms, canonically normalised.

    For R1 and R2 germs no distinguished arrow may be removed; for a
    3-germ at most one may; partial germs keep their distinguished pair.
    ``keep`` and ``drop`` are sets of non-distinguished arrows that every
    subgerm retains and that every subgerm loses, respectively; with both
    empty this is the full expansion.

    ``degrees``, a set of germ degrees, keeps only the subgerms of those
    degrees; ``None`` keeps all.  A subgerm losing r free bystanders and
    the distinguished arrows dd has degree ``germ.degree - |drop| - r -
    |dd|``, and only the choices of a kept degree are canonicalised: for
    an R3 germ of degree n, C(n-3, k-3) + 3 C(n-3, k-2) per target degree
    k instead of 4 * 2^(n-3) in all.  The kept terms are added in the
    order of the full expansion, so the result is the restriction of the
    full expansion to those degrees, key order included.
    """
    out = FormalSum()
    for removed in _subgerm_walk(germ, keep, drop, degrees):
        key, coeff = canonical_term(_delete_from_germ(germ, removed))
        out.add(key, coeff)
    return out


def add_ti(out: FormalSum, germ: Germ, coeff=1, keep: frozenset[int] = frozenset(),
           drop: frozenset[int] = frozenset(), degrees=None) -> None:
    """Add ``coeff`` T(I(germ)) to ``out``, expanding the unsigned skeleton.

    T forgets the signs and weights a germ by their product; it is linear
    and respects the antisymmetry (x, y) = -(y, x) of both germ bases.
    So T(I(germ)) sums, over the subgerms S of the skeleton that
    ``subgerms`` walks (same ``keep``, ``drop`` and ``degrees``), the
    product of the signs of the arrows S keeps times the normal form of
    S, added in the walk's order.

    Every normal form is read from the table ``_PLACEMENTS``, keyed by
    the germ's placement (``_placement``, one pass over the words), the
    dropped distinguished arrow and the kept arrows' ends (``_slots``,
    O(k^2) for k kept arrows).  A miss (``_normal_subgerm``) drops the
    removed arrows from the words, shifts the gaps, orients and
    relabels the words by ``_normalise``, and stores the result; a germ
    with its two checked diagrams is built only for a normal form that
    ``_NORMAL_FORMS`` does not hold yet.  An R3 germ of
    degree n read in degree 3 (alpha31, the cube equations) so costs O(n),
    and one read in degree 4 O(n^2), with no canonicalisation once the
    table holds its shapes.
    """
    if not germ.signed:
        raise ValueError("T applies to signed germs")
    dist, rest, levels = _subgerm_levels(germ, keep, drop, degrees)
    if not levels:
        return
    signs = germ.bigger().signs
    base, label, ends = _placement(germ, dist)
    table = _PLACEMENTS.setdefault(base, {})
    bare = 1  # the sign product of the arrows that every subgerm keeps
    for a in itertools.chain(dist, keep):
        bare *= signs[a]
    keep = tuple(keep)
    for r, dds in levels:
        # Each dd with its dropped arrow's label and coeff times its sign (0 and coeff if none).
        dds = [(dd, label[dd[0]], coeff * signs[dd[0]]) if dd else (dd, 0, coeff) for dd in dds]
        # The arrows kept when combinations(rest, r) removes the others, in its order.
        for kept in reversed(list(itertools.combinations(rest, len(rest) - r))):
            weight = bare
            for b in kept:
                weight *= signs[b]
            slots = _slots(ends, keep + kept)
            for dd, dl, c in dds:
                hit = table.get((dl, slots))
                if hit is None:
                    table = _room(base, table)
                    removed = drop.union(set(rest).difference(kept), dd)
                    hit = table[dl, slots] = _normal_subgerm(germ, removed)
                canon, s = hit
                out.add(canon, c * weight * s)


# Subgerm normal forms by placement, then by the dropped distinguished
# arrow and the kept ends: one table per process, filled on a miss by
# ``add_ti``; nothing is built up front.  The normal forms themselves are
# shared by their words, so there are at most as many as table entries.
# Both tables are emptied together once the entries reach _TABLE_CAP, far
# above the 651 of ``solve``, the 1,188 of ``fixturegen`` and the under 200
# of a 400-trial ``stokes-check``, so a long run's memory stays bounded.
_PLACEMENTS: dict = {}
_NORMAL_FORMS: dict = {}
_TABLE_CAP = 10_000
_entries = 0  # the entries of all placements in _PLACEMENTS


def _room(base, table: dict) -> dict:
    """The placement's table, with one more entry counted; both tables
    are emptied first if they hold ``_TABLE_CAP`` entries."""
    global _entries
    if _entries >= _TABLE_CAP:
        _PLACEMENTS.clear()
        _NORMAL_FORMS.clear()
        _entries = 0
        table = _PLACEMENTS[base] = {}
    _entries += 1
    return table


def _placement(germ: Germ, dist: frozenset[int]):
    """A germ's unsigned placement, its relabelling, and the other arrows' ends.

    The distinguished arrows are relabelled 1, 2, ... by first
    occurrence on the bigger side.  The placement is the kind, their
    relabelled tokens on g0 and on g1, and for a 3-germ or a partial
    germ the number of those tokens before each distinguished gap of g1.
    The other arrows' ends are, for each arrow, its (slot, end) pairs in
    word order on g0 and on g1, the slot being the number of
    distinguished tokens before the end; with them come each side's
    token positions.  A distinguished gap is flanked by distinguished
    tokens, so no kept end shares its slot, and the placement, the
    dropped arrow and the kept ends (``_slots``) fix a subgerm up to
    relabelling, also for formal germs with arbitrary sides.
    """
    pictures, ends = [], []
    for side in (germ.g0, germ.g1):
        picture, where = [], {}
        for a, k in side.word:
            if a in dist:
                picture.append((a, k))
            else:
                where[a] = where.get(a, ()) + ((len(picture), k),)
        pictures.append(picture)
        ends.append(where)
    arrows = {a: (ends[0].get(a, ()), ends[1].get(a, ())) for a in {**ends[0], **ends[1]}}
    at = [{t: i for i, t in enumerate(side.word)} for side in (germ.g0, germ.g1)]
    first = pictures[::-1] if germ.bigger() is germ.g1 else pictures
    label = {a: i + 1 for i, a in enumerate(dict.fromkeys(a for p in first for a, _ in p))}
    gaps = () if germ.kind in (KIND_R1, KIND_R2) else germ.dist
    edges = tuple(sum(1 for a, _ in germ.g1.word[:g] if a in dist) for g in gaps)
    base = (germ.kind, *(tuple((label[a], k) for a, k in p) for p in pictures), edges)
    return base, label, (arrows, at)


def _slots(ends, kept) -> tuple:
    """The kept arrows' ends, arrow by arrow in the order given, and for
    each two of them whether each token of the first precedes each token
    of the second, on g0 and on g1.  These fix the order of the kept
    tokens on each side, so the key stands for the subgerm's words
    restricted to the kept arrows.  ``add_ti`` lists the free bystanders
    by first occurrence on the bigger side, so with no ``keep`` the key
    does not depend on the arrows' names."""
    arrows, at = ends
    return (tuple(map(arrows.__getitem__, kept)),
            tuple(tuple(pos[a, j] < pos[b, k] for pos, ea, eb in zip(at, arrows[a], arrows[b])
                        for _, j in ea for _, k in eb)
                  for a, b in itertools.combinations(kept, 2)))


def ti(germ_or_chain, degrees=None) -> FormalSum:
    """T(I(gamma)), or its part in the given germ degrees.

    T keeps the degree of every term, so restricting I to ``degrees``
    restricts TI to them.  Every term is one subgerm of the unsigned
    skeleton in normal form, read from the placement table (``add_ti``);
    the full expansion of an R3 germ of degree n has 4 * 2^(n-3) terms.
    """
    out = FormalSum()
    if isinstance(germ_or_chain, Germ):
        add_ti(out, germ_or_chain, degrees=degrees)
    else:
        for g, c in germ_or_chain.items():
            add_ti(out, g, c, degrees=degrees)
    return out


def pair_germ(alpha: FormalSum, gamma) -> int | Fraction:
    """<alpha, gamma> = <alpha, TI(gamma)> for a germ or chain gamma.

    Only the subgerms in the degrees of alpha's terms can meet alpha, so
    only those are expanded: a degree-k formula costs C(n-3, k-3) +
    3 C(n-3, k-2) terms on an R3 germ of degree n (1 + 3(n-3) for
    alpha31) instead of the 4 * 2^(n-3) of the full ``ti``.  A degree-3
    formula reads only subgerms with at most one bystander, so each term
    is one lookup in the placement table after one O(n) pass over the
    germ (``add_ti``): O(n) per R3 germ, and O(n^2) for a rotation loop
    on n crossings.  ``pair_germ_via_s`` in ``tests/oracles.py`` is the
    independent evaluation <S(alpha), I(gamma)>.
    """
    return alpha.dot(ti(gamma, {k.degree for k in alpha.keys()}))


def partial_germ_into(d, gap: int) -> Germ:
    """The partial germ oriented towards d, switching the pair at gap."""
    return Germ(KIND_P, transpose(d, (gap,)), d, (gap,))


def r3_germ_into(d, gaps) -> Germ:
    """The 3-germ oriented towards d, switching the pairs at the three gaps."""
    return Germ(KIND_R3, transpose(d, gaps), d, gaps)


def monotonic_partners(p: Germ) -> list[Germ]:
    """The monotonic germs M1, M2 of the triangle relation p = M1 + M2.

    p is a non-monotonic partial arrow germ: its edge bounds the ends
    (a, k) and (b, k) of one kind k.  Each partner moves one of these
    ends, keeping its kind, to just after the free end of the other
    arrow, and switches the pair at that new edge.  With two tails b
    moves first, with two heads a does.
    """
    if p.kind != KIND_P or p.signed or p.is_monotonic():
        raise ValueError("triangle relations are indexed by non-monotonic partial arrow germs")
    d = p.g1
    (a, k), (b, _) = edge_flanks(d, *p.dist)
    free = HEAD if k == TAIL else TAIL
    partners = []
    for moved, other in (((b, a), (a, b)) if k == TAIL else ((a, b), (b, a))):
        word = [t for t in d.word if t != (moved, k)]
        gap = word.index((other, free)) + 1
        word.insert(gap, (moved, k))
        partners.append(partial_germ_into(ArrowDiagram(word), gap).canonical()[0])
    return partners


# 2,646 entries hold every non-monotonic partial arrow germ of degree at
# most 4 (6 + 120 + 2,520 by ``enumerate_partial_germs``), all that the
# Lambda components cached by ``coboundary`` reduce, and bound the memory
# beyond.
@functools.lru_cache(maxsize=2646)
def _reduced_partners(canon: Germ) -> tuple[Germ, ...]:
    """``monotonic_partners`` of a normal form, which fixes them; callers must not mutate them."""
    partners = monotonic_partners(canon)
    assert len(partners) == 2 and all(m.is_monotonic() for m in partners)
    return tuple(partners)


def monotonic_reduce(alpha: FormalSum) -> FormalSum:
    """Rewrite partial arrow germ terms in the monotonic basis.

    Non partial-germ keys pass through untouched; the map is idempotent
    and preserves the germ degree of every term.  Each non-monotonic
    normal form's partners are computed once (``_reduced_partners``).
    """
    out = FormalSum()
    for germ, c in alpha.items():
        if not isinstance(germ, Germ) or germ.kind != KIND_P or germ.signed:
            out.add(germ, c)
            continue
        canon, s = germ.canonical()
        if canon.is_monotonic():
            out.add(canon, c * s)
            continue
        for m in _reduced_partners(canon):
            out.add(m, c * s)
    return out


def triangle_relator(p: Germ) -> FormalSum:
    """The relator with the non-monotonic germ on top: p - m1 - m2."""
    canon, _ = p.canonical()
    if canon.is_monotonic():
        raise ValueError("relators are indexed by non-monotonic partial germs")
    out = FormalSum()
    out.add(canon, 1)
    for m in monotonic_partners(canon):
        out.add(m, -1)
    return out


def enumerate_arrow_diagrams(degree: int):
    """All canonical arrow diagrams of the given degree, each once.

    A word is canonical when its arrows first occur in the order 1..n,
    so the words are grown one token at a time: each step closes a
    pending arrow (lowest id first) or opens the next id, tail before
    head.  That is lexicographic order in the token index 2(id - 1) +
    (0 for a tail, 1 for a head), and (2n)!/n! words in all.
    """
    def grow(word, pending):
        if len(word) == 2 * degree:
            yield ArrowDiagram(word)
            return
        for i, end in enumerate(pending):
            yield from grow(word + (end,), pending[:i] + pending[i + 1:])
        n = (len(word) + len(pending)) // 2  # arrows opened so far
        if n < degree:
            yield from grow(word + ((n + 1, TAIL),), pending + ((n + 1, HEAD),))
            yield from grow(word + ((n + 1, HEAD),), pending + ((n + 1, TAIL),))
    yield from grow((), ())


def enumerate_partial_germs(degree: int):
    """All canonical partial arrow germs of the degree, each once.

    Each germ is reached from its one side whose distinguished edge has
    co-orientation value -1.  The +1 side gives the same germs, but writes
    the degree-2 triangle relations in another order.
    """
    for d in enumerate_arrow_diagrams(degree):
        for gap in split_gaps(d):
            germ = partial_germ_into(d, gap)
            if germ.orientation_value(d) == -1:
                yield germ.canonical()[0]


def enumerate_arrow_3germs(degree: int):
    """All canonical arrow 3-germs of the degree, each once, from its side of value -1."""
    for d in enumerate_arrow_diagrams(degree):
        for move in r3_moves(d):
            germ = r3_germ_into(d, move.data)
            if germ.orientation_value(d) == -1:
                yield germ.canonical()[0]
