"""Edge combinatorics and Reidemeister moves on based diagrams.

Edges are the gaps between consecutive endpoint tokens; gap ``i`` sits
between ``word[i-1]`` and ``word[i]``, so interior gaps run from 1 to
2n-1 and the two unbounded gaps at the basepoint are 0 and 2n.  An edge
bounded by ends of two distinct arrows carries the local data

    eta  = +1 if the two bounding arrows interleave, else -1,
    up   = number of arrowheads among the two bounding ends,
    w    = product of the two arrows' signs (Gauss diagrams only),
    eps  = eta * (-1) ** up.

A triple of disjoint interior edges whose flanking pairs realise the three
sides of an arrow triangle is an R3 candidate; it is a valid R3 move when
the up values are pairwise different and, on Gauss diagrams, when
``w(e) * eps(e)`` agrees on all three edges.

R1 and R2 deaths are read off adjacent tokens: an arrow with adjacent ends,
or two arrows with adjacent tails and adjacent heads (of opposite signs on
Gauss diagrams); ``apply_move`` takes only the deaths ``enumerate_moves`` lists.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .diagrams import ArrowDiagram, GaussDiagram, HEAD, TAIL, Token

R1_BIRTH = "R1_birth"
R1_DEATH = "R1_death"
R2_BIRTH = "R2_birth"
R2_DEATH = "R2_death"
R3 = "R3"

MOVE_KINDS = (R1_BIRTH, R1_DEATH, R2_BIRTH, R2_DEATH, R3)


class InvalidMove(ValueError):
    pass


# The data layout of each move kind, one entry per field: int, or a tuple
# of the allowed values, all of one type.
_MOVE_DATA = {
    R1_BIRTH: (int, ("TH", "HT"), (1, -1)),
    R1_DEATH: (int,),
    R2_BIRTH: (int, int, (True, False), (True, False), (1, -1)),
    R2_DEATH: (int, int),
    R3: (int, int, int),
}


def _fits(x, spec) -> bool:
    """Whether x fits a field's spec; types are compared, so True is not the sign 1."""
    if spec is int:
        return type(x) is int
    return type(x) is type(spec[0]) and x in spec


def interleave(d: ArrowDiagram, a: int, b: int) -> bool:
    """Whether arrows a and b cross (their spans alternate along the line)."""
    index = d.word.index
    p1, p2 = sorted((index((a, TAIL)), index((a, HEAD))))
    q1, q2 = sorted((index((b, TAIL)), index((b, HEAD))))
    return (p1 < q1 < p2 < q2) or (q1 < p1 < q2 < p2)


def edge_flanks(d: ArrowDiagram, gap: int) -> tuple[Token, Token]:
    if not 1 <= gap <= len(d.word) - 1:
        raise InvalidMove(f"gap {gap} is unbounded or out of range; eps undefined here")
    return d.word[gap - 1], d.word[gap]


def edge_data(d: ArrowDiagram, gap: int):
    """Return (eta, up, w, eps) for the edge at the given interior gap.

    For plain arrow diagrams w is reported as None.
    """
    (a, ka), (b, kb) = edge_flanks(d, gap)
    if a == b:
        raise InvalidMove(f"edge at gap {gap} is bounded by a single arrow; eps undefined here")
    eta = 1 if interleave(d, a, b) else -1
    up = (ka == HEAD) + (kb == HEAD)
    eps = eta * (-1) ** up
    w = d.signs[a] * d.signs[b] if isinstance(d, GaussDiagram) else None
    return eta, up, w, eps


class Move(NamedTuple):
    kind: str
    data: tuple

    def __repr__(self) -> str:
        return f"Move({self.kind}, {self.data})"


def r1_birth(gap: int, order: str, sign: int) -> Move:
    """order is 'TH' (tail first) or 'HT'."""
    return Move(R1_BIRTH, (gap, order, sign))


def r1_death(aid: int) -> Move:
    return Move(R1_DEATH, (aid,))


def r2_birth(tails_gap: int, heads_gap: int, tails_first: bool,
             swap_heads: bool, sign_first: int) -> Move:
    return Move(R2_BIRTH, (tails_gap, heads_gap, tails_first, swap_heads, sign_first))


def r2_death(a: int, b: int) -> Move:
    return Move(R2_DEATH, tuple(sorted((a, b))))


def r3(gaps) -> Move:
    return Move(R3, tuple(sorted(gaps)))


def _fresh_ids(d: ArrowDiagram, n: int) -> list[int]:
    top = max([a for a, _ in d.word], default=0)
    return [top + i + 1 for i in range(n)]


def r2_birth_word(word, data, a: int, b: int) -> list:
    """The word after the R2 birth with ``data`` of arrows a and b, a born first.

    The tails go into gap ``data[0]`` and the heads into gap ``data[1]``.
    """
    gt, gh, tails_first, swap_heads, _ = data
    word = list(word)
    tails = [(a, TAIL), (b, TAIL)]
    heads = [(b, HEAD), (a, HEAD)] if swap_heads else [(a, HEAD), (b, HEAD)]
    if gt < gh:
        word[gh:gh] = heads
        word[gt:gt] = tails
    elif gh < gt:
        word[gt:gt] = tails
        word[gh:gh] = heads
    else:
        word[gt:gt] = tails + heads if tails_first else heads + tails
    return word


def r3_triangle(d: ArrowDiagram, gaps) -> tuple[int, ...] | None:
    """The arrow triple of an R3 edge candidate, or None if malformed.

    The three edges must be disjoint, each bounded by two distinct arrows,
    involve exactly three arrows in total, and every pair of those arrows
    must bound exactly one of the edges.
    """
    gaps = tuple(sorted(gaps))
    word = d.word
    if len(gaps) != 3:
        return None
    g1, g2, g3 = gaps
    if g2 - g1 < 2 or g3 - g2 < 2 or g1 < 1 or g3 > len(word) - 1:
        return None
    pairs = set()
    for g in gaps:
        a, b = word[g - 1][0], word[g][0]
        if a == b:
            return None
        pairs.add((a, b) if a < b else (b, a))
    arrows = {x for pair in pairs for x in pair}
    if len(arrows) != 3 or len(pairs) != 3:
        return None
    # All six flanking tokens are exactly the six ends of the triple.
    flanked = [word[g - 1] for g in gaps] + [word[g] for g in gaps]
    if sorted(flanked) != sorted(t for t in word if t[0] in arrows):
        return None
    return tuple(sorted(arrows))


def validate_r3(d: ArrowDiagram, gaps) -> bool:
    """Both R3 validity conditions (condition 1 only applies with signs)."""
    if r3_triangle(d, gaps) is None:
        raise InvalidMove(f"gaps {tuple(gaps)} do not form a triangle configuration")
    return _r3_conditions(d, gaps)


def _r3_conditions(d: ArrowDiagram, gaps) -> bool:
    """The R3 conditions on a triangle's edges: three up values, one w * eps."""
    ups = set()
    wes = set()
    for g in sorted(gaps):
        eta, up, w, eps = edge_data(d, g)
        ups.add(up)
        if w is not None:
            wes.add(w * eps)
    if len(ups) != 3:
        return False
    if isinstance(d, GaussDiagram) and len(wes) != 1:
        return False
    return True


def transpose(d, gaps):
    """Switch the two ends bounding each of the given interior gaps."""
    word = list(d.word)
    for g in gaps:
        word[g - 1], word[g] = word[g], word[g - 1]
    if isinstance(d, GaussDiagram):
        return GaussDiagram(word, d.signs)
    return ArrowDiagram(word)


def split_gaps(d: ArrowDiagram, arrows=None) -> list[int]:
    """Interior gaps bounded by two distinct arrows, both in ``arrows`` if given."""
    word = d.word
    return [g for g in range(1, len(word))
            if word[g - 1][0] != word[g][0]
            and (arrows is None or (word[g - 1][0] in arrows and word[g][0] in arrows))]


def r3_moves(d, arrows=None) -> list[Move]:
    """All valid R3 moves of d, or only those on the arrow triple ``arrows``.

    The split gaps are bucketed by the arrow pair that flanks them, and
    candidate gap triples are formed only from three buckets whose pairs
    close a triangle {a, b}, {a, c}, {b, c}; restricting the gaps to
    those flanked by the required arrows keeps the cube-meridian search
    small.  Candidates are checked in sorted order, so moves come out
    sorted by their gaps.  The work is one pass over the split gaps, one
    lookup per pair of buckets sharing an arrow, and the candidates of
    the triangles found, against C(g, 3) triples of all g split gaps.
    """
    word = d.word
    flanked: dict[tuple[int, int], list[int]] = {}
    for g in split_gaps(d, arrows):
        a, b = word[g - 1][0], word[g][0]
        flanked.setdefault((a, b) if a < b else (b, a), []).append(g)
    if len(flanked) < 3:
        return []
    above: dict[int, list[int]] = {}
    for a, b in flanked:
        above.setdefault(a, []).append(b)
    candidates = []
    for (a, b), ab in flanked.items():
        for c in above.get(b, ()):
            ac = flanked.get((a, c))
            if ac is not None:
                candidates.extend(tuple(sorted(gaps)) for gaps in
                                  itertools.product(ab, ac, flanked[b, c]))
    candidates.sort()
    return [r3(gaps) for gaps in candidates
            if r3_triangle(d, gaps) is not None and _r3_conditions(d, gaps)]


def apply_move(d, move: Move):
    """Apply a move, returning a new diagram with stable arrow ids.

    Newly born arrows receive the ids just above the largest one present.
    The result is not relabelled; diagram equality is canonical anyway.
    The data must fit the kind's layout in ``_MOVE_DATA``.  A death is
    checked against ``enumerate_moves``, its data in either order.
    """
    spec = _MOVE_DATA.get(move.kind)
    if spec is None:
        raise InvalidMove(f"unknown move kind {move.kind}")
    if len(move.data) != len(spec) or not all(map(_fits, move.data, spec)):
        layout = ", ".join("int" if t is int else " or ".join(map(repr, t)) for t in spec)
        raise InvalidMove(f"{move.kind} data {move.data!r} does not fit ({layout})")
    if move.kind in (R1_DEATH, R2_DEATH):
        if Move(move.kind, tuple(sorted(move.data))) not in enumerate_moves(d, move.kind):
            raise InvalidMove(f"arrows {list(move.data)} are not in {move.kind} position")
        return d.delete(move.data)

    word = list(d.word)
    signed = isinstance(d, GaussDiagram)
    signs = dict(d.signs) if signed else None

    if move.kind == R1_BIRTH:
        gap, order, sign = move.data
        if not 0 <= gap <= len(word):
            raise InvalidMove("birth gap out of range")
        (aid,) = _fresh_ids(d, 1)
        block = [(aid, TAIL), (aid, HEAD)] if order == "TH" else [(aid, HEAD), (aid, TAIL)]
        word[gap:gap] = block
        if signed:
            signs[aid] = sign

    elif move.kind == R2_BIRTH:
        gt, gh, _, _, s1 = move.data
        if not (0 <= gt <= len(word) and 0 <= gh <= len(word)):
            raise InvalidMove("birth gap out of range")
        a, b = _fresh_ids(d, 2)
        word = r2_birth_word(word, move.data, a, b)
        if signed:
            signs[a] = s1
            signs[b] = -s1

    else:  # R3
        gaps = move.data
        if not validate_r3(d, gaps):
            raise InvalidMove(f"R3 conditions fail at gaps {gaps}")
        return transpose(d, gaps)

    return GaussDiagram(word, signs) if signed else ArrowDiagram(word)


def inverse(d, move: Move) -> Move:
    """The move undoing ``move`` on ``apply_move(d, move)``."""
    if move.kind == R1_BIRTH:
        return r1_death(_fresh_ids(d, 1)[0])
    if move.kind == R1_DEATH:
        (aid,) = move.data
        i = [a for a, _ in d.word].index(aid)
        sign = d.signs[aid] if isinstance(d, GaussDiagram) else 1
        return r1_birth(i, "TH" if d.word[i][1] == TAIL else "HT", sign)
    if move.kind == R2_BIRTH:
        return r2_death(*_fresh_ids(d, 2))
    if move.kind == R2_DEATH:
        # t and h start the tails and the heads block; the earlier block shifts the other's gap
        word = d.word
        t = min(word.index((a, TAIL)) for a in move.data)
        h = min(word.index((a, HEAD)) for a in move.data)
        first = word[t][0]
        s1 = d.signs[first] if isinstance(d, GaussDiagram) else 1
        return r2_birth(t - 2 * (h < t), h - 2 * (t < h), t < h, word[h][0] != first, s1)
    if move.kind == R3:
        return move
    raise InvalidMove(f"unknown move kind {move.kind}")


def _literally_equal(a, b) -> bool:
    return a.word == b.word and getattr(a, "signs", None) == getattr(b, "signs", None)


def move_between(d, target) -> Move:
    """The one move taking d to target literally: same word, same signs.

    Born arrows are read off target and the birth is the inverse of
    their death there; dead arrows name the death; otherwise the three
    arrows whose ends moved name the R3 move, which is compared after
    ``transpose``.  Raises ``InvalidMove`` when no single move does it.
    """
    ids = {a for a, _ in d.word}
    target_ids = {a for a, _ in target.word}
    born, dead = sorted(target_ids - ids), sorted(ids - target_ids)
    if born or dead:
        ends = born or dead
        if born and dead or len(ends) > 2:
            raise InvalidMove(f"arrows {born} are born and {dead} die: not one move")
        death = r1_death(*ends) if len(ends) == 1 else r2_death(*ends)
        move = inverse(target, death) if born else death
        try:
            if _literally_equal(apply_move(d, move), target):
                return move
        except InvalidMove:
            pass
    else:
        moved = {t[0] for t, u in zip(d.word, target.word) if t != u}
        if len(moved) == 3:
            for move in r3_moves(d, moved):
                if _literally_equal(transpose(d, move.data), target):
                    return move
    raise InvalidMove(f"no single move takes {d!r} to {target!r}")


def _r1_birth_at(signed: bool, i: int) -> Move:
    """The i-th R1 birth in enumeration order: gap, then order, then sign."""
    ns = 2 if signed else 1
    gap, i = divmod(i, 2 * ns)
    order, sign = divmod(i, ns)
    return r1_birth(gap, ("TH", "HT")[order], (1, -1)[sign])


def _r2_birth_at(n2: int, signed: bool, i: int) -> Move:
    """The i-th R2 birth in enumeration order.

    The order is tails gap, heads gap, block order (both orders only when
    the two gaps agree), head order, then sign: each tails gap owns
    n2 + 2 slots of 2 * (number of signs) births, two of them at the
    heads gap equal to it.
    """
    ns = 2 if signed else 1
    gt, i = divmod(i, (n2 + 2) * 2 * ns)
    slot, i = divmod(i, 2 * ns)
    gh = slot if slot <= gt else slot - 1
    tails_first = slot != gt + 1
    swap, sign = divmod(i, ns)
    return r2_birth(gt, gh, tails_first, bool(swap), (1, -1)[sign])


def _indexed_moves(d, kind: str):
    """The number of moves of a kind applicable to d and the index -> move map.

    Births are counted and built from their index alone; the other kinds
    are listed, as there are few of them.
    """
    n2 = len(d.word)
    signed = isinstance(d, GaussDiagram)
    ns = 2 if signed else 1
    if kind == R1_BIRTH:
        return (n2 + 1) * 2 * ns, functools.partial(_r1_birth_at, signed)
    if kind == R2_BIRTH:
        return (n2 + 1) * (n2 + 2) * 2 * ns, functools.partial(_r2_birth_at, n2, signed)
    moves = enumerate_moves(d, kind)
    return len(moves), moves.__getitem__


def enumerate_moves(d, kind: str) -> list[Move]:
    """All moves of the given kind applicable to d, positions read as gaps."""
    if kind in (R1_BIRTH, R2_BIRTH):
        count, at = _indexed_moves(d, kind)
        return [at(i) for i in range(count)]

    if kind == R1_DEATH:
        return [r1_death(a) for (a, _), (b, _) in zip(d.word, d.word[1:]) if a == b]

    if kind == R2_DEATH:
        adjacent: dict[str, set] = {TAIL: set(), HEAD: set()}
        for (a, ka), (b, kb) in zip(d.word, d.word[1:]):
            if ka == kb:  # then a != b: an arrow has one end of each kind
                adjacent[ka].add((a, b) if a < b else (b, a))
        return [r2_death(a, b) for a, b in sorted(adjacent[TAIL] & adjacent[HEAD])
                if not (isinstance(d, GaussDiagram) and d.signs[a] == d.signs[b])]

    if kind == R3:
        return r3_moves(d)

    raise InvalidMove(f"unknown move kind {kind}")


# -- Random samples for the randomized checks ---------------------------------

def random_move(rng, d):
    """A uniformly chosen move of any kind applicable to d, or None.

    The index is drawn over all kinds in ``MOVE_KINDS`` order and only
    the chosen move is built; ``rng.randrange(n)`` draws what
    ``rng.choice`` of an n-element list draws.
    """
    indexed = [_indexed_moves(d, kind) for kind in MOVE_KINDS]
    total = sum(count for count, _ in indexed)
    if not total:
        return None
    i = rng.randrange(total)
    for count, at in indexed:
        if i < count:
            return at(i)
        i -= count
    raise AssertionError("index beyond the move count")


def random_gauss_diagram(rng, max_degree: int) -> GaussDiagram:
    """A random diagram reached from the empty one by random R-moves."""
    g = GaussDiagram((), {})
    for _ in range(rng.randrange(0, 3 * max_degree + 2)):
        kind = rng.choice(MOVE_KINDS)
        count, at = _indexed_moves(g, kind)
        if not count:
            continue
        i = rng.randrange(count)  # drawn also for a birth past the cap, which is not built
        if g.degree + {R1_BIRTH: 1, R2_BIRTH: 2}.get(kind, 0) <= max_degree:
            g = apply_move(g, at(i))
    return g


def random_arrow_diagram(rng, max_degree: int) -> ArrowDiagram:
    """A canonical arrow diagram of random degree and random token order."""
    deg = rng.randrange(0, max_degree + 1)
    tokens = []
    for i in range(1, deg + 1):
        tokens.extend([(i, TAIL), (i, HEAD)])
    rng.shuffle(tokens)
    return ArrowDiagram(tokens).canonical()
