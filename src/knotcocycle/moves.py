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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagrams import ArrowDiagram, GaussDiagram, HEAD, TAIL, Token

R1_BIRTH = "R1_birth"
R1_DEATH = "R1_death"
R2_BIRTH = "R2_birth"
R2_DEATH = "R2_death"
R3 = "R3"

MOVE_KINDS = (R1_BIRTH, R1_DEATH, R2_BIRTH, R2_DEATH, R3)


class InvalidMove(ValueError):
    pass


def arrow_positions(d: ArrowDiagram) -> dict[int, dict[str, int]]:
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


def interleave(d: ArrowDiagram, a: int, b: int) -> bool:
    """Whether arrows a and b cross (their spans alternate along the line)."""
    pos = arrow_positions(d)
    p1, p2 = sorted(pos[a].values())
    q1, q2 = sorted(pos[b].values())
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


@dataclass(frozen=True)
class Move:
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


def r3_triangle(d: ArrowDiagram, gaps) -> tuple[int, ...] | None:
    """The arrow triple of an R3 edge candidate, or None if malformed.

    The three edges must be disjoint, each bounded by two distinct arrows,
    involve exactly three arrows in total, and every pair of those arrows
    must bound exactly one of the edges.
    """
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
    # All six flanking tokens are exactly the six ends of the triple.
    flanked = [d.word[g - 1] for g in gaps] + [d.word[g] for g in gaps]
    if sorted(flanked) != sorted(t for t in d.word if t[0] in arrows):
        return None
    return tuple(sorted(arrows))


def validate_r3(d: ArrowDiagram, gaps) -> bool:
    """Both R3 validity conditions (condition 1 only applies with signs)."""
    if r3_triangle(d, gaps) is None:
        raise InvalidMove(f"gaps {tuple(gaps)} do not form a triangle configuration")
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

    Restricting the candidate gaps to those flanked by the required arrows
    before forming triples keeps the cube-meridian search small.
    """
    out = []
    for gaps in itertools.combinations(split_gaps(d, arrows), 3):
        if r3_triangle(d, gaps) is not None and validate_r3(d, gaps):
            out.append(r3(gaps))
    return out


def apply_move(d, move: Move):
    """Apply a move, returning a new diagram with stable arrow ids.

    Newly born arrows receive the smallest unused ids.  The result is not
    relabelled; diagram equality is canonical anyway.
    """
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

    elif move.kind == R1_DEATH:
        (aid,) = move.data
        pos = arrow_positions(d)
        if aid not in pos or not isolated(pos, aid):
            raise InvalidMove(f"arrow {aid} is not isolated")
        first = min(pos[aid].values())
        del word[first:first + 2]
        if signed:
            del signs[aid]

    elif move.kind == R2_BIRTH:
        gt, gh, tails_first, swap_heads, s1 = move.data
        if not (0 <= gt <= len(word) and 0 <= gh <= len(word)):
            raise InvalidMove("birth gap out of range")
        a, b = _fresh_ids(d, 2)
        tails = [(a, TAIL), (b, TAIL)]
        heads = [(b, HEAD), (a, HEAD)] if swap_heads else [(a, HEAD), (b, HEAD)]
        if gt < gh:
            word[gh:gh] = heads
            word[gt:gt] = tails
        elif gh < gt:
            word[gt:gt] = tails
            word[gh:gh] = heads
        else:
            block = tails + heads if tails_first else heads + tails
            word[gt:gt] = block
        if signed:
            signs[a] = s1
            signs[b] = -s1

    elif move.kind == R2_DEATH:
        a, b = move.data
        pos = arrow_positions(d)
        if a not in pos or b not in pos:
            raise InvalidMove("arrows not present")
        if not killable(pos, a, b):
            raise InvalidMove("pair is not in killing position")
        if signed and signs[a] * signs[b] != -1:
            raise InvalidMove("pair must have opposite signs")
        word = [t for t in word if t[0] not in (a, b)]
        if signed:
            del signs[a]
            del signs[b]

    elif move.kind == R3:
        gaps = move.data
        if not validate_r3(d, gaps):
            raise InvalidMove(f"R3 conditions fail at gaps {gaps}")
        return transpose(d, gaps)

    else:
        raise InvalidMove(f"unknown move kind {move.kind}")

    return GaussDiagram(word, signs) if signed else ArrowDiagram(word)


def inverse(d, move: Move) -> Move:
    """The move undoing ``move`` on ``apply_move(d, move)``."""
    if move.kind == R1_BIRTH:
        return r1_death(_fresh_ids(d, 1)[0])
    if move.kind == R1_DEATH:
        (aid,) = move.data
        pos = [i for i, t in enumerate(d.word) if t[0] == aid]
        order = "TH" if d.word[pos[0]][1] == TAIL else "HT"
        sign = d.signs[aid] if isinstance(d, GaussDiagram) else 1
        return r1_birth(pos[0], order, sign)
    if move.kind == R2_BIRTH:
        a, b = _fresh_ids(d, 2)
        return r2_death(a, b)
    if move.kind == R2_DEATH:
        a, b = move.data
        pos = arrow_positions(d)
        ta, tb = pos[a][TAIL], pos[b][TAIL]
        ha, hb = pos[a][HEAD], pos[b][HEAD]
        first, second = (a, b) if ta < tb else (b, a)
        positions = sorted([ta, tb, ha, hb])
        # Gaps in the word after deletion.
        gt = min(ta, tb) - sum(1 for p in positions if p < min(ta, tb))
        gh = min(ha, hb) - sum(1 for p in positions if p < min(ha, hb))
        swap_heads = (ha < hb) != (ta < tb)
        tails_first = min(ta, tb) < min(ha, hb)
        s1 = d.signs[first] if isinstance(d, GaussDiagram) else 1
        return r2_birth(gt, gh, tails_first, swap_heads, s1)
    if move.kind == R3:
        return move
    raise InvalidMove(f"unknown move kind {move.kind}")


def enumerate_moves(d, kind: str) -> list[Move]:
    """All moves of the given kind applicable to d, positions read as gaps."""
    n2 = len(d.word)
    signed = isinstance(d, GaussDiagram)
    out: list[Move] = []

    if kind == R1_BIRTH:
        for gap in range(n2 + 1):
            for order in ("TH", "HT"):
                for sign in ((1, -1) if signed else (1,)):
                    out.append(r1_birth(gap, order, sign))

    elif kind == R1_DEATH:
        pos = arrow_positions(d)
        out = [r1_death(aid) for aid in pos if isolated(pos, aid)]

    elif kind == R2_BIRTH:
        for gt in range(n2 + 1):
            for gh in range(n2 + 1):
                orders = (True, False) if gt == gh else (True,)
                for tails_first in orders:
                    for swap in (False, True):
                        for s1 in ((1, -1) if signed else (1,)):
                            out.append(r2_birth(gt, gh, tails_first, swap, s1))

    elif kind == R2_DEATH:
        pos = arrow_positions(d)
        out = [r2_death(a, b) for a, b in itertools.combinations(sorted(pos), 2)
               if killable(pos, a, b) and not (signed and d.signs[a] == d.signs[b])]

    elif kind == R3:
        out = r3_moves(d)

    else:
        raise InvalidMove(f"unknown move kind {kind}")
    return out


# -- Random samples for the randomized checks ---------------------------------

def random_move(rng, d):
    """A uniformly chosen move of any kind applicable to d, or None."""
    moves = [m for kind in MOVE_KINDS for m in enumerate_moves(d, kind)]
    return rng.choice(moves) if moves else None


def random_gauss_diagram(rng, max_degree: int) -> GaussDiagram:
    """A random diagram reached from the empty one by random R-moves."""
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


def random_arrow_diagram(rng, max_degree: int) -> ArrowDiagram:
    """A canonical arrow diagram of random degree and random token order."""
    deg = rng.randrange(0, max_degree + 1)
    tokens = []
    for i in range(1, deg + 1):
        tokens.extend([(i, TAIL), (i, HEAD)])
    rng.shuffle(tokens)
    return ArrowDiagram(tokens).canonical()
