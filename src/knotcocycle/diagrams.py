"""Based Gauss and arrow diagrams, and the subdiagram-counting pairing.

A based diagram is a word of endpoint tokens along an oriented line whose
start plays the role of the point at infinity.  Each arrow occupies two
tokens, a tail and a head; our global convention is that arrows point from
the over-strand to the under-strand and that a Gauss diagram decorates
every arrow with its writhe sign.  Diagrams are compared up to positive
homeomorphisms of the line, i.e. only the token order matters, and arrow
ids are normalised by first occurrence.

The pairing ``pair(A, G)`` counts order- and direction-preserving
embeddings of an arrow diagram A into a Gauss diagram G, each weighted by
the product of the signs of the arrows hit.  It equals
``<completions(A), subdiagrams(G)>`` for the orthonormal product on the
basis of Gauss diagrams; the tests keep that second route as an oracle
(``pair_via_completions`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

TAIL = "T"
HEAD = "H"

Token = tuple[int, str]  # (arrow id, TAIL or HEAD)


def _first_occurrence(word) -> dict[int, int] | None:
    """The renaming of a word's arrow ids to 1..n by first occurrence; None for the identity."""
    new = 1  # the ids met so far are 1 .. new - 1
    for a, _ in word:
        if not 0 < a < new:
            if a != new:
                return {aid: i + 1 for i, aid in enumerate(dict.fromkeys(a for a, _ in word))}
            new += 1
    return None


class ArrowDiagram:
    """A based arrow diagram: directed chords on a line, no signs."""

    __slots__ = ("word", "_key")

    def __init__(self, word: Iterable[Token]):
        # Distinct tokens of two kinds, two per id: one tail and one head each.
        self.word: tuple[Token, ...] = tuple(word)
        ids = {a for a, _ in self.word}
        if not (len(set(self.word)) == len(self.word) == 2 * len(ids)
                and {k for _, k in self.word} <= {TAIL, HEAD} and set(map(type, ids)) <= {int}):
            raise ValueError(f"malformed word {self.word!r}: every arrow needs one tail "
                             "and one head, and an int id")
        self._key = None

    @property
    def degree(self) -> int:
        return len(self.word) // 2

    def arrow_ids(self) -> list[int]:
        """The arrow ids in order of first occurrence."""
        return list(dict.fromkeys(a for a, _ in self.word))

    def relabel(self, m: Mapping[int, int]) -> "ArrowDiagram":
        """The diagram with every arrow id a renamed to m[a]."""
        return ArrowDiagram((m[a], k) for a, k in self.word)

    def canonical(self) -> "ArrowDiagram":
        """The diagram relabelled by first occurrence: itself if it already is."""
        m = _first_occurrence(self.word)
        return self if m is None else self.relabel(m)

    def _canonical_word(self) -> tuple[Token, ...]:
        """The word relabelled by first occurrence: the word itself if it already is."""
        m = _first_occurrence(self.word)
        return self.word if m is None else tuple((m[a], k) for a, k in self.word)

    def canonical_key(self):
        if self._key is None:
            self._key = self._canonical_word()
        return self._key

    def delete(self, ids: Iterable[int]) -> "ArrowDiagram":
        drop = set(ids)
        return ArrowDiagram(t for t in self.word if t[0] not in drop)

    def reverse_arrows(self) -> "ArrowDiagram":
        flip = {TAIL: HEAD, HEAD: TAIL}
        return ArrowDiagram((a, flip[k]) for a, k in self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, ArrowDiagram) and not isinstance(other, GaussDiagram) \
            and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash((ArrowDiagram, self.canonical_key()))

    def __repr__(self) -> str:
        body = " ".join(f"{k}{a}" for a, k in self.word)
        return f"ArrowDiagram({body!r})"


class GaussDiagram(ArrowDiagram):
    """A based Gauss diagram: an arrow diagram with a sign on every arrow."""

    __slots__ = ("signs",)

    def __init__(self, word: Iterable[Token], signs: Mapping[int, int]):
        super().__init__(word)
        self.signs: dict[int, int] = dict(signs)
        if self.signs.keys() != {a for a, _ in self.word}:
            raise ValueError("signs must be given for exactly the arrows present")
        if not (set(self.signs.values()) <= {1, -1}
                and {*map(type, self.signs), *map(type, self.signs.values())} <= {int}):
            raise ValueError(f"signs must map int ids to the ints 1 or -1, got {self.signs!r}")

    def relabel(self, m: Mapping[int, int]) -> "GaussDiagram":
        return GaussDiagram(((m[a], k) for a, k in self.word),
                            {m[a]: s for a, s in self.signs.items()})

    def canonical_key(self):
        if self._key is None:
            signs = tuple(self.signs[a] for a in self.arrow_ids())
            self._key = (self._canonical_word(), signs)
        return self._key

    def delete(self, ids: Iterable[int]) -> "GaussDiagram":
        drop = set(ids)
        return GaussDiagram((t for t in self.word if t[0] not in drop),
                            {a: s for a, s in self.signs.items() if a not in drop})

    def reverse_arrows(self) -> "GaussDiagram":
        flip = {TAIL: HEAD, HEAD: TAIL}
        return GaussDiagram(((a, flip[k]) for a, k in self.word), self.signs)

    def skeleton(self) -> ArrowDiagram:
        return ArrowDiagram(self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussDiagram) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash((GaussDiagram, self.canonical_key()))

    def __repr__(self) -> str:
        body = " ".join(f"{k}{a}" for a, k in self.word)
        sgs = "".join("+" if self.signs[a] > 0 else "-" for a in self.arrow_ids())
        return f"GaussDiagram({body!r}, {sgs!r})"


EMPTY_GAUSS = GaussDiagram((), {})
EMPTY_ARROW = ArrowDiagram(())


def _exact(coeff) -> int | Fraction:
    """The coefficient itself; floats are refused, as they are not exact."""
    if isinstance(coeff, float):
        raise TypeError(f"float coefficient {coeff!r}: use an int or a Fraction")
    return coeff


class FormalSum:
    """Finite rational linear combination of hashable basis keys.

    Zero coefficients are never stored, so equality of sums is equality of
    the underlying maps.  Keys are expected to be canonical (diagrams and
    germs hash through their canonical form).
    """

    __slots__ = ("_c",)

    def __init__(self, items: Iterable[tuple[object, Fraction]] = ()):
        self._c: dict = {}
        for k, v in items:
            self.add(k, v)

    def add(self, key, coeff) -> None:
        c = self._c.get(key, 0) + _exact(coeff)
        if c == 0:
            self._c.pop(key, None)
        else:
            self._c[key] = c

    def __getitem__(self, key) -> int | Fraction:
        return self._c.get(key, 0)

    def __iter__(self) -> Iterator:
        return iter(self._c.items())

    def items(self):
        return self._c.items()

    def keys(self):
        return self._c.keys()

    def __len__(self) -> int:
        return len(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.items())
        for k, v in other.items():
            out.add(k, v)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.items())
        for k, v in other.items():
            out.add(k, -v)
        return out

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def scale(self, c) -> "FormalSum":
        c = _exact(c)
        if c == 0:
            return FormalSum()
        return FormalSum((k, v * c) for k, v in self.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._c == other._c

    def __hash__(self):
        raise TypeError("FormalSum is unhashable")

    def dot(self, other: "FormalSum") -> int | Fraction:
        """Orthonormal product with respect to the shared basis."""
        a, b = (self, other) if len(self) <= len(other) else (other, self)
        total = 0
        for k, v in a.items():
            w = b[k]
            if w:
                total += v * w
        return total

    def __repr__(self) -> str:
        if not self._c:
            return "FormalSum(0)"
        parts = [f"{v}*{k!r}" for k, v in self.items()]
        return "FormalSum(" + " + ".join(parts) + ")"


def pair(a: ArrowDiagram, g: GaussDiagram) -> int:
    """Polyak-Viro pairing <A, G> = <completions(A), subdiagrams(G)>.

    Computed by direct embedding count: every embedding of a's arrows
    into distinct arrows of g that keeps a's token order and tail/head
    kinds contributes the product of the signs of the arrows hit.  The
    walk reads a's word once, left to right: at an arrow's first end it
    tries each unused arrow of g whose end of that kind lies after the
    last position taken, and at its second end the position is forced.
    Each node of that tree of order-consistent partial embeddings costs
    O(n_g), against n_a steps for each of the P(n_g, n_a) assignments.
    ``pair_via_completions`` in ``tests/oracles.py`` is the independent
    evaluation through the two formal sums.
    """
    word, gword = a.word, g.word
    n, m = len(word), len(gword)
    if n > m:
        return 0
    pos = {t: j for j, t in enumerate(gword)}
    signs = g.signs
    image: dict[int, int] = {}  # arrow of a -> arrow of g, for the arrows begun
    used = set()

    def walk(i: int, last: int) -> int:
        """The signed count of the embeddings of word[i:] after position last."""
        while i < n:
            aid, kind = word[i]
            x = image.get(aid)
            if x is None:
                break
            j = pos[x, kind]
            if j <= last:
                return 0
            i, last = i + 1, j
        else:
            return 1
        total = 0
        # word[i + 1:] needs n - i - 1 positions after the one taken here.
        for j in range(last + 1, m - n + i + 1):
            x, k = gword[j]
            if k == kind and x not in used:
                image[aid] = x
                used.add(x)
                total += signs[x] * walk(i + 1, j)
                used.discard(x)
        image.pop(aid, None)
        return total

    return walk(0, -1)


def parse_diagram(text: str) -> GaussDiagram | ArrowDiagram:
    """Parse the text format ``<n>; <tokens>; <sign string>``.

    The sign block is optional; without it an arrow diagram is returned.
    Tokens look like ``T1`` or ``H3``.
    """
    parts = [p.strip() for p in text.split(";")]
    if len(parts) not in (2, 3):
        raise ValueError("expected '<n>; <word>; [signs]'")
    n = int(parts[0])
    word = []
    for tok in parts[1].split():
        kind, aid = tok[0].upper(), int(tok[1:])
        word.append((aid, kind))
    if len(word) != 2 * n:
        raise ValueError(f"degree {n} needs {2 * n} tokens, got {len(word)}")
    if len(parts) == 2:
        return ArrowDiagram(word)
    ids = ArrowDiagram(word).arrow_ids()
    if len(parts[2]) != n:
        raise ValueError("sign string length must equal the degree")
    if set(parts[2]) - {"+", "-"}:
        raise ValueError(f"sign string {parts[2]!r} may hold only '+' and '-'")
    signs = {aid: (1 if ch == "+" else -1) for aid, ch in zip(ids, parts[2])}
    return GaussDiagram(word, signs)


def format_diagram(d: ArrowDiagram) -> str:
    body = " ".join(f"{k}{a}" for a, k in d.word)
    if isinstance(d, GaussDiagram):
        sgs = "".join("+" if d.signs[a] > 0 else "-" for a in d.arrow_ids())
        return f"{d.degree}; {body}; {sgs}"
    return f"{d.degree}; {body}"
