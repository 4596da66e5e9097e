"""The program's one input boundary, and the JSON form of its objects.

Every file the program reads, fixtures and files named on the command
line alike, goes through ``read``: one that cannot be read, is longer
than ``MAX_INPUT_BYTES``, is not UTF-8 or does not parse becomes an
``InputError`` naming its path.

The fixture directory is resolved with explicit precedence: a path given
programmatically (or via the CLI flag), then the KNOT_COCYCLE_FIXTURES
environment variable, then ./fixtures relative to the working directory.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, HEAD, TAIL
from .germs import Germ
from .moves import _MOVE_DATA, Move, _fits

ENV_VAR = "KNOT_COCYCLE_FIXTURES"
_ID_KEY = re.compile(r"0|-?[1-9][0-9]*")  # the decimal form of an int, and only that
# The largest file the package writes, fixtures/strata/fig9_tetra.json,
# is about 101 KB; the cap on any file read is some 160 times that.
MAX_INPUT_BYTES = 16 * 2**20
# A value from a file is echoed in an error message cut to this many
# characters; reprlib looks only at the first few items of each container.
ECHO_CHARS = 80
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = ECHO_CHARS


class InputError(ValueError):
    """A file or value from outside the program that cannot be read or parsed."""


def resolve_fixtures(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path("fixtures")


def _echo(x) -> str:
    """The repr of a value read from a file, at most ``ECHO_CHARS`` characters long."""
    text = _ECHO.repr(x)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS - 3] + "..."


def _int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {_echo(x)}")
    return x


def _list(xs, n: int | None, what: str) -> list:
    if not isinstance(xs, list) or (n is not None and len(xs) != n):
        size = "a list" if n is None else f"a list of {n} items"
        raise ValueError(f"{what} must be {size}, got {_echo(xs)}")
    return xs


def _ints(xs, n: int, what: str) -> tuple[int, ...]:
    return tuple(_int(x, what) for x in _list(xs, n, what))


def _dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {_echo(obj)}")
    return obj


def _field(x, spec, what: str):
    """x checked against spec, int or a tuple of the allowed values, as ``apply_move`` checks it."""
    if not _fits(x, spec):
        want = "an integer" if spec is int else f"one of {spec}"
        raise ValueError(f"{what} must be {want}, got {_echo(x)}")
    return x


def diagram_to_json(d: ArrowDiagram) -> dict:
    out = {
        "degree": d.degree,
        "word": [{"id": a, "kind": k} for a, k in d.word],
    }
    if isinstance(d, GaussDiagram):
        out["signs"] = {str(a): s for a, s in d.signs.items()}
    return out


def diagram_from_json(obj: dict):
    """A diagram; a ``degree``, when present, must be half the word's length."""
    obj = _dict(obj, "diagram")
    word = []
    for t in _list(obj["word"], None, "word"):
        t = _dict(t, "token")
        word.append((_int(t["id"], "arrow id"), _field(t["kind"], (TAIL, HEAD), "token kind")))
    if "degree" in obj and 2 * _int(obj["degree"], "degree") != len(word):
        raise ValueError(f"degree {_echo(obj['degree'])} does not fit a word of "
                         f"{len(word)} tokens")
    if "signs" in obj:
        signs = _dict(obj["signs"], "signs")
        if not all(_ID_KEY.fullmatch(a) for a in signs):
            raise ValueError(f"sign keys must be arrow ids in decimal, got {_echo(list(signs))}")
        return GaussDiagram(word, {int(a): _field(s, (1, -1), "sign") for a, s in signs.items()})
    return ArrowDiagram(word)


def germ_to_json(g: Germ) -> dict:
    """A germ's JSON form: its ``dist`` is an int for R1 and P, a sorted list for R2 and R3."""
    dist = g.dist[0] if g.kind in ("R1", "P") else list(g.dist)
    return {"kind": g.kind, "g0": diagram_to_json(g.g0),
            "g1": diagram_to_json(g.g1), "dist": dist}


def germ_from_json(obj: dict) -> Germ:
    """A germ whose sides differ by the move its kind and ``dist`` name.

    ``dist`` is an int for R1 and P, and a list of two ints for R2 and of
    three for R3, as ``germ_to_json`` writes it.
    """
    obj = _dict(obj, "germ")
    kind = obj["kind"]
    dist = obj["dist"]
    if kind in ("R1", "P"):
        dist = (_int(dist, f"{kind} dist"),)
    elif kind == "R2":
        dist = _ints(dist, 2, "R2 dist")
    elif kind == "R3":
        dist = _ints(dist, 3, "R3 dist")
    else:
        raise ValueError(f"unknown germ kind {_echo(kind)}")
    germ = Germ(kind, diagram_from_json(obj["g0"]), diagram_from_json(obj["g1"]), dist)
    germ.validate()
    return germ


def move_to_json(m: Move) -> dict:
    return {"kind": m.kind, "data": list(m.data)}


def move_from_json(obj: dict) -> Move:
    """A move, its data checked against the layout of its kind."""
    obj = _dict(obj, "move")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _MOVE_DATA:
        raise ValueError(f"unknown move kind {_echo(kind)}")
    spec = _MOVE_DATA[kind]
    data = _list(obj["data"], len(spec), f"{kind} data")
    return Move(kind, tuple(_field(x, t, f"{kind} data") for x, t in zip(data, spec)))


def loop_from_json(obj: dict) -> tuple[GaussDiagram, list[Move]]:
    """A loop file's initial diagram, which must have signs, and its moves."""
    obj = _dict(obj, "loop")
    initial = diagram_from_json(obj["initial"])
    moves = [move_from_json(m) for m in _list(obj["moves"], None, "moves")]
    if not isinstance(initial, GaussDiagram):  # R3 germs are paired through T
        raise ValueError("the initial diagram has no signs")
    return initial, moves


def formula_to_json(fs: FormalSum) -> list:
    items = sorted(((g.key(), g, c) for g, c in fs.items()), key=lambda t: t[0])
    return [{"germ": germ_to_json(g), "coeff": [c.numerator, c.denominator]}
            for _, g, c in items]


def formula_from_json(obj: list) -> FormalSum:
    """A formula of arrow germs; each coefficient is [numerator, nonzero denominator].

    A germ with signs is refused.  A coefficient whose denominator
    divides its numerator is an int.
    """
    out = FormalSum()
    for item in _list(obj, None, "formula"):
        item = _dict(item, "formula term")
        g = germ_from_json(item["germ"])
        if g.signed:
            raise ValueError("a formula term must be an arrow germ, without signs")
        n, d = _ints(item["coeff"], 2, "coeff")
        if d == 0:
            raise ValueError("coeff has a zero denominator")
        out.add(g, n // d if n % d == 0 else Fraction(n, d))
    return out


@contextmanager
def _reading(path, what: str):
    """A failure to read or parse ``path`` in the block, raised as an ``InputError``.

    Text nested deeper than the recursion limit fails to parse too.
    """
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:  # a UnicodeDecodeError has no strerror
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        detail = f"no entry {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"malformed {what} {path}: {detail}") from exc


def read(path, parse, what: str):
    """``parse`` of the text of a file; any failure is an ``InputError`` naming it.

    At most ``MAX_INPUT_BYTES`` + 1 bytes are read, before any decoding.
    """
    with _reading(path, what), open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise InputError(f"cannot read {path}: longer than {MAX_INPUT_BYTES} bytes")
    with _reading(path, what):
        return parse(data.decode("utf-8"))


def load_json(path):
    return read(path, json.loads, "JSON file")


def save_json(path: Path, obj) -> None:
    """Write obj as indented JSON, keys sorted, in one write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def load_fixture(fixtures, name: str, parse):
    """``parse`` of a fixture file; a malformed one raises ``InputError``."""
    path = resolve_fixtures(fixtures) / name
    obj = load_json(path)
    with _reading(path, "fixture"):
        return parse(obj)


def load_morse(fixtures, name: str) -> list:
    """The Morse presentation of a knot in the rotation-loop template."""
    return load_fixture(fixtures, "loops/rot_template.json",
                        lambda obj: [tuple(ev) for ev in obj["knots"][name]])
