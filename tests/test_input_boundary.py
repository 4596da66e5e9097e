"""Files are read, and Fractions made, each in one place of the package.

Outside ``fixtures_io.py`` no module calls ``open``, ``read_text`` or
``read_bytes``: every file goes through ``fixtures_io.read``, which turns
any failure to read or parse it into one ``InputError``.  ``Fraction(...)``
is called only in ``fixtures_io.py``, for coefficients read from files,
and in ``rational_linalg.py``, where a division needs it; everywhere else
coefficients are counted in ints, and a Fraction enters only through
arithmetic with one.
"""

import ast

from conftest import REPO

PACKAGE = REPO / "src" / "knotcocycle"


def _calls(names, allowed):
    """'module:line name' of each call of one of ``names`` outside the ``allowed`` files."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    found.append(f"{path.stem}:{node.lineno} {name}")
    return found


def test_only_fixtures_io_reads_files():
    assert _calls({"open", "read_text", "read_bytes"}, {"fixtures_io.py"}) == []


def test_fractions_are_made_only_where_reading_or_division_needs_them():
    assert _calls({"Fraction"}, {"fixtures_io.py", "rational_linalg.py"}) == []
