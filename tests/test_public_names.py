"""Every public name of the package has a use outside its definition.

The public names are the top-level definitions and the public methods
of top-level classes.  A name counts as used when code in
``src/knotcocycle`` (the re-exports of ``__init__`` aside), ``bench/``
or ``perfbench/`` refers to it outside the lines that define it: as a
name, an attribute, an import, or a string naming it, as the traced
targets of ``perfbench/traced.py`` do.  A method counts as used when
its name is, whatever the class.
Second routes that only the tests call belong in ``tests/oracles.py``;
the names below are the public API kept without a caller in the package.
"""

import ast
import re

from conftest import REPO

PACKAGE = REPO / "src" / "knotcocycle"

API = {
    "diagrams.EMPTY_ARROW",    # exported constant, used by the tests
    "diagrams.EMPTY_GAUSS",    # exported constant, used by the tests
    "germs.boundary",          # exported chain boundary of a germ, the tests' Stokes side
    "germs.triangle_relator",  # the relators that the tests check
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(name, first line, last line) of each public top-level definition.

    A public method of a top-level class is named ``Class.method``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree, skip=(0, -1)):
    """The identifiers a module refers to, outside the lines in ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def test_every_public_name_is_used_or_listed_as_api():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    scripts = sorted((REPO / "bench").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in modules + scripts}
    references = {p: _references(t) for p, t in trees.items()}
    unused = []
    for path in modules:
        elsewhere = set().union(*(refs for p, refs in references.items() if p != path))
        for name, first, last in _definitions(trees[path]):
            qualified = f"{path.stem}.{name}"
            name = name.rsplit(".", 1)[-1]
            if qualified in API or name in elsewhere:
                continue
            if name not in _references(trees[path], (first, last)):
                unused.append(qualified)
    assert unused == [], f"public names without a use: {unused}"


def test_api_list_names_exist():
    for qualified in API:
        module, name = qualified.split(".", 1)
        defined = {n for n, _, _ in _definitions(ast.parse((PACKAGE / f"{module}.py").read_text()))}
        assert name in defined, qualified
