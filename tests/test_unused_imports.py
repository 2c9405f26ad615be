"""No stale imports: every name a module of the package imports is used
in that module.  __init__.py imports only to export, so it is left out."""

import ast
from pathlib import Path

import abelk


def unused_imports(tree: ast.AST) -> list[str]:
    """The names bound by the imports of tree that nothing else reads,
    __future__ imports aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(abelk.__file__).parent
    sources = sorted(p for p in package.glob("*.py")
                     if p.name != "__init__.py")
    assert sources
    offenders = {p.stem: names for p in sources
                 if (names := unused_imports(ast.parse(
                     p.read_text(), filename=str(p))))}
    assert offenders == {}


def test_guard_sees_every_import_form():
    assert unused_imports(ast.parse("import math")) == ["math"]
    assert unused_imports(ast.parse("import os.path")) == ["os"]
    assert unused_imports(ast.parse("from .towers import INF as X")) == ["X"]
    assert unused_imports(ast.parse(
        "def f():\n    from .wedge import k1, k0\n    return k1")) == ["k0"]
    assert unused_imports(ast.parse(
        "from __future__ import annotations")) == []
    assert unused_imports(ast.parse(
        "import math\nfrom .towers import INF\n"
        "x: INF = math.gcd(2, 4)")) == []
