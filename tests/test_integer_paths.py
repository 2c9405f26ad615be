"""Fractions stay at the parsers: only the modules that read and hold
witness matrices import the standard library's fractions module."""

import ast
from pathlib import Path

import abelk

ALLOWED = {"groupfile", "matrices"}


def imports_fractions(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "fractions":
                return True
    return False


def test_only_the_parsers_import_fractions():
    package = Path(abelk.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > len(ALLOWED)
    offenders = [p.stem for p in sources
                 if p.stem not in ALLOWED
                 and imports_fractions(ast.parse(p.read_text(),
                                                 filename=str(p)))]
    assert offenders == []


def test_guard_sees_both_import_forms():
    assert imports_fractions(ast.parse("from fractions import Fraction"))
    assert imports_fractions(ast.parse("def f():\n    import fractions"))
    assert not imports_fractions(ast.parse("from .fractions import x"))
    assert not imports_fractions(ast.parse("import math"))
