"""The package runs on the standard library alone (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import tqaplan

PACKAGE = Path(tqaplan.__file__).parent


def _imported_roots(tree: ast.AST):
    """The top-level module of every absolute import; None for a relative one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"tqaplan", None}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    outside = {
        (path.name, root)
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    }
    assert not outside


def test_the_import_check_sees_a_third_party_import():
    tree = ast.parse("import os.path\nfrom . import cpmodel\nfrom numpy import array\n")
    assert list(_imported_roots(tree)) == ["os", None, "numpy"]
