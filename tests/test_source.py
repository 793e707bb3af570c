"""Static checks on the package source."""

import ast
from pathlib import Path

import gentledef

SRC = Path(gentledef.__file__).parent
# Kept although unused: perfbench/tests/test_perfbench.py
# (test_wrappers_rebind_every_import_and_restore_the_originals) pins a
# traced `rref` binding in `udr`.
ALLOWED = {("udr", "rref")}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression of the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_unused_import_finder():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom . import claims\n"
                     "from .x import y, z as w\n"
                     "def f(a: y) -> None:\n    return claims.q\n")
    assert _unused_imports(tree) == ["np", "os", "w"]


def test_no_module_imports_a_name_it_never_uses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text())
            found.update((path.stem, name) for name in _unused_imports(tree))
    assert found - ALLOWED == set()
    # An entry that is no longer needed leaves the list.
    assert ALLOWED <= found
