"""Static checks on the package source."""

import ast
import types
from pathlib import Path

import gentledef

SRC = Path(gentledef.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")
# Kept although unused: perfbench/tests/test_perfbench.py
# (test_wrappers_rebind_every_import_and_restore_the_originals) pins a
# traced `rref` binding in `udr`.
ALLOWED = {("udr", "rref")}
# Private names one package module imports from another, as (importer,
# source, name).  A new one fails here until it is listed on purpose.
PRIVATE_IMPORTS = {
    ("lifts", "homext", "_mixed_radix"),
    ("strings", "linalg", "_nonzeros"),
    ("udr", "strings", "_composes"),
    ("udr", "strings", "_walk"),
}
# Private package names the test oracles import, as (source, name): each
# is a coupling of an oracle to the engine it checks, so a new one fails
# here until it is listed on purpose.
ORACLE_IMPORTS = {("lifts", "_lift_walk"), ("lifts", "_span")}
# The modules that hold matrices: the rest work on words, index maps and
# sparse entries.
NUMPY_IMPORTERS = {"homext", "lifts", "linalg", "strings"}


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


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_matrix_modules_import_numpy():
    importers = {path.stem for path in SRC.glob("*.py")
                 if "numpy" in _imported_modules(ast.parse(path.read_text()))}
    assert importers == NUMPY_IMPORTERS


def _private_imports(stem: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    """(stem, source module, name) for each underscore-prefixed name the
    module imports from within the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gentledef")):
            source = (node.module or "").rpartition(".")[2]
            found.update((stem, source, a.name) for a in node.names
                         if a.name.startswith("_"))
    return found


def test_the_private_import_finder():
    tree = ast.parse("from .x import _y, z\nfrom . import _w\n"
                     "from gentledef.v import _u\nfrom numpy import _t\n"
                     "import _s\n")
    assert _private_imports("m", tree) == {
        ("m", "x", "_y"), ("m", "", "_w"), ("m", "v", "_u")}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _private_imports(path.stem, ast.parse(path.read_text()))
    assert found - PRIVATE_IMPORTS == set()
    # An entry that is no longer needed leaves the list.
    assert PRIVATE_IMPORTS <= found


def test_the_oracles_import_only_the_listed_private_names():
    found = {(source, name) for _, source, name in
             _private_imports("oracles", ast.parse(ORACLES.read_text()))}
    assert found - ORACLE_IMPORTS == set()
    # An entry that is no longer needed leaves the list.
    assert ORACLE_IMPORTS <= found


def test_the_package_exports_exactly_what_its_init_binds():
    bound = {name for name, value in vars(gentledef).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(gentledef.__all__)) == len(gentledef.__all__)
    assert set(gentledef.__all__) == bound


def _private_definitions(tree: ast.Module) -> set[str]:
    """Underscore-prefixed functions and classes a module defines, at any
    depth, dunder methods left out."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads as a Name, an Attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_the_private_definition_finder():
    tree = ast.parse("from .x import _y\nclass _C:\n    def __init__(s):\n"
                     "        s._m()\n    def _m(s): pass\n"
                     "def _f(): return _g\ndef _g(): pass\ndef _h(): pass\n")
    assert _private_definitions(tree) == {"_C", "_m", "_f", "_g", "_h"}
    assert _private_definitions(tree) - _read_names(tree) == {"_C", "_f",
                                                              "_h"}


def test_every_private_definition_is_read_in_the_package():
    # A private helper that only its own tests call is dead code.
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, name) for name in _private_definitions(tree)}
        read |= _read_names(tree)
    assert {(stem, name) for stem, name in defined if name not in read} \
        == set()
    assert ("linalg", "_reduce") in defined


def test_the_cochain_differential_has_one_owner():
    # Every equation of every linear system is one d^k of
    # homext.cochain_system; a second caller would be a copy of it.
    calls = [(path.stem, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_equation"]
    assert [stem for stem, _ in calls] == ["homext"], calls
