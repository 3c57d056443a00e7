"""Rules on the library's source text.

`python -O` strips every assert statement, so an invariant written as one
would silently stop being checked; the library raises instead.  And only
the reference modules import boolmat, so matrices stay packed ints
everywhere else.  No command-line option is typed `int`, which would take
digits the instance literal refuses.
"""

import ast
from pathlib import Path

import toeplab

SOURCES = sorted(Path(toeplab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The modules that hold BoolMatrix: the package's exports, the generic
# reference paths and the names perfbench traces.  Every other module works
# on packed ints and renders matrices through packed.Geometry.
BOOLMAT_IMPORTERS = {"__init__", "toeplitz", "spectra", "compgraph"}


def imports_boolmat(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "boolmat" for name in names):
            return True
    return False


def test_boolmat_imported_only_by_the_reference_modules():
    found = {
        path.stem
        for path in SOURCES
        if path.stem != "boolmat" and imports_boolmat(ast.parse(path.read_text(), str(path)))
    }
    assert found <= BOOLMAT_IMPORTERS


def test_integer_options_take_the_ascii_parser():
    # int() also takes other Unicode decimal digits, "_" and "+"; every
    # integer option goes through cli's ASCII parser instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(
            kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"
            for kw in node.keywords
        )
    ]
    assert found == []
