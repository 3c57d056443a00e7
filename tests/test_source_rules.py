"""Rules on the library's source text.

`python -O` strips every assert statement, so an invariant written as one
would silently stop being checked; the library raises instead.  And only
the reference modules import boolmat, so matrices stay packed ints
everywhere else.  No command-line option is typed `int`, which would take
digits the instance literal refuses.
"""

import argparse
import ast
from pathlib import Path

import toeplab
from toeplab import cli

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


# The modules that hold BoolMatrix: the package's exports, and toeplitz,
# whose build_matrix gives the adjacency as one for perfbench and the tests.
# Every other module works on packed ints and renders matrices through
# packed.Geometry; the tests keep the generic tail tables (tests/generic.py).
BOOLMAT_IMPORTERS = {"__init__", "toeplitz"}


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


def test_declared_options_take_the_ascii_parser():
    # cli declares its options as data, where the check above cannot see a
    # type, and build_parser passes each declared type on to argparse.
    kinds = {kind for command in cli.COMMANDS.values() for _, kind, _, _ in command.options}
    assert kinds <= {cli._integer, None, cli._FLAG}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in (parser, *subparsers.choices.values()) for a in p._actions]
    assert len(subparsers.choices) == len(cli.COMMANDS)
    assert [a.option_strings for a in actions if a.type is int] == []
    assert sum(a.type is cli._integer for a in actions) == 10
