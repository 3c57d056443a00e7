"""Rules on the library's source text.

`python -O` strips every assert statement, so an invariant written as one
would silently stop being checked; the library raises instead.  And only
the reference modules import boolmat, so matrices stay packed ints
everywhere else.  No command-line option is typed `int`, which would take
digits the instance literal refuses.  The step budget is one constant of
spectra, which no function takes as a parameter.  And every module-level
function and class is reached, by the library itself or by perfbench.
"""

import argparse
import ast
import importlib
from pathlib import Path

import toeplab
from toeplab import cli

SOURCES = sorted(Path(toeplab.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def test_reexports_leave_the_submodules_in_place():
    # The package star-imports each module's __all__: a name there equal to
    # a module's would replace toeplab.<module> by that object.
    stems = [path.stem for path in SOURCES if path.stem != "__init__"]
    modules = {stem: importlib.import_module(f"toeplab.{stem}") for stem in stems}
    init = ast.parse(Path(toeplab.__file__).read_text())
    exported = {node.module for node in init.body if isinstance(node, ast.ImportFrom)}
    assert exported
    for name in exported:
        assert modules.keys().isdisjoint(modules[name].__all__), name
    for name, module in modules.items():
        assert getattr(toeplab, name) is module, name


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
    options = [option for command in cli.COMMANDS.values() for option in command.options]
    kinds = {kind for _, kind, _, _, _ in options}
    assert kinds <= {cli._integer, None, cli._FLAG}
    # Only an integer option has a least value for main to check.
    assert {kind for _, kind, _, least, _ in options if least is not None} == {cli._integer}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in (parser, *subparsers.choices.values()) for a in p._actions]
    assert len(subparsers.choices) == len(cli.COMMANDS)
    assert [a.option_strings for a in actions if a.type is int] == []
    assert sum(a.type is cli._integer for a in actions) == 10


def test_no_function_takes_a_step_budget():
    # Every scan reads spectra.STEP_BUDGET; no caller passes its own.
    found = [
        f"{path.name}:{node.lineno} {arg.arg}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg in ("max_steps", "step_budget")
    ]
    assert found == []


def test_only_spectra_binds_the_step_budget():
    # A copy bound elsewhere, by assignment or by `from .spectra import`,
    # would miss a budget set on spectra.
    binders = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            if "STEP_BUDGET" in names:
                binders.add(path.stem)
    assert binders == {"spectra"}


def names_used(node):
    """Every name node refers to: a name, an attribute, an imported name."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def reached_by_src():
    """Each module-level function and class of src, with whether src code
    other than its own definition refers to it.  The package's re-exports
    are not uses."""
    modules = [path for path in SOURCES if path.stem != "__init__"]
    statements = [stmt for path in modules for stmt in ast.parse(path.read_text(), str(path)).body]
    used = [names_used(stmt) for stmt in statements]
    defs = (ast.FunctionDef, ast.ClassDef)
    return {
        stmt.name: any(stmt.name in names for other, names in zip(statements, used) if other is not stmt)
        for stmt in statements
        if isinstance(stmt, defs)
    }


def named_by_perfbench():
    """What perfbench names: its imported names and attributes, and the
    first part of each spans.TARGETS attribute path."""
    found = set()
    for path in PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
                found.update(target.elts[1].value.split(".")[0] for target in node.value.elts)
    return found


def perfbench_only_names():
    """The module-level names that only perfbench reaches."""
    named = named_by_perfbench()
    return sorted(name for name, reached in reached_by_src().items() if not reached and name in named)


def test_every_definition_is_reached():
    # A definition nothing in src reaches stays only while perfbench names
    # it (perfbench_only_names); anything else is dead code.
    assert PERFBENCH
    named = named_by_perfbench()
    assert sorted(name for name, reached in reached_by_src().items() if not (reached or name in named)) == []
