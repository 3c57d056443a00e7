"""Rules on the library's source text.

`python -O` strips every assert statement, so an invariant written as one
would silently stop being checked; the library raises instead.
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
