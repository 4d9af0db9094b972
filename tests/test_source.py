"""Checks on the library's source text."""

import ast
import pathlib

import kuniform


def test_library_has_no_bare_asserts():
    # `python -O` strips assert statements, so a postcondition written as
    # one would silently stop being checked
    source = pathlib.Path(kuniform.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(source.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
