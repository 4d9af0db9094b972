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


def test_no_function_name_is_defined_in_two_modules():
    # one helper per job: a second module-level definition of a name (say
    # a digit expansion or a primality test) is a copy waiting to drift
    source = pathlib.Path(kuniform.__file__).parent
    modules: dict = {}
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                modules.setdefault(node.name, []).append(path.name)
    assert {name: where for name, where in modules.items()
            if len(where) > 1} == {}
