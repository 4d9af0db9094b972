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


def test_only_the_cost_rule_runs_the_pair_census():
    # `oa._census` is the one place that weighs the census against the
    # scan: any other use of `_pair_census` would run it unweighed
    source = pathlib.Path(kuniform.__file__).parent
    users = set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name != "_pair_census":
                continue
            inside = [f.name for f in functions
                      if f.lineno <= node.lineno <= f.end_lineno]
            users.add((path.name, inside[-1] if inside else None))
    assert users == {("oa.py", "_census")}


def _tree(name):
    source = pathlib.Path(kuniform.__file__).parent
    return ast.parse((source / name).read_text(encoding="utf-8"))


def _names(node):
    """The names a node refers to: identifiers, attributes and imports."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def test_strength_and_separation_are_decided_in_oa():
    # the census-or-scan choice lives behind `oa._strength` and
    # `oa._separation`: the modules that ask the two questions do not reach
    # past them to the census or the close pairs
    kernels = {"_census", "_Census", "_close_pairs", "_has_strength",
               "_pair_census"}
    found = {(name, _names(node))
             for name in ("graphs.py", "phases.py", "cli.py")
             for node in ast.walk(_tree(name)) if _names(node) in kernels}
    assert found == set()


def test_only_the_deciders_take_the_census():
    callers = set()
    for path in sorted(pathlib.Path(kuniform.__file__).parent.glob("*.py")):
        name, tree = path.name, _tree(path.name)
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func) == "_census":
                inside = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                callers.add((name, inside[-1] if inside else None))
    assert callers == {("oa.py", "_strength"), ("oa.py", "_separation"),
                       ("states.py", "uniformity"),
                       ("states.py", "_certifies")}


def test_sign_fixing_decides_from_the_cell_table():
    # fix_state reads its answer off the cell table's pair counts: no
    # exception carries a decision from the cell walk to it, and no tee
    # replays the walk
    tree = _tree("phases.py")
    fix = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "fix_state")
    caught = {_names(name) for handler in ast.walk(fix)
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for name in ast.walk(handler.type)}
    assert caught.isdisjoint({"OddContributions", "UnsupportedMultiplicity"})
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "tee" not in imported
