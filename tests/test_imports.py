"""Module imports go one way: no module of the package imports inside a
function, where a cycle between two modules could hide."""

import ast
from pathlib import Path

import ranktree


def test_no_module_imports_inside_a_function():
    nested = []
    for path in sorted(Path(ranktree.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []
