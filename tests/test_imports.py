"""Module imports go one way: no module of the package imports inside a
function, where a cycle between two modules could hide.  Every exported
name is bound, so a removal cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "name", ["ranktree"] + [f"ranktree.{m.name}" for m in pkgutil.iter_modules(ranktree.__path__)]
)
def test_every_export_is_bound(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
