"""Module imports go one way: no module of the package imports inside a
function, where a cycle between two modules could hide.  Every exported
name is bound, so a removal cannot leave a stale export behind, and every
submodule is named in the package docstring.  The package imports only
itself, the standard library, numpy and the optional gmpy2."""

import ast
import importlib
import pkgutil
import re
import sys
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


def test_the_package_imports_only_the_standard_library_numpy_and_gmpy2():
    allowed = set(sys.stdlib_module_names) | {"ranktree", "numpy", "gmpy2"}
    outside = []
    for path in sorted(Path(ranktree.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["ranktree" if node.level else node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


@pytest.mark.parametrize(
    "name", ["ranktree"] + [f"ranktree.{m.name}" for m in pkgutil.iter_modules(ranktree.__path__)]
)
def test_every_export_is_bound(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_submodule_is_named_in_the_package_docstring():
    listed = re.findall(r"^\* (\w+) +-- ", ranktree.__doc__, re.MULTILINE)
    assert sorted(listed) == sorted(m.name for m in pkgutil.iter_modules(ranktree.__path__))
