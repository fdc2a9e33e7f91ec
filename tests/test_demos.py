"""Every script in demos/ runs to completion against the package in src/,
and every name the package's modules export resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ranktree

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_every_exported_name_resolves():
    modules = [ranktree] + [
        importlib.import_module(f"ranktree.{info.name}")
        for info in pkgutil.iter_modules(ranktree.__path__)
    ]
    assert {"ranktree.oracle", "ranktree.plring"} <= {m.__name__ for m in modules}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
