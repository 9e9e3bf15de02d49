"""The demos stay runnable against the package's public names.

The two quick tours run to completion in a subprocess.  The two
training demos take minutes, so only the names they import from
``imdp`` are checked to exist.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", ["01_gradients.py", "02_privacy_accounting.py"])
def test_quick_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["03_train_mixture.py", "04_privacy_tradeoff.py"])
def test_training_demo_imports_exist(name):
    tree = ast.parse((DEMOS / name).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("imdp")
               for alias in node.names]
    assert imports
    for module, attr in imports:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
