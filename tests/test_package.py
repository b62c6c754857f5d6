"""Package surface: every name that a ulre module exports exists, and
importing the package loads no thread pool."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ulre

MODULES = sorted(info.name for info in pkgutil.iter_modules(ulre.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"ulre.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_import_starts_no_thread_pool():
    # importing ulre is part of every CLI call's time: the thread pool
    # module (some 10 ms) is imported by the calls that make a pool
    code = "import sys; " + "; ".join(f"import ulre.{m}" for m in MODULES)
    code += "; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    root = os.path.dirname(os.path.dirname(ulre.__file__))
    env = {**os.environ, "PYTHONPATH": root}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
