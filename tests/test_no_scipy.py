"""The package runs on numpy alone.

scipy is a test dependency only: the tests compare ``dsp.convolve`` with
``scipy.signal.fftconvolve``, ``dsp._fast_len`` with
``scipy.fft.next_fast_len`` and the band products with a sparse product.
This walks the package source and names every scipy import, and imports
the package and its command line in a fresh interpreter to list the
scipy modules they load.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rirshape

PACKAGE = Path(rirshape.__file__).resolve().parent


def scipy_imports(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, f"import {alias.name}") for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, f"from {node.module} import ..."))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    found = scipy_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: {what}" for line, what in found)


@pytest.mark.parametrize("source", [
    "import scipy", "import scipy.fft", "from scipy import fft",
    "from scipy.sparse import csr_array", "def f():\n    import scipy.signal as ss",
])
def test_detector_flags(source):
    assert scipy_imports(ast.parse(source))


@pytest.mark.parametrize("source", ["import numpy", "from numpy import fft", "import scipyx",
                                    "from . import dsp"])
def test_detector_allows(source):
    assert not scipy_imports(ast.parse(source))


def test_import_loads_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    script = ("import sys, rirshape, rirshape.cli\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
