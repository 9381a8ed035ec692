"""Only ``rirshape.dsp`` starts threads.

``dsp`` splits its long transforms over helper threads that call only
numpy. The benchmark tracer keeps one span stack per process around the
names ``pipeline`` calls, so a thread started anywhere else could run a
traced call off the main thread. This walks
the package source and names every import of a thread module and every
thread pool reached by attribute outside ``dsp.py``. Process pools (``ProcessPoolExecutor``) are allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rirshape"
ALLOWED = {"dsp.py"}
THREAD_MODULES = {"threading", "_thread", "concurrent.futures.thread",
                  "multiprocessing.dummy", "multiprocessing.pool"}
THREAD_NAMES = {"ThreadPoolExecutor", "ThreadPool"}


def thread_imports(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in THREAD_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (node.module in THREAD_MODULES or alias.name in THREAD_NAMES
                        or f"{node.module}.{alias.name}" in THREAD_MODULES):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
        elif isinstance(node, ast.Attribute) and node.attr in THREAD_NAMES:
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name not in ALLOWED), ids=lambda p: p.name)
def test_no_thread_import(path):
    found = thread_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: {what}" for line, what in found)


def test_dsp_is_the_one_module_with_threads():
    assert thread_imports(ast.parse((PACKAGE / "dsp.py").read_text(encoding="utf-8")))


@pytest.mark.parametrize("source", [
    "import threading", "import _thread", "from threading import Thread",
    "import concurrent.futures.thread", "from concurrent.futures import ThreadPoolExecutor",
    "from concurrent.futures.thread import ThreadPoolExecutor",
    "from multiprocessing.pool import ThreadPool", "import multiprocessing.dummy",
    "from multiprocessing import dummy", "def f():\n    import threading",
    "concurrent.futures.ThreadPoolExecutor(2)",
])
def test_detector_flags(source):
    assert thread_imports(ast.parse(source))


@pytest.mark.parametrize("source", [
    "from concurrent.futures import ProcessPoolExecutor", "import concurrent.futures",
    "import multiprocessing", "from scipy import fft", "import os",
])
def test_detector_allows(source):
    assert not thread_imports(ast.parse(source))
