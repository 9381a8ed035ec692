"""Where code may live in the package: one table of placement rules (see README, "Tests").

A rule is a predicate over one syntax-tree node, and each owner module holds exactly the
findings listed for it. The walk reports the outermost node a predicate flags, so
``os.environ.get(...)`` is one finding, named by the whole call. The cases of the
``threads``, ``memory`` and ``env`` rules are collected in ``test_no_threads.py`` and
``test_no_env.py``, under the names they have long had; the rest are collected here.
"""

import ast
import re
from pathlib import Path

import pytest

import rirshape
from conftest import run_fresh

PACKAGE = Path(rirshape.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
NUMPY_NAMES = {"np", "numpy"}
BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "polyfit"}
THREAD_MODULES = {"threading", "_thread", "concurrent.futures.thread",
                  "multiprocessing.dummy", "multiprocessing.pool"}
THREAD_NAMES = {"ThreadPoolExecutor", "ThreadPool"}
FORK_NAMES = {"fork", "register_at_fork"}
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
SYSTEM_PATH = re.compile(r"(?<![\w.])/(?:proc|sys)\b")
SPLITTERS = {"split", "rsplit", "partition", "rpartition"}


def imports(node: ast.AST, modules=(), names=()) -> list[str]:
    """``import a.b`` for each ``a.b`` the import ``node`` binds (``from a import b`` binds
    ``a.b``) that lies in one of ``modules`` or whose last part is one of ``names``."""
    if isinstance(node, ast.Import):
        bound = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: a package module
        bound = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return []
    return [f"import {name}" for name in bound if name.rpartition(".")[2] in names
            or any(name == module or name.startswith(module + ".") for module in modules)]


def blas_call(node: ast.AST) -> list[str]:
    if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
        return ["@ matrix product"]
    if isinstance(node, ast.Attribute):
        name = ast.unparse(node)
        head, first, *rest = name.split(".")
        if head in NUMPY_NAMES and (first == "linalg" or first in BLAS_NAMES and not rest):
            return [name]
    return imports(node, {"numpy.linalg"}, BLAS_NAMES)


def thread_use(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Attribute) and node.attr in THREAD_NAMES:
        return [ast.unparse(node)]
    return imports(node, THREAD_MODULES, THREAD_NAMES)


def memory_policy(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Attribute) and node.attr in FORK_NAMES:
        return [ast.unparse(node)]
    return imports(node, {"ctypes"}, FORK_NAMES)


def names_os_env(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
            and ast.unparse(node.value) == "os")


def env_read(node: ast.AST) -> list[str]:
    if names_os_env(node) or (isinstance(node, ast.Call)
                              and any(map(names_os_env, ast.walk(node.func)))):
        return [ast.unparse(node)]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and SYSTEM_PATH.search(node.value)):
        return [f"system path in {node.value[:60]!r}"]
    return imports(node, names=ENV_NAMES)


def kv_split(node: ast.AST) -> list[str]:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SPLITTERS and node.args
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "="):
        return [ast.unparse(node)]
    return []


def error_class(node: ast.AST) -> list[str]:
    """A class whose bases name ``Exception`` or an ``...Error``: a new exception type."""
    bases = [ast.unparse(base) for base in node.bases] if isinstance(node, ast.ClassDef) else []
    if any(base.rpartition(".")[2].endswith(("Exception", "Error")) for base in bases):
        return [f"class {node.name}({', '.join(bases)})"]
    return []


# rule -> (predicate, {owner module: exactly what it may hold})
RULES = {
    "scipy": (lambda node: imports(node, {"scipy"}), {}),
    "blas": (blas_call, {}),
    "threads": (thread_use, {"dsp.py": ["import threading"]}),
    "memory": (memory_policy, {"dsp.py": ["import ctypes", "os.register_at_fork"]}),
    "env": (env_read, {"cli.py": ["os.environ.get(ENV_OUT_DIR, '.')"]}),
    "kv-split": (kv_split, {"kvtext.py": ["line.partition('=')"]}),
    # a class exists only where code catches it or README names it (see errors.py)
    "errors": (error_class, {"errors.py": [
        "class RirshapeError(Exception)", "class ParameterError(RirshapeError, ValueError)",
        "class ManifestError(RirshapeError, ValueError)",
        "class UndefinedDecayError(RirshapeError, ValueError)"]}),
}


def findings(rule: str, source: str) -> list[tuple[int, str]]:
    """(line, what) for each outermost node of ``source`` that ``rule`` flags."""
    flags = RULES[rule][0]
    found, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if what := flags(node):
            found.extend((node.lineno, each) for each in what)
        else:
            todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def assert_module_keeps(rule: str, module: str) -> None:
    found = findings(rule, (PACKAGE / module).read_text(encoding="utf-8"))
    broken = [(line, what) for line, what in found if what not in RULES[rule][1].get(module, [])]
    assert not broken, "\n".join(f"{module}:{line}: {what}" for line, what in broken)


def assert_owner_holds(rule: str, owner: str) -> None:
    found = findings(rule, (PACKAGE / owner).read_text(encoding="utf-8"))
    assert sorted(what for _, what in found) == sorted(RULES[rule][1][owner])


HERE = ("scipy", "blas", "kv-split", "errors")


@pytest.mark.parametrize("rule, module", [(rule, module) for rule in HERE for module in MODULES])
def test_module_keeps_the_rule(rule, module):
    assert_module_keeps(rule, module)


@pytest.mark.parametrize("rule, owner", [(rule, owner) for rule in HERE for owner in RULES[rule][1]])
def test_owner_holds_exactly_its_allowance(rule, owner):
    assert_owner_holds(rule, owner)


# rule -> (sources the rule flags, sources it allows)
DETECTOR_CASES = {
    "scipy": (["import scipy", "import scipy.fft", "from scipy import fft",
               "from scipy.sparse import csr_array", "def f():\n    import scipy.signal as ss"],
              ["import numpy", "from numpy import fft", "import scipyx", "from . import dsp"]),
    "blas": (["c = a @ b", "c @= b", "np.dot(a, b)", "numpy.matmul(a, b)", "np.einsum('ij', a)",
              "np.inner(a, b)", "np.tensordot(a, b)", "np.linalg.norm(a)",
              "np.linalg.lstsq(a, b)", "np.polyfit(t, y, 1)", "f = np.dot",
              "from numpy import dot", "from numpy.linalg import solve"],
             ["fb.sparse_weights.dot(x)", "x.dot(y)", "np.multiply(a, b)", "np.fft.rfft(x)",
              "a * b"]),
    "threads": (["import threading", "import _thread", "from threading import Thread",
                 "import concurrent.futures.thread",
                 "from concurrent.futures import ThreadPoolExecutor",
                 "from concurrent.futures.thread import ThreadPoolExecutor",
                 "from multiprocessing.pool import ThreadPool", "import multiprocessing.dummy",
                 "from multiprocessing import dummy", "def f():\n    import threading",
                 "concurrent.futures.ThreadPoolExecutor(2)"],
                ["from concurrent.futures import ProcessPoolExecutor", "import concurrent.futures",
                 "import multiprocessing", "from scipy import fft", "import os"]),
    "memory": (["import ctypes", "import ctypes.util", "from ctypes import CDLL", "os.fork()",
                "from os import fork", "from os import register_at_fork",
                "os.register_at_fork(before=print)", "def f():\n    import ctypes"],
               ["import os", "from os import getpid", "multiprocessing.get_context('fork')",
                "from concurrent.futures import ProcessPoolExecutor"]),
    "env": (["os.environ['X']", "os.environ.get('X')", "os.getenv('X')", "n = os.environb",
             "from os import environ", "from os import getenv as ge", "open('/proc/loadavg')",
             "p = '/proc'", "'/proc/self/status'", "'/sys/fs/cgroup'",
             "os.environ.get(ENV_OUT_DIR, '.')"],
            ["os.path.join(a, b)", "environ = {}", "env.get('X')", "'/system/x'", "'a/sys'",
             "'processes'", "'/process/x'", "'a/proc'", "os.sched_getaffinity(0)"]),
    "kv-split": (['line.split("=")', 'item.split("=", 1)', 'text.rsplit("=", 1)',
                  'key, _, value = line.partition("=")', 'line.rpartition("=")',
                  'dict(i.split("=", 1) for i in items)'],
                 ['line.split(",")', "line.split()", 'line.partition(":")', 'x.split(sep)',
                  '"=" in line', 'line.split("==")', 'line.strip("=")']),
    "errors": (["class E(Exception): pass", "class E(BaseException): pass",
                "class E(KeyError): pass", "class E(RirshapeError, ValueError): pass",
                "class E(errors.ParameterError): pass", "def f():\n    class E(OSError): pass"],
               ["class E: pass", "class E(str, Enum): pass", "class ErrorLog(dict): pass",
                "raise ValueError('x')", "try:\n    pass\nexcept ValueError:\n    pass"]),
}


@pytest.mark.parametrize("rule, source, flagged", [
    (rule, source, flagged) for rule in HERE
    for flagged, sources in zip((True, False), DETECTOR_CASES[rule]) for source in sources])
def test_detector(rule, source, flagged):
    assert bool(findings(rule, source)) == flagged


def test_import_loads_no_scipy_module():
    out = run_fresh("import sys, rirshape, rirshape.cli\n"
                    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.split() == []
