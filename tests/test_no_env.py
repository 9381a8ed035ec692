"""No environment variable or ``/proc`` or ``/sys`` file steers the package.

The threads of a long transform follow from what the process is (see
``rirshape.dsp``): no variable sets them, and nothing reads the machine's
load or a CPU quota. This walks the package source and names every
``os.environ`` or ``os.getenv`` read and every string naming a ``/proc``
or ``/sys`` path. The one read allowed is the CLI's fallback output
directory, RIRSHAPE_OUT_DIR.
"""

import ast
import re
from pathlib import Path

import pytest

from rirshape import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rirshape"
ALLOWED = {"cli.py": {"os.environ.get(ENV_OUT_DIR, '.')"}}
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
SYSTEM_PATH = re.compile(r"(?<![\w.])/(?:proc|sys)\b")


def env_and_system_reads(tree: ast.AST, allowed=frozenset()) -> list[tuple[int, str]]:
    """Environment reads and ``/proc`` or ``/sys`` paths in ``tree``, bar the calls in ``allowed``."""
    found, skip = [], set()
    for node in ast.walk(tree):  # breadth first: a call comes before its parts
        if isinstance(node, ast.Call) and ast.unparse(node) in allowed:
            skip.update(id(part) for part in ast.walk(node.func))
        elif (isinstance(node, ast.Attribute) and id(node) not in skip
              and node.attr in ENV_NAMES and ast.unparse(node.value) == "os"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, f"from os import {alias.name}")
                         for alias in node.names if alias.name in ENV_NAMES)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and SYSTEM_PATH.search(node.value)):
            found.append((node.lineno, f"system path in {node.value[:60]!r}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_or_proc_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = env_and_system_reads(tree, ALLOWED.get(path.name, frozenset()))
    assert not found, "\n".join(f"{path.name}:{line}: {what}" for line, what in found)


def test_cli_reads_only_the_out_dir_variable():
    assert cli.ENV_OUT_DIR == "RIRSHAPE_OUT_DIR"
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert [what for _, what in env_and_system_reads(tree)] == ["os.environ"]


@pytest.mark.parametrize("source", [
    "os.environ['X']", "os.environ.get('X')", "os.getenv('X')", "n = os.environb",
    "from os import environ", "from os import getenv as ge",
    "open('/proc/loadavg')", "p = '/proc'", "'/proc/self/status'", "'/sys/fs/cgroup'",
    "os.environ.get(ENV_OUT_DIR, '.')",
])
def test_detector_flags(source):
    assert env_and_system_reads(ast.parse(source))


@pytest.mark.parametrize("source", [
    "os.path.join(a, b)", "environ = {}", "env.get('X')", "'/system/x'", "'a/sys'",
    "'processes'", "'/process/x'", "'a/proc'", "os.sched_getaffinity(0)",
])
def test_detector_allows(source):
    assert not env_and_system_reads(ast.parse(source))
