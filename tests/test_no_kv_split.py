"""Only ``rirshape.kvtext`` splits text on ``=``.

Every key=value text the package reads (manifests, ``--config`` files,
sidecars, the gain CSV header) goes through ``kvtext.parse_sections`` and
``kvtext.convert``, so there is one grammar and one rule for unknown,
repeated and malformed keys. This walks the package source and names every
``split``, ``rsplit``, ``partition`` or ``rpartition`` call on ``"="`` outside
``kvtext.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rirshape"
SPLITTERS = {"split", "rsplit", "partition", "rpartition"}


def splits_on_equals(tree: ast.AST) -> list[tuple[int, str]]:
    """Calls in ``tree`` that split a string on ``=``."""
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SPLITTERS and node.args
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "="]


OUTSIDE_KVTEXT = sorted(p for p in PACKAGE.glob("*.py") if p.name != "kvtext.py")


@pytest.mark.parametrize("path", OUTSIDE_KVTEXT, ids=lambda p: p.name)
def test_no_split_on_equals_outside_kvtext(path):
    found = splits_on_equals(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: {what}" for line, what in found)


def test_kvtext_is_the_one_module_that_splits_on_equals():
    tree = ast.parse((PACKAGE / "kvtext.py").read_text(encoding="utf-8"))
    assert splits_on_equals(tree)


@pytest.mark.parametrize("source", [
    'line.split("=")', 'item.split("=", 1)', 'text.rsplit("=", 1)',
    'key, _, value = line.partition("=")', 'line.rpartition("=")',
    'dict(i.split("=", 1) for i in items)',
])
def test_detector_flags(source):
    assert splits_on_equals(ast.parse(source))


@pytest.mark.parametrize("source", [
    'line.split(",")', "line.split()", 'line.partition(":")', 'x.split(sep)',
    '"=" in line', 'line.split("==")', 'line.strip("=")',
])
def test_detector_allows(source):
    assert not splits_on_equals(ast.parse(source))
