"""The per-entry path stays free of dense BLAS/LAPACK calls.

Build workers each run their own process; a threaded BLAS call in any
of them makes the workers' thread pools contend (see README, dataset
build). This walks the package source and names every matrix product,
``np.linalg`` call or other BLAS-backed numpy routine it finds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rirshape"
BANNED = {"dot", "matmul", "einsum", "inner", "tensordot", "polyfit"}
NUMPY_NAMES = {"np", "numpy"}


def blas_calls(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@ matrix product"))
        elif isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            parts = name.split(".")
            if parts[0] in NUMPY_NAMES and (parts[1:2] == ["linalg"]
                                            or (len(parts) == 2 and parts[1] in BANNED)):
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                if node.module == "numpy.linalg" or alias.name in BANNED | {"linalg"}:
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_call(path):
    calls = blas_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not calls, "\n".join(f"{path.name}:{line}: {what}" for line, what in calls)


@pytest.mark.parametrize("source", [
    "c = a @ b", "c @= b", "np.dot(a, b)", "numpy.matmul(a, b)", "np.einsum('ij', a)",
    "np.inner(a, b)", "np.tensordot(a, b)", "np.linalg.norm(a)", "np.linalg.lstsq(a, b)",
    "np.polyfit(t, y, 1)", "f = np.dot", "from numpy import dot",
    "from numpy.linalg import solve",
])
def test_detector_flags(source):
    assert blas_calls(ast.parse(source))


@pytest.mark.parametrize("source", [
    "fb.sparse_weights.dot(x)", "x.dot(y)", "np.multiply(a, b)", "np.fft.rfft(x)",
    "a * b",
])
def test_detector_allows(source):
    assert not blas_calls(ast.parse(source))
