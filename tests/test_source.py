"""Static checks over the package source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wedgegroup").glob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _called(call):
    """The name a call node calls: ``f`` of ``f(...)`` and of ``a.b.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _discarded_tolerances(path):
    """Lines of path holding a bare ``resolve_tol(...)`` statement: a
    tolerance resolved and thrown away."""
    for node in _nodes(path):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            if _called(node.value) == "resolve_tol":
                yield f"{path.name}:{node.lineno}"


def _general_eigensolves(path):
    """Lines of path calling ``eig``, numpy's general eigensolver, whose
    eigenvectors degrade next to repeated eigenvalues; the Hermitian
    ``eigh`` and ``eigvalsh`` are not flagged."""
    for node in _nodes(path):
        if isinstance(node, ast.Call) and _called(node) == "eig":
            yield f"{path.name}:{node.lineno}"


def test_sources_are_found():
    assert any(path.name == "tolerances.py" for path in SOURCES)


def test_no_resolved_tolerance_is_discarded():
    assert [hit for path in SOURCES for hit in _discarded_tolerances(path)] == []


def test_no_general_eigensolver():
    assert [hit for path in SOURCES for hit in _general_eigensolves(path)] == []
