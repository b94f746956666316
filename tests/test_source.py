"""Static checks over the package source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wedgegroup").glob("*.py"))


def _discarded_tolerances(path):
    """Lines of path holding a bare ``resolve_tol(...)`` statement: a
    tolerance resolved and thrown away."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "resolve_tol":
                yield f"{path.name}:{node.lineno}"


def test_sources_are_found():
    assert any(path.name == "tolerances.py" for path in SOURCES)


def test_no_resolved_tolerance_is_discarded():
    assert [hit for path in SOURCES for hit in _discarded_tolerances(path)] == []
