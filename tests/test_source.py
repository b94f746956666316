"""Static checks over the package source."""

import ast
import importlib
import inspect
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


# the submodules whose ``__all__`` the package re-exports: every module but
# the command line, the JSON codecs and the package files themselves
REEXPORTED = [
    path.stem for path in SOURCES if path.stem not in {"__init__", "__main__", "cli", "serialization"}
]


def test_package_exports_are_the_submodule_lists():
    import wedgegroup

    names = wedgegroup.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(wedgegroup, name)] == []
    lists = [importlib.import_module(f"wedgegroup.{stem}").__all__ for stem in REEXPORTED]
    assert set(names) == {"__version__"}.union(*lists)
    assert sum(map(len, lists)) + 1 == len(names)


def test_removed_names_are_gone():
    import wedgegroup
    from wedgegroup import suite, wedges

    for name in ("interpolating_wedges", "InterpolationStep", "mapping_between", "edge"):
        assert not hasattr(wedgegroup, name) and not hasattr(wedges, name)
    assert not hasattr(suite, "SUITE_CHECKS")
    assert not hasattr(wedges, "EdgePlane")
    assert not hasattr(wedgegroup.Wedge, "from_rays")
    assert not hasattr(wedgegroup.Reflection, "fixed_plane")


def test_constructors_have_no_validate_switch():
    import wedgegroup

    for cls in (wedgegroup.LorentzElement, wedgegroup.Reflection):
        assert "validate" not in inspect.signature(cls).parameters


def _validate_keywords(path):
    """Lines of path passing ``validate=`` to a call: every value is checked
    where it enters, or built by a trusted constructor, never switched off."""
    for node in _nodes(path):
        if isinstance(node, ast.Call) and any(kw.arg == "validate" for kw in node.keywords):
            yield f"{path.name}:{node.lineno}"


def test_no_call_passes_validate():
    assert [hit for path in SOURCES for hit in _validate_keywords(path)] == []
