"""The package's exports: ``rtspec.__all__`` lists exactly what
``rtspec/__init__.py`` imports, once each, and every name resolves."""

import ast
from pathlib import Path

import rtspec as rt
import rtspec.modes

INIT = Path(__file__).resolve().parents[1] / "src" / "rtspec" / "__init__.py"


def imported_names(source: str) -> set[str]:
    """Names bound by the module's ``from ... import`` statements."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


def test_every_export_resolves_once():
    assert len(rt.__all__) == len(set(rt.__all__))
    for name in rt.__all__:
        assert getattr(rt, name) is not None, name


def test_exports_are_the_imported_names():
    assert set(rt.__all__) == imported_names(INIT.read_text())


def test_half_line_function_is_exported_from_modes():
    assert rt.HalfLineFunction is rtspec.modes.HalfLineFunction
    assert not hasattr(rt, "TrialFunction")
