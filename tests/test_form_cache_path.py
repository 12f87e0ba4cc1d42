"""Forms are found, not passed.

No rtspec function takes a ``cache`` parameter, and ``FormCache`` is built
only inside ``discretization.form_cache``, which keeps one per (mesh,
profile).  Both are read from the source with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtspec"


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def cache_paths(source: str) -> list[str]:
    """``cache`` parameters and ``FormCache(...)`` calls outside
    ``form_cache``, as "what line" strings in source order."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                args = child.args
                names = [a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)]
                if "cache" in names:
                    found.append(f"parameter {child.lineno}")
                inner = getattr(child, "name", function)
            elif (isinstance(child, ast.Call)
                  and _called_name(child.func) == "FormCache"
                  and function != "form_cache"):
                found.append(f"call {child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_cache_paths_finds_parameters_and_calls():
    source = (
        "def form_cache(mesh, profile):\n"
        "    return FormCache(mesh, profile)\n"
        "def solve(mesh, cache=None):\n"
        "    return cache or discretization.FormCache(mesh, None)\n"
        "def sweep(mesh, *, cache):\n"
        "    f = lambda cache: cache\n"
        "    return FormCache(mesh, None)\n"
    )
    assert cache_paths(source) == ["parameter 3", "call 4", "parameter 5",
                                   "parameter 6", "call 7"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_forms_are_found_not_passed(module):
    assert cache_paths((PACKAGE / module).read_text()) == []
