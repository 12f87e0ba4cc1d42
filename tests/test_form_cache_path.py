"""Forms are found, not passed.

No rtspec function takes a ``cache`` parameter: the interior forms are
combinations of parts memoized per mesh and per (mesh, profile) in
``discretization``, which every caller asks for itself.  Read from the source with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtspec"


def cache_paths(source: str) -> list[str]:
    """``cache`` parameters, as "parameter line" strings in source order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            names = [a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)]
            if "cache" in names:
                lines.append(node.lineno)
    return [f"parameter {line}" for line in sorted(lines)]


def test_cache_paths_finds_parameters():
    source = (
        "def forms(mesh, profile):\n"
        "    return mesh\n"
        "def solve(mesh, cache=None):\n"
        "    return cache or mesh\n"
        "def sweep(mesh, *, cache):\n"
        "    f = lambda cache: cache\n"
        "    return f(mesh)\n"
    )
    assert cache_paths(source) == ["parameter 3", "parameter 5",
                                   "parameter 6"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_forms_are_found_not_passed(module):
    assert cache_paths((PACKAGE / module).read_text()) == []
