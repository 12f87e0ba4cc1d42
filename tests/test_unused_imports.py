"""No rtspec module imports a name it never uses, and no function stores
a value in a local name that nothing reads.

``__init__`` is left out of the imports check: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtspec"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _position(node: ast.AST) -> tuple[int, int]:
    return node.lineno, node.col_offset


def unread_locals(source: str) -> list[str]:
    """``function.name`` for each store of a local name that nothing reads.

    A store is read where a later line reads the name, or a loop around
    it (comprehensions included) reads it anywhere: a value left in a
    variable after its last read is caught, as one never read at all is.
    ``_``-prefixed names, the names of ``nonlocal`` and ``global``
    statements, and names a nested function, lambda or class mentions (it
    may run after any store) are exempt.
    """
    unread = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loads, stores, exempt = {}, [], set()

        def visit(node, loops):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Nonlocal, ast.Global)):
                    exempt.update(child.names)
                elif isinstance(child, _SCOPES):
                    exempt.update(n.id for n in ast.walk(child)
                                  if isinstance(n, ast.Name))
                    continue
                elif isinstance(child, ast.Name):
                    if isinstance(child.ctx, ast.Load):
                        loads.setdefault(child.id, []).append(child)
                    elif isinstance(child.ctx, ast.Store):
                        stores.append((child, loops))
                visit(child, loops + (child,) if isinstance(child, _LOOPS)
                      else loops)
        visit(func, ())
        for name, loops in stores:
            read = loads.get(name.id, [])
            if (name.id.startswith("_") or name.id in exempt
                    or any(_position(r) > _position(name) for r in read)
                    or any(not set(ast.walk(loop)).isdisjoint(read)
                           for loop in loops)):
                continue
            unread.append(f"{func.name}.{name.id}")
    return unread


def test_unused_imports_finds_an_unread_name():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.pi, sep\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unread_locals_finds_an_unread_name():
    source = """
def solve(a):
    lo, hi, unread, _spare = a, 2 * a, 0, 0
    count = 0

    def step():
        nonlocal count
        count += 1
    while hi - lo > 1:
        lo = (lo + hi) / 2
        step()
    for i in range(3):
        last = i
    squares = [j * j for j in range(hi)]
    return squares, count
"""
    # the loop around last's store does not read it, nor does a later line
    assert unread_locals(source) == ["solve.unread", "solve.last"]


@pytest.mark.parametrize("module",
                         sorted(p.name for p in PACKAGE.glob("*.py")))
def test_functions_read_every_local(module):
    assert unread_locals((PACKAGE / module).read_text()) == []
