"""The package's exports: ``rtspec.__all__`` lists exactly the names of
the export table in ``rtspec/__init__.py``, once each, and every name
resolves to the object of that name in the module the table gives.
``import rtspec`` itself loads no submodule, so no numpy."""

import importlib
import os
import subprocess
import sys

import pytest

import rtspec as rt
import rtspec.modes


def test_every_export_resolves_once():
    assert len(rt.__all__) == len(set(rt.__all__))
    for name in rt.__all__:
        assert getattr(rt, name) is not None, name


def test_exports_are_the_imported_names():
    table = [name for names in rt._EXPORTS.values() for name in names]
    assert len(table) == len(set(table))
    assert rt.__all__ == table
    for module, names in rt._EXPORTS.items():
        source = importlib.import_module(f"rtspec.{module}")
        for name in names:
            assert getattr(rt, name) is getattr(source, name), name
    star = {}
    exec("from rtspec import *", star)
    assert set(star) - {"__builtins__"} == set(rt.__all__)
    assert set(rt.__all__) <= set(dir(rt))
    with pytest.raises(AttributeError):
        rt.TrialFunction


def test_half_line_function_is_exported_from_modes():
    assert rt.HalfLineFunction is rtspec.modes.HalfLineFunction
    assert not hasattr(rt, "TrialFunction")


def test_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, rtspec; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy' or m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
