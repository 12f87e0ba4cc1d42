"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` rebinds rtspec functions by ``module:qualname``
and raises if one is missing, so a rename inside rtspec would first show
up as a failed traced benchmark run.  This test reads the tracer's tables
without installing it, and fails as soon as a name stops resolving.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _targets(tracer):
    for targets in tracer.LAYERS.values():
        yield from targets
    yield from tracer.COUNTED.values()


def test_every_traced_name_resolves_in_rtspec(tracer):
    targets = list(_targets(tracer))
    assert targets
    missing = []
    for target in targets:
        module_name, qualname = target.split(":")
        owner = importlib.import_module(f"rtspec.{module_name}")
        *cls_name, name = qualname.split(".")
        if cls_name:
            # methods are wrapped from the class's own namespace
            owner = vars(getattr(owner, cls_name[0], object))
        else:
            owner = vars(owner)
        if not callable(owner.get(name)):
            missing.append(target)
    assert missing == []
