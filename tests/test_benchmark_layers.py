"""Every layer the benchmark requires of a workload is actually called.

``test_tracer_names.py`` checks that the traced names exist; this test
checks that the workload still calls them.  It runs the benchmark's own
child, ``perfbench/trace_child.py``, on the workload's command line with
a coarse mesh, exactly as the traced benchmark run does, and reads the
span count per layer from its result file.  Nothing under ``perfbench/``
is written: the workload table is loaded without bytecode, and the child
runs with ``-B``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# workload -> its exit code by design (verify's four monotone-gamma rows fail)
EXPECTED_EXIT = {"lattice": 0, "sweep": 0, "verify": 1}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
def test_workload_calls_every_required_layer(workloads, tmp_path, name):
    workload = workloads[name]
    config = tmp_path / "run.cfg"
    config.write_text("seed = 0\nmesh.n_elements = 16\n")
    result = tmp_path / "trace.json"
    untraced, traced = tmp_path / "untraced.out", tmp_path / "traced.out"
    args = workload.command + ("--config", str(config), "--out", "{out}")
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, **workload.thread_env,
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, "-B", str(PERFBENCH / "trace_child.py"),
                    str(result), str(untraced), str(traced), *args],
                   cwd=tmp_path, env=env, check=True, capture_output=True,
                   timeout=300)
    run = json.loads(result.read_text())
    calls = run["calls"]
    assert [layer for layer in workload.layers if not calls.get(layer)] == []
    assert run["untraced"]["exit"] == run["traced"]["exit"] == EXPECTED_EXIT[name]
    assert untraced.read_bytes() == traced.read_bytes()
