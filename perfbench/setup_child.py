"""Set-up time of one CLI run, measured in a fresh interpreter.

Usage: python3 perfbench/setup_child.py CONFIG

Times importing ``rtspec.cli``, ``load_config`` and building the mesh and
profile, then prints one JSON object with that time and the BLAS state
the import left (see blasinfo.py).
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

import rtspec.cli  # noqa: E402

_config = rtspec.cli.load_config(sys.argv[1])
_config.mesh()
_config.profile()
_setup_s = time.perf_counter() - _start

import json  # noqa: E402

import blasinfo  # noqa: E402

print(json.dumps({"setup_s": _setup_s, "blas": blasinfo.blas_state()}))
