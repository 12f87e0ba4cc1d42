"""Run the CLI's BLAS on one thread, from the moment it loads.

Matrices here are a few hundred rows; multithreaded BLAS spends more time
synchronizing than computing on them (a 5 k x 4 branch sweep on a 2-vCPU
host: 17-18 s on two BLAS threads, about 2 s on one).  numpy and scipy
wheels each bundle their own OpenBLAS, which reads ``OPENBLAS_NUM_THREADS``
only when it loads and otherwise starts a pool of busy-waiting workers.
So ``rtspec.cli`` imports numpy and its rtspec modules inside
``single_threaded_loading``, which sets that variable for the imports
only, and ``main`` still pins any OpenBLAS loaded before the CLI was: the
loaded libraries are found in ``/proc/self/maps`` and set to one thread
through ``ctypes``.  Library callers keep whatever BLAS setup they chose:
``import rtspec`` reaches neither function.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

# Thread setters, tried in order: numpy's 64-bit-integer build, scipy's
# build, a plain OpenBLAS.
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads")


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    fields = (line.split(maxsplit=5) for line in lines)
    return sorted({f[5] for f in fields
                   if len(f) == 6 and "openblas" in Path(f[5]).name})


@contextmanager
def single_threaded_loading():
    """Load OpenBLAS with one thread inside the block; restore the environment after."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def single_threaded_blas() -> int:
    """Set every loaded OpenBLAS to one thread; return how many were pinned."""
    pinned = 0
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned += 1
                break
    return pinned
