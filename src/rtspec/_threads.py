"""Pin every OpenBLAS loaded in this process to one thread.

Matrices here are a few hundred rows; multithreaded BLAS spends more time
synchronizing than computing on them (a 5 k x 4 branch sweep on a 2-vCPU
host: 17-18 s on two BLAS threads, about 2 s on one).  numpy and
scipy wheels each bundle their own OpenBLAS, and ``OPENBLAS_NUM_THREADS``
reaches them only if it is set before they load, so the CLI pins once per
process, before it dispatches a command: the loaded libraries are found
in ``/proc/self/maps`` and set to one thread through ``ctypes``.  Library
callers keep whatever BLAS setup they chose.
"""

from __future__ import annotations

import ctypes
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
