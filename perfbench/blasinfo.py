"""Read-only view of the OpenBLAS libraries loaded in this process.

The thread count is read through ``ctypes`` from each bundled
(scipy-)OpenBLAS that is already mapped into the process; nothing is set,
and a library that is not loaded yet is never opened.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _symbol(lib, stem: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                return getattr(lib, f"{prefix}{stem}{suffix}")
            except AttributeError:
                continue
    return None


def loaded_openblas() -> list[str]:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "/" in line and "openblas" in Path(line.split()[-1]).name}
    return sorted(paths)


def blas_state() -> list[dict]:
    """One entry per loaded OpenBLAS: file name, build config, threads in effect."""
    state = []
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name, "config": None, "threads": None}
        get_config = _symbol(lib, "get_config")
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            entry["config"] = get_config().decode()
        get_threads = _symbol(lib, "get_num_threads")
        if get_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            entry["threads"] = get_threads()
        state.append(entry)
    return state


def threads_in_effect(state: list[dict]) -> int:
    """Largest thread count among the loaded libraries (0 if none reports)."""
    return max((e["threads"] or 0 for e in state), default=0)
