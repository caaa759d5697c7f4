"""OpenBLAS thread count through ctypes, for the fit stages.

The fit stages factor small matrices (a few thousand rows by at most a few
dozen columns), where OpenBLAS threads cost more in hand-offs than they
save. `single_thread` pins every OpenBLAS mapped at the time of the call
(numpy's, and scipy's once scipy is imported) to one thread; a library mapped
later keeps its own count. Where the process maps no OpenBLAS, or has no
/proc/self/maps to find it by, nothing is pinned.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

# numpy's and scipy's wheels bundle OpenBLAS under a prefixed (and, for the
# 64-bit integer build, suffixed) symbol; a system OpenBLAS uses the plain names
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

_pinned = False


def _loaded_paths():
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return []


def _symbol(lib, action):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{action}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _libraries():
    """(file name, get, set) for each mapped OpenBLAS that exports both calls."""
    found = []
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        get, put = _symbol(lib, "get"), _symbol(lib, "set")
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.append((Path(path).name, get, put))
    return found


def openblas_threads():
    """{library file name: its current thread count} for every mapped OpenBLAS."""
    return {name: get() for name, get, _ in _libraries()}


def set_openblas_threads(n):
    """Set every mapped OpenBLAS to n threads."""
    for _, _, put in _libraries():
        put(n)


def single_thread():
    """Pin every mapped OpenBLAS to one thread, once per process.

    The thread count is process-wide state: after the first call, every later
    BLAS call in the process, and every process it forks, runs single-threaded.
    """
    global _pinned
    if not _pinned:
        set_openblas_threads(1)
        _pinned = True
