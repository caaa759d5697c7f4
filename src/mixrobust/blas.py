"""OpenBLAS thread count through ctypes, for `analyze`, and each mapped
OpenBLAS's kernel name.

`analyze` factors small matrices (a few thousand rows by at most a few
dozen columns), where OpenBLAS threads cost more in hand-offs than they
save. `set_openblas_threads(1)` pins every OpenBLAS mapped at the time of
the call (numpy's, and scipy's once scipy is imported) to one thread; a
library mapped later keeps its own count until the next call. The count is
process-wide, and a worker forked after the call inherits it. Where the
process maps no OpenBLAS, or has no /proc/self/maps to find it by, nothing is
pinned.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

# numpy's and scipy's wheels bundle OpenBLAS under a prefixed (and, for the
# 64-bit integer build, suffixed) symbol; a system OpenBLAS uses the plain names
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _loaded_paths():
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return []


def _exported(name, restype, argtypes=()):
    """{library file name: its `name` call, typed} for each mapped OpenBLAS
    that exports the call."""
    calls = {}
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        symbols = (f"{prefix}_{name}{suffix}" for prefix in _PREFIXES for suffix in _SUFFIXES)
        call = next((getattr(lib, symbol) for symbol in symbols if hasattr(lib, symbol)), None)
        if call is not None:
            call.argtypes, call.restype = list(argtypes), restype
            calls[Path(path).name] = call
    return calls


def openblas_threads():
    """{library file name: its current thread count} for every mapped OpenBLAS."""
    return {name: get() for name, get in _exported("get_num_threads", ctypes.c_int).items()}


def openblas_corenames():
    """{library file name: the kernel it runs, such as "SkylakeX" or "Haswell"}
    for every mapped OpenBLAS that reports one. The kernel decides the bits of
    some results, so a run is reproducible byte for byte only under one."""
    return {name: get().decode()
            for name, get in _exported("get_corename", ctypes.c_char_p).items()}


def set_openblas_threads(n):
    """Set every mapped OpenBLAS to n threads."""
    for put in _exported("set_num_threads", None, [ctypes.c_int]).values():
        put(n)

