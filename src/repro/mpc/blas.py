"""The thread count of the BLAS library numpy links.

A forked pool worker inherits the driver's BLAS settings, so on a
two-core host two workers would each run two BLAS threads and spin
four threads on two cores.  The process backend caps each worker with
the library's own setter, found among the loaded shared objects
(``/proc/self/maps``); no extra dependency is needed.  When no known
setter is found, the thread count is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Optional, Tuple

#: thread setters and getters of the BLAS builds numpy ships with or
#: links: scipy-openblas (64-bit ints and not), plain OpenBLAS, MKL
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _loaded_libraries() -> list:
    """Paths of the BLAS-like shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(
        path for path in paths
        if ".so" in path and any(tag in os.path.basename(path).lower()
                                 for tag in ("blas", "mkl"))
    )


@functools.lru_cache(maxsize=1)
def _functions() -> Tuple[Optional[object], Optional[object]]:
    """``(setter, getter)`` of the loaded BLAS, or ``(None, None)``."""
    for path in _loaded_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter = next((getattr(lib, name) for name in _GETTERS if hasattr(lib, name)), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None, None


def set_thread_count(count: int) -> bool:
    """Set the BLAS thread count; False when no setter was found."""
    setter, _ = _functions()
    if setter is None:
        return False
    setter(int(count))
    return True


def thread_count() -> Optional[int]:
    """The BLAS thread count, or ``None`` when it cannot be read."""
    _, getter = _functions()
    return int(getter()) if getter is not None else None
