"""The library's BLAS thread policy: every fit runs on one BLAS thread.

numpy and scipy each load their own OpenBLAS, with a thread pool each. A fit
works on (c+D)-sized matrices, where extra threads only cost time and change
the round-off, so `single_thread` sets both pools to 1 thread and restores
their counts on exit. The pools are found among the libraries already loaded
into the process and called through ctypes; where none is found, as on a
platform without /proc/self/maps, it does nothing. Prediction keeps its threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# (setter, getter) exported by numpy's 64-bit-integer OpenBLAS and by scipy's
SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
           ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))
MAPS = "/proc/self/maps"


@functools.lru_cache(maxsize=None)
def pools():
    """(library file name, setter, getter) of each loaded OpenBLAS, found once per process."""
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS, so that its pool is capped too

    try:
        with open(MAPS, encoding="utf-8") as fh:  # a path, which may hold spaces, ends a line
            paths = sorted({line.split(None, 5)[-1].rstrip("\n") for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((os.path.basename(path), setter, getter))
    return tuple(found)


def thread_counts():
    """{library file name: threads} of each loaded OpenBLAS pool."""
    return {name: getter() for name, _, getter in pools()}


@contextlib.contextmanager
def single_thread():
    """Run the body with every OpenBLAS pool at 1 thread; also a decorator.

    The pools are process-wide: while the body runs, BLAS calls from other
    threads of the process run on one thread too.
    """
    found = pools()
    before = [getter() for _, _, getter in found]
    for _, setter, _ in found:
        setter(1)
    try:
        yield
    finally:
        for (_, setter, _), count in zip(found, before):
            setter(count)
