"""Pin the bundled BLAS libraries to one thread while partition fits run.

The numpy and scipy wheels each bundle an OpenBLAS that starts one thread
per CPU: numpy's copy runs matmul, scipy's runs ``cho_factor`` and
``cho_solve``.  The package's parallelism is its ``threads`` worker
threads, so BLAS threads on top of them only stack.  At partition sizes of
a few hundred rows a threaded Cholesky is also slower than one thread and
rounds differently from it, which would make fits depend on the thread
count and the machine's core count.

``one_thread()`` sets both copies to one thread and restores the caller's
counts when the outermost entry leaves.  OpenBLAS keeps the count
process-wide, so entries from several threads share one depth count under
a lock; a worker that restored on its own exit would unpin its siblings.
A copy that does not export both symbols is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import contextmanager

# (extension module linked against the copy, suffix of its symbols)
_LINKED_MODULES = (
    ("numpy._core._multiarray_umath", "64_"),
    ("scipy.linalg._flapack", ""),
)

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()


@functools.cache
def _controls() -> tuple:
    """(get, set) thread-count functions of each copy that exports both."""
    found = []
    for module, suffix in _LINKED_MODULES:
        try:
            # dlsym on the module's handle also searches the libraries it links
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        found.append((get, set_))
    return tuple(found)


@contextmanager
def one_thread():
    """Run the body with every bundled BLAS copy on one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            controls = _controls()
            _saved = tuple((set_, get()) for get, set_ in controls)
            for _, set_ in controls:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
