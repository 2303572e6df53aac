"""The bundled BLAS libraries: one thread while the package's tasks run,
and a Cholesky factor and solve that release the GIL.

The numpy and scipy wheels each bundle an OpenBLAS that starts one thread
per CPU: numpy's copy runs matmul, scipy's runs LAPACK.  The package's
parallelism is its ``threads`` worker threads, so BLAS threads on top of
them only stack.  At partition sizes of a few hundred rows a threaded
Cholesky is also slower than one thread and rounds differently from it,
which would make fits depend on the thread count and the machine's core
count.

``one_thread()`` sets both copies to one thread and restores the caller's
counts when the outermost entry leaves; ``dnc.ordered_map`` enters it
around every partition fit, coverage trial and rate replicate.  OpenBLAS
keeps the count process-wide, so entries from several threads share one
depth count under a lock; a worker that restored on its own exit would
unpin its siblings.  A copy that does not export both symbols is left alone.

``cho_factor`` and ``cho_solve`` keep the contract of their
``scipy.linalg`` namesakes but call ``dpotrf``/``dpotrs`` of scipy's copy
through ctypes, which drops the GIL for the whole call.  scipy's f2py
wrappers hold it, so the partition Choleskys of the ``threads`` workers
ran one at a time; through ctypes they overlap.  It is the same LAPACK
routine of the same library on the same input, so the factor and the
solution are the same bit for bit.  numpy's copy is not used for them:
its ``dpotrf`` rounds differently.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import importlib.machinery
import os
import threading
from contextlib import contextmanager

import numpy as np

_SCIPY_LAPACK = "scipy.linalg._flapack"
# (extension module linked against the copy, suffix of its symbols)
_LINKED_MODULES = (
    ("numpy._core._multiarray_umath", "64_"),
    (_SCIPY_LAPACK, ""),
)

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()


@functools.cache
def _library(module: str) -> ctypes.CDLL:
    """A ctypes handle on an extension module's file.

    dlsym on it also searches the libraries the module links.  A
    ``CDLL`` (not ``PyDLL``) function releases the GIL while it runs.
    The file is found next to its top-level package without importing
    the module: importing ``scipy.linalg._flapack`` loads ``scipy.linalg``
    and scipy's array-API layer, several tenths of a second of start-up.
    The module is imported only when no such file exists.
    """
    top, *rest = module.split(".")
    stem = os.path.join(os.path.dirname(importlib.import_module(top).__file__), *rest)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return ctypes.CDLL(stem + suffix)
    return ctypes.CDLL(importlib.import_module(module).__file__)


@functools.cache
def _controls() -> tuple:
    """(get, set) thread-count functions of each copy that exports both."""
    found = []
    for module, suffix in _LINKED_MODULES:
        try:
            lib = _library(module)
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


def _lapack_function(name: str, *argtypes):
    """LAPACK routine ``name`` of scipy's copy, with LP64 integer arguments.

    OpenBLAS builds for scipy prefix their symbols with ``scipy_``; a plain
    build does not.  The last argument is the hidden length of the
    Fortran ``character`` argument.
    """
    lib = _library(_SCIPY_LAPACK)
    for symbol in (f"scipy_{name}_", f"{name}_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = (*argtypes, ctypes.c_size_t), None
            return fn
    raise AttributeError(f"{lib._name} exports neither scipy_{name}_ nor {name}_")


# Arrays go in as the address of their data (a bare c_void_p converts
# faster than numpy's ndpointer); the callers below make every array
# float64, Fortran-ordered and of the declared shape first.
_INT, _ARRAY = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p


@functools.cache
def _potrf():
    # uplo, n, a, lda, info
    return _lapack_function("dpotrf", ctypes.c_char_p, _INT, _ARRAY, _INT, _INT)


@functools.cache
def _potrs():
    # uplo, n, nrhs, a, lda, b, ldb, info
    return _lapack_function(
        "dpotrs", ctypes.c_char_p, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT
    )


def cho_factor(a, lower=False):
    """Cholesky factor of the symmetric positive definite matrix ``a``.

    Returns ``(c, lower)``: ``c`` is a Fortran-ordered copy of ``a`` whose
    ``lower`` (or upper) triangle holds the factor; the other triangle
    keeps ``a``'s entries.  Raises ``LinAlgError`` when ``a`` is not
    positive definite.
    """
    c = np.array(a, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {c.shape}")
    n = c.shape[0]
    n_, info = ctypes.c_int(n), ctypes.c_int()
    _potrf()(b"L" if lower else b"U", n_, c.ctypes.data, n_, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrf")
    return c, lower


def cho_solve(c_and_lower, b):
    """Solve A x = b from ``cho_factor``'s ``(c, lower)``; ``b`` is kept."""
    c, lower = c_and_lower
    c = np.asfortranarray(c, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")
    if not (c.ndim == 2 and x.ndim in (1, 2) and 0 < c.shape[0] == c.shape[1] == x.shape[0]):
        raise ValueError(f"incompatible shapes {c.shape} and {x.shape}")
    n = c.shape[0]
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    n_, nrhs_, info = ctypes.c_int(n), ctypes.c_int(nrhs), ctypes.c_int()
    _potrs()(b"L" if lower else b"U", n_, nrhs_, c.ctypes.data, n_, x.ctypes.data, n_, info, 1)
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrs")
    return x
