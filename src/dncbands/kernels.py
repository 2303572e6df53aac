"""Matern kernel matrices and a truncated spectral model.

The kernel is always a half-integer Matern; for nu in {1/2, 3/2, 5/2, 7/2}
it has a closed form

    k(r) = p(u) * exp(-u),    u = sqrt(2 nu) r / l,

with p a polynomial of degree nu - 1/2, so no Bessel-function
evaluation is ever needed.  The kernel is only evaluated as a matrix:
``cross_matrix`` and ``gram_matrix`` take one (n, d) point set or a
stack of g sets, (g, n, d), and apply the closed form to a buffer of
pairwise distances in place, one block at a time.  In d = 1 the
distance is |a - b|, one pass: sqrt(fl(x * x)) equals it unless x * x
is subnormal (|x| < 1.5e-154), where |x| is exact.  A block holds at
most ``ROW_BLOCK_ENTRIES`` = 2^16 entries: either the whole matrices of
as many sets of the stack as fit, or, when one matrix does not fit,
rows of one set.  Its distance buffer is 512 KB, so with the closed
form's one scratch buffer and its output block it stays in a core's L2
cache, and the dozen elementwise passes of the closed form no longer
stream (n, m) buffers through memory.  The calling thread keeps the
distance buffer from block to block.  Smaller blocks cost more than
they save when two threads fit partitions at once: each block is
another round of short ufunc calls that hold the GIL.  For the same
reason small sets share blocks, so the partitions of a
divide-and-conquer fit pay one round of calls per block, not one per
partition.  Each block is written straight into the preallocated
result.  ``gram_matrix`` evaluates a block of rows only up to its last
row's column and mirrors the strictly lower triangle, then sets the
diagonal.  Every entry goes through the same elementwise steps in the
same order at any block size and stack size, so the values depend on
neither, bit for bit.  In dimension d its eigenvalues decay
polynomially with exponent b = 2 nu + d (``KernelSpec.decay_exponent``);
the spectral model pins them to mu_j = j^(-b) exactly, which makes
every diagnostic reproducible.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

HALF_INTEGER_NUS = (0.5, 1.5, 2.5, 3.5)
ROW_BLOCK_ENTRIES = 2**16  # distance-buffer entries per row block


@dataclass(frozen=True)
class KernelSpec:
    """Positive-definite Matern kernel of unit amplitude.

    An amplitude s would only rescale the penalty: the estimator with
    s * k at penalty constant c is the one with k at c / s.
    """

    nu: float = 3.5
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.nu not in HALF_INTEGER_NUS:
            raise ValueError(
                f"nu must be one of {HALF_INTEGER_NUS} (closed-form half-integer "
                f"Matern only), got {self.nu}"
            )
        if not (self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")

    def decay_exponent(self, dim: int) -> float:
        """Polynomial eigendecay exponent b = 2 nu + d in dimension dim."""
        return 2.0 * self.nu + dim


def _as_points(x) -> np.ndarray:
    """Coerce scalars / 1d / 2d input to an (n, d) float array.

    A 3d input is a stack of g point sets, (g, n, d), and is kept as it is.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim > 3:
        raise ValueError(f"points must be at most 3-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite covariate values")
    return a


def _matern_profile_inplace(spec: KernelSpec, r: np.ndarray, poly: np.ndarray) -> None:
    """Kernel values p(u) * exp(-u) at the distances r >= 0, into poly.

    r is overwritten, and one more buffer of r's shape is used.  The
    steps follow the closed form term by term, so the values are those
    of the written-out formula bit for bit.
    """
    v = r  # v = -u: negation is exact, so each term below has the bits of its u form
    v *= -np.sqrt(2.0 * spec.nu)
    v /= spec.lengthscale
    if spec.nu == 0.5:
        poly.fill(1.0)
    else:
        np.subtract(1.0, v, out=poly)
    if spec.nu == 2.5:
        term = v * v  # u * u / 3
        term /= 3.0
        poly += term
    elif spec.nu == 3.5:
        term = v * 0.4  # 0.4 * u * u, then u * u * u / 15
        term *= v
        poly += term
        np.multiply(v, v, out=term)
        term *= v
        term /= 15.0
        poly -= term
    np.exp(v, out=v)
    poly *= v


_kept = threading.local()


def _distance_buffer(shape) -> np.ndarray:
    """A contiguous buffer of ``shape`` for a block's distances.

    The calling thread keeps it from block to block: a fresh 512 KB
    buffer goes back to the system when it is freed and is faulted in
    again by the next block, a few hundred page faults a block.  The
    closed form's other buffer is left to the allocator, where each
    fit's Cholesky copy can reuse its memory: kept too, it made a serial
    desk trial of 256-row partitions about 15% slower on a 2-CPU VM.
    """
    size = math.prod(shape)
    buf = getattr(_kept, "distances", None)
    if buf is None or buf.size < size:
        buf = _kept.distances = np.empty(max(size, ROW_BLOCK_ENTRIES))
    return buf[:size].reshape(shape)


def _kernel_rows(spec: KernelSpec, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """k(a_i, b_j) for one block: rows a (g, m, d) against b (g, n, d), into out."""
    r = np.subtract(a[..., :, None, 0], b[..., None, :, 0], out=_distance_buffer(out.shape))
    if a.shape[-1] == 1:  # |x|, see the module docstring
        return _matern_profile_inplace(spec, np.abs(r, out=r), out)
    # squared distances, summed in coordinate order into one contiguous buffer
    r *= r
    for j in range(1, a.shape[-1]):
        diff = np.subtract(a[..., :, None, j], b[..., None, :, j])
        diff *= diff
        r += diff
    np.sqrt(r, out=r)
    _matern_profile_inplace(spec, r, out)


def _blocks(g: int, m: int, n: int):
    """(sets, first row, stop row) of each block of a (g, m, n) stack.

    A block holds the whole (m, n) matrices of as many sets as fit in
    ``ROW_BLOCK_ENTRIES`` entries or, when one matrix does not fit, rows
    of one set.
    """
    if m * n <= ROW_BLOCK_ENTRIES:
        step = ROW_BLOCK_ENTRIES // max(m * n, 1)
        for lo in range(0, g, step):
            yield slice(lo, lo + step), 0, m
    else:
        rows = max(1, ROW_BLOCK_ENTRIES // n)
        for p in range(g):
            for start in range(0, m, rows):
                yield slice(p, p + 1), start, min(start + rows, m)


def cross_matrix(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Rectangular kernel matrix k(a_i, b_j) for two point sets.

    Either set may be a (g, n, d) stack; the result is then the (g, m, n)
    stack of the matrices of corresponding sets.
    """
    a = _as_points(points_a)
    b = _as_points(points_b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("point sets live in different dimensions")
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) or (1,)
    a3 = np.broadcast_to(a, stack + a.shape[-2:])
    b3 = np.broadcast_to(b, stack + b.shape[-2:])
    k = np.empty(stack + (a.shape[-2], b.shape[-2]))
    for sets, start, stop in _blocks(*k.shape):
        _kernel_rows(spec, a3[sets, start:stop], b3[sets], k[sets, start:stop])
    return k if a.ndim == 3 or b.ndim == 3 else k[0]


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a point set; its diagonal is 1.

    A (g, n, d) stack of point sets gives the (g, n, n) stack of their Grams.
    """
    a = _as_points(points)
    a3 = a if a.ndim == 3 else a[None]
    g, n = a3.shape[:2]
    k = np.empty((g, n, n))
    for sets, start, stop in _blocks(g, n, n):  # each block of rows up to its last column
        _kernel_rows(spec, a3[sets, start:stop], a3[sets, :stop], k[sets, start:stop, :stop])
        k[sets, :start, start:stop] = k[sets, start:stop, :start].swapaxes(1, 2)  # mirror
    # exactly symmetric: a_i - a_j is -(a_j - a_i) in IEEE arithmetic
    k.reshape(g, n * n)[:, :: n + 1] = 1.0
    return k if a.ndim == 3 else k[0]


@dataclass(frozen=True)
class SpectralModel:
    """Truncated eigenvalue model of the kernel operator, mu_j = j^(-b)."""

    decay_exponent: float
    truncation: int
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.decay_exponent > 1):
            raise ValueError(f"decay exponent must exceed 1, got {self.decay_exponent}")
        if self.truncation < 1:
            raise ValueError("truncation must be a positive integer")
        j = np.arange(1, self.truncation + 1, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", j ** (-self.decay_exponent))

    @classmethod
    def from_matern(cls, spec: KernelSpec, dim: int, truncation: int) -> "SpectralModel":
        return cls(spec.decay_exponent(dim), truncation)


def effective_dimension(model: SpectralModel, rho: float) -> float:
    """Ridge-regularized degrees of freedom: sum_j mu_j / (mu_j + rho).

    The sum runs over the model's truncation only; use
    ``effective_dimension_tail`` to check the neglected tail term.
    """
    if not (rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    mu = model.eigenvalues
    return float(np.sum(mu / (mu + rho)))


def effective_dimension_tail(model: SpectralModel, rho: float) -> float:
    """Last retained term mu_J / (mu_J + rho); callers keep this < 1e-8."""
    if not (rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    mu_last = float(model.eigenvalues[-1])
    return mu_last / (mu_last + rho)
