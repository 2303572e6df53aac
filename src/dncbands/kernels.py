"""Matern kernel matrices and a truncated spectral model.

The kernel is always a half-integer Matern; for nu in {1/2, 3/2, 5/2, 7/2}
it has a closed form

    k(r) = s * p(u) * exp(-u),    u = sqrt(2 nu) r / l,

with p a polynomial of degree nu - 1/2, so no Bessel-function
evaluation is ever needed.  The kernel is only evaluated as a matrix:
``cross_matrix`` and ``gram_matrix`` apply the closed form to a buffer
of pairwise distances in place.  In dimension d its eigenvalues decay
polynomially with exponent b = 2 nu + d (``KernelSpec.decay_exponent``);
the spectral model pins them to mu_j = j^(-b) exactly, which makes
every diagnostic reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HALF_INTEGER_NUS = (0.5, 1.5, 2.5, 3.5)


@dataclass(frozen=True)
class KernelSpec:
    """Positive-definite Matern kernel: smoothness and scales."""

    nu: float = 3.5
    lengthscale: float = 1.0
    output_scale: float = 1.0

    def __post_init__(self):
        if self.nu not in HALF_INTEGER_NUS:
            raise ValueError(
                f"nu must be one of {HALF_INTEGER_NUS} (closed-form half-integer "
                f"Matern only), got {self.nu}"
            )
        if not (self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (self.output_scale > 0):
            raise ValueError(f"output_scale must be positive, got {self.output_scale}")

    def decay_exponent(self, dim: int) -> float:
        """Polynomial eigendecay exponent b = 2 nu + d in dimension dim."""
        return 2.0 * self.nu + dim


def _as_points(x) -> np.ndarray:
    """Coerce scalars / 1d / 2d input to an (n, d) float array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ValueError(f"points must be at most 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite covariate values")
    return a


def _matern_profile_inplace(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Kernel values s * p(u) * exp(-u) at the distances r >= 0, in r's buffer.

    r is overwritten; two more buffers of r's shape are used.  The steps
    follow the closed form term by term, so the values are those of the
    written-out formula bit for bit.
    """
    u = r
    u *= np.sqrt(2.0 * spec.nu)
    u /= spec.lengthscale
    poly = np.ones_like(u) if spec.nu == 0.5 else u + 1.0
    if spec.nu == 2.5:
        term = u * u  # u * u / 3
        term /= 3.0
        poly += term
    elif spec.nu == 3.5:
        term = u * 0.4  # 0.4 * u * u, then u * u * u / 15
        term *= u
        poly += term
        np.multiply(u, u, out=term)
        term *= u
        term /= 15.0
        poly += term
    poly *= spec.output_scale
    np.negative(u, out=u)
    np.exp(u, out=u)
    poly *= u
    return poly


def cross_matrix(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Rectangular kernel matrix k(a_i, b_j) for two point sets."""
    a = _as_points(points_a)
    b = _as_points(points_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets live in different dimensions")
    # squared distances, summed in coordinate order into one (n, m) buffer
    r = np.subtract.outer(a[:, 0], b[:, 0])
    r *= r
    for j in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        diff *= diff
        r += diff
    np.sqrt(r, out=r)
    return _matern_profile_inplace(spec, r)


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a point set; diagonal equals output_scale."""
    a = _as_points(points)
    k = cross_matrix(spec, a, a)
    # exactly symmetric: a_i - a_j is -(a_j - a_i) in IEEE arithmetic
    np.fill_diagonal(k, spec.output_scale)
    return k


@dataclass(frozen=True)
class SpectralModel:
    """Truncated eigenvalue model of the kernel operator, mu_j = j^(-b)."""

    decay_exponent: float
    truncation: int
    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.decay_exponent > 1):
            raise ValueError(f"decay exponent must exceed 1, got {self.decay_exponent}")
        if self.truncation < 1:
            raise ValueError("truncation must be a positive integer")
        mu = np.asarray(self.eigenvalues, dtype=np.float64)
        if mu.shape != (self.truncation,):
            raise ValueError("eigenvalue array does not match the truncation")
        if not np.all(mu > 0):
            raise ValueError("eigenvalues must be positive")
        if self.truncation > 1 and not np.all(np.diff(mu) < 0):
            raise ValueError("eigenvalues must be strictly decreasing")
        object.__setattr__(self, "eigenvalues", mu)

    @classmethod
    def polynomial(cls, decay_exponent: float, truncation: int) -> "SpectralModel":
        j = np.arange(1, truncation + 1, dtype=np.float64)
        return cls(decay_exponent, truncation, j ** (-decay_exponent))

    @classmethod
    def from_matern(cls, spec: KernelSpec, dim: int, truncation: int) -> "SpectralModel":
        return cls.polynomial(spec.decay_exponent(dim), truncation)


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
