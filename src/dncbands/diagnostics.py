"""Numerical checks of testable spectral-theory ingredients.

Everything here runs on the synthetic spectral model (eigenvalues
j^(-b)) paired with the cosine basis on [0, 1], which is orthonormal
and uniformly bounded by sqrt(2) -- so the inequalities under test have
computable sides.  Theory constants are unknown; checks report ratios
and only assert inequalities that hold in constant-free form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import SpectralModel, effective_dimension


def cosine_basis(j: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal cosine basis on [0, 1]: 1, sqrt(2) cos(pi x), ..."""
    x = np.asarray(x, dtype=np.float64)
    if j == 1:
        return np.ones_like(x)
    return np.sqrt(2.0) * np.cos((j - 1) * np.pi * x)


@dataclass(frozen=True)
class EigenExpansionFunction:
    """Function with known norms: f = sum_j theta_j sqrt(mu_j) phi_j.

    theta_j are coefficients against the RKHS orthonormal system
    sqrt(mu_j) phi_j, so the RKHS norm is the plain euclidean norm of
    theta and the L2 norm weights it by sqrt(mu_j).
    """

    coefficients: np.ndarray
    model: SpectralModel

    def __post_init__(self):
        theta = np.asarray(self.coefficients, dtype=np.float64).reshape(-1)
        if theta.shape[0] != self.model.truncation:
            raise ValueError("coefficient length must match the model truncation")
        object.__setattr__(self, "coefficients", theta)

    def rkhs_norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def l2_norm(self) -> float:
        return float(
            np.sqrt(np.sum(self.model.eigenvalues * self.coefficients**2))
        )

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        scaled = self.coefficients * np.sqrt(self.model.eigenvalues)
        for j, coef in enumerate(scaled, start=1):
            if coef != 0.0:
                out += coef * cosine_basis(j, x)
        return out


class TraceBoundCheck(NamedTuple):
    lhs: float
    rhs: float
    ratio: float


def check_trace_bound(model: SpectralModel, rho: float) -> TraceBoundCheck:
    """sum mu_j/(mu_j+rho)^2 against effective_dimension(rho)/rho.

    The inequality holds with constant 1; a violation indicates a
    broken spectral model and raises.
    """
    if not (rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    mu = model.eigenvalues
    lhs = float(np.sum(mu / (mu + rho) ** 2))
    rhs = effective_dimension(model, rho) / rho
    if lhs > rhs * (1.0 + 1e-12):
        raise AssertionError(
            f"trace bound violated: {lhs} > {rhs} at rho={rho}"
        )
    return TraceBoundCheck(lhs, rhs, lhs / rhs if rhs > 0 else 0.0)


class InterpolationCheck(NamedTuple):
    sup_norm_est: float
    bound_without_constant: float
    ratio: float


def check_interpolation_inequality(
    f: EigenExpansionFunction, grid: np.ndarray
) -> InterpolationCheck:
    """Grid estimate of the sup norm against ||f||_H^(1/b) ||f||^(1-1/b)."""
    sup = float(np.max(np.abs(f.evaluate(grid)))) if f.rkhs_norm() > 0 else 0.0
    h_norm = f.rkhs_norm()
    l2 = f.l2_norm()
    if h_norm == 0.0:
        return InterpolationCheck(0.0, 0.0, 0.0)
    inv_b = 1.0 / f.model.decay_exponent
    bound = h_norm**inv_b * l2 ** (1.0 - inv_b)
    return InterpolationCheck(sup, bound, sup / bound)


def variance_proxy(model: SpectralModel, n: int, rho: float) -> float:
    """sqrt(T(rho) / (n rho^(1/b))) with the constant set to 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t_rho = effective_dimension(model, rho)
    return float(np.sqrt(t_rho / (n * rho ** (1.0 / model.decay_exponent))))
