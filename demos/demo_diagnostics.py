#!/usr/bin/env python3
# Numerical checks on the synthetic spectral model (eigenvalues j^-8,
# cosine basis): the regularized trace bound, the sup-norm interpolation
# inequality, the effective-dimension scaling, and the variance proxy.

import numpy as np

from dncbands import SpectralModel, effective_dimension, effective_dimension_tail
from dncbands.diagnostics import (
    EigenExpansionFunction,
    check_interpolation_inequality,
    check_trace_bound,
    variance_proxy,
)

model = SpectralModel(8.0, 10**4)

print("trace bound  sum mu/(mu+rho)^2  <=  T(rho)/rho")
for rho in (1e-5, 1e-3, 1e-1):
    c = check_trace_bound(model, rho)
    print(f"  rho={rho:7.0e}:  {c.lhs:12.4e} <= {c.rhs:12.4e}   slack ratio {c.ratio:.3f}")

print("\neffective dimension and its scaling T(rho) * rho^(1/8)")
for rho in (1e-5, 1e-3, 1e-1):
    t = effective_dimension(model, rho)
    tail = effective_dimension_tail(model, rho)
    print(f"  rho={rho:7.0e}:  T={t:8.4f}   T*rho^(1/8)={t * rho ** 0.125:.4f}   tail={tail:.1e}")

print("\nsup-norm interpolation ratio over random expansions (J=256)")
small = SpectralModel(8.0, 256)
grid = np.linspace(0, 1, 2048)
rng = np.random.default_rng(0)
ratios = [
    check_interpolation_inequality(
        EigenExpansionFunction(rng.normal(size=256), small), grid
    ).ratio
    for _ in range(50)
]
print(f"  max ratio {max(ratios):.3f}, mean {np.mean(ratios):.3f} (finite, stable)")

print("\nvariance proxy sqrt(T(rho) / (n rho^(1/8)))")
for n in (64, 256, 1024):
    print(f"  n={n:5d}:  {variance_proxy(model, n, 1e-3):.4f}")
