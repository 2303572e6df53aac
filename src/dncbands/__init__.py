"""Divide-and-conquer kernel ridge regression with bootstrap bands.

Split a large sample into balanced partitions, fit kernel ridge
regression on each, average the local predictions at a fixed set of
query points, and calibrate simultaneous element-wise confidence
intervals by bootstrapping the local prediction vectors.  A Monte
Carlo harness measures the coverage the calibrated bands actually
achieve on synthetic heteroscedastic data.
"""

from . import bands, bootstrap, diagnostics, dnc, kernels, krr, simulation
from .bands import Bands, band_intervals, calibrate, calibrate_prefixes, covers
from .bootstrap import BootstrapDraws, empirical_draws, multiplier_draws
from .dnc import LocalPredictionMatrix, PartitionPlan, average, fit_all_partitions, make_partition_plan
from .kernels import (
    KernelSpec,
    SpectralModel,
    effective_dimension,
    effective_dimension_tail,
    gram_matrix,
)
from .krr import KrrFit, Sample, penalty_schedule
from .simulation import (
    CoverageReport,
    DgpSpec,
    coverage_ci99,
    generate_trial,
    partition_bound_check,
    rate_study,
    run_coverage_cell,
    run_coverage_grid,
    run_coverage_row,
)

__version__ = "0.1.0"

__all__ = [
    "bands",
    "bootstrap",
    "diagnostics",
    "dnc",
    "kernels",
    "krr",
    "simulation",
    "Bands",
    "band_intervals",
    "calibrate",
    "calibrate_prefixes",
    "covers",
    "BootstrapDraws",
    "empirical_draws",
    "multiplier_draws",
    "LocalPredictionMatrix",
    "PartitionPlan",
    "average",
    "fit_all_partitions",
    "make_partition_plan",
    "KernelSpec",
    "SpectralModel",
    "effective_dimension",
    "effective_dimension_tail",
    "gram_matrix",
    "KrrFit",
    "Sample",
    "penalty_schedule",
    "CoverageReport",
    "DgpSpec",
    "coverage_ci99",
    "generate_trial",
    "partition_bound_check",
    "rate_study",
    "run_coverage_cell",
    "run_coverage_grid",
    "run_coverage_row",
    "__version__",
]
