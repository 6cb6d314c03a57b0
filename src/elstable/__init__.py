"""Empirical-likelihood confidence regions for heavy-tailed linear processes.

The package covers the full pipeline: simulation of symmetric alpha-stable
linear processes, self-normalized periodograms and smoothed transfer
estimates, Whittle-type estimating functions, the empirical-likelihood
statistic with its Monte-Carlo-calibrated threshold, competing
sample-autocorrelation intervals, and a replicated experiment harness with
a command-line front end.
"""

from .emplik import BatchSolution, solve_lagrange, solve_lagrange_batch, x_n
from .errors import (DegenerateSeriesError, DomainError, NumericalError,
                     TruncationWarning)
from .harness import (DEFAULT_SEED, SCHEMA_VERSION, AnalysisResult,
                      ConfidenceInterval, CoverageResult, ExperimentConfig,
                      RegionScan, TableResult, analyze_series,
                      coverage_experiment, coverage_summary,
                      el_confidence_region, ingest_csv, limit_law, pivotal_value,
                      render_csv, run_table, theta_grid, whittle_point, write_csv)
from .limitlaw import (LimitLawConfig, Quantile, compute_V_coeffs,
                       compute_V_coeffs_mv, compute_W, compute_W_mv,
                       mc_quantile, prepare_limit, sac_series_constant,
                       sample_limit_stat, sample_limit_stat_simplified,
                       sample_stable_ratio, scale_multipliers, tail_constant)
from .processes import (LinearProcessSpec, StableParams, VectorProcessSpec,
                        ma_polynomial_spec, power_transfer_matrix, sample_positive_stable,
                        sample_sas, simulate_linear, simulate_vector_linear,
                        spec_from_dict, theoretical_acf, transfer_matrix, vma_table_spec)
from .scores import (ScoreFunction, acf_score, coupling_var1_score,
                     estimating_function, estimating_function_mv,
                     score_from_config, var1_score)
from .spectral import (SmoothedTransfer, acf_sequence, fourier_frequencies,
                       hill_curve, hill_estimator, periodogram_matrix_grid,
                       sample_acf, self_normalized_grid, stable_index)

__version__ = "0.1.0"

__all__ = [
    # emplik
    "BatchSolution", "solve_lagrange", "solve_lagrange_batch", "x_n",
    # errors
    "DegenerateSeriesError", "DomainError", "NumericalError", "TruncationWarning",
    # harness
    "DEFAULT_SEED", "SCHEMA_VERSION", "AnalysisResult", "ConfidenceInterval",
    "CoverageResult", "ExperimentConfig", "RegionScan", "TableResult",
    "analyze_series", "coverage_experiment", "coverage_summary",
    "el_confidence_region", "ingest_csv", "limit_law", "pivotal_value",
    "render_csv", "run_table", "theta_grid", "whittle_point", "write_csv",
    # limitlaw
    "LimitLawConfig", "Quantile", "compute_V_coeffs", "compute_V_coeffs_mv",
    "compute_W", "compute_W_mv", "mc_quantile", "prepare_limit",
    "sac_series_constant", "sample_limit_stat", "sample_limit_stat_simplified",
    "sample_stable_ratio", "scale_multipliers", "tail_constant",
    # processes
    "LinearProcessSpec", "StableParams", "VectorProcessSpec", "ma_polynomial_spec",
    "power_transfer_matrix", "sample_positive_stable", "sample_sas", "simulate_linear",
    "simulate_vector_linear", "spec_from_dict", "theoretical_acf", "transfer_matrix",
    "vma_table_spec",
    # scores
    "ScoreFunction", "acf_score", "coupling_var1_score", "estimating_function",
    "estimating_function_mv", "score_from_config", "var1_score",
    # spectral
    "SmoothedTransfer", "acf_sequence", "fourier_frequencies", "hill_curve",
    "hill_estimator", "periodogram_matrix_grid", "sample_acf", "self_normalized_grid",
    "stable_index",
]
