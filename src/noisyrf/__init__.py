"""Numerical lab for noisy random-feature regression.

Builds kernel spectra, samples random features through them, injects feature
noise, fits minimum-norm interpolators, decomposes test risk into bias,
variance, and approximation error, and evaluates the matching non-asymptotic
bounds and their concentration ingredients.
"""

from .bounds import (BoundInputs, BoundReport, CurvePoint, bound_report,
                     clean_mnls_bounds, cov_concentration_bound,
                     double_descent_curve, k_star, regime_classify,
                     variance_bound)
from .conclab import (ExperimentReport, cross_outer_norm_check,
                      gram_eigen_experiment, mgf_product_check,
                      noisy_spectrum_identity_check, norm_concentration_check,
                      weighted_subexp_sum_check)
from .config import (ExperimentConfig, PRESETS, ValidationError, parse_config,
                     preset_config)
from .estimator import ProjectorDiag, projector_diag, ridge_fit, svd_factors
from .features import (FeatureEnsemble, NoiseSpec, build_ensemble, make_noise_spec,
                       noise_matrix, sample_weights)
from .risk import RiskDecomposition, TargetFunction, decompose, make_target
from .seeding import seed_sequence, seed_stream
from .spectral import (Spectrum, eigenfeature_matrix, empirical_covariance,
                       fourier_basis, make_spectrum, sample_covariates,
                       suggest_truncation, trace_and_rank)
from .sweep import (SweepRecord, SweepResult, SweepSummary, aggregate,
                    compute_row, emit_outputs, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs", "BoundReport", "CurvePoint", "bound_report", "clean_mnls_bounds",
    "cov_concentration_bound", "double_descent_curve", "k_star", "regime_classify",
    "variance_bound",
    "ExperimentReport", "cross_outer_norm_check", "gram_eigen_experiment",
    "mgf_product_check", "noisy_spectrum_identity_check",
    "norm_concentration_check", "weighted_subexp_sum_check",
    "ExperimentConfig", "PRESETS", "ValidationError", "parse_config",
    "preset_config",
    "ProjectorDiag", "projector_diag", "ridge_fit", "svd_factors",
    "FeatureEnsemble", "NoiseSpec", "build_ensemble", "make_noise_spec",
    "noise_matrix", "sample_weights",
    "RiskDecomposition", "TargetFunction", "decompose", "make_target",
    "seed_sequence", "seed_stream",
    "Spectrum", "eigenfeature_matrix", "empirical_covariance", "fourier_basis",
    "make_spectrum", "sample_covariates", "suggest_truncation", "trace_and_rank",
    "SweepRecord", "SweepResult", "SweepSummary", "aggregate", "compute_row",
    "emit_outputs", "run_sweep",
    "__version__",
]
