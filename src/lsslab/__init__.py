"""lsslab: deterministic CLT ingredients and Monte-Carlo verification for
linear spectral statistics of large sample covariance matrices."""

__version__ = "0.1.0"

from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval
from .stieltjes import StieltjesSolution, lsd_density, lss_centering, solve_s_under
from .contour import Contour, build_contour
from .clt_moments import (CltMoments, CompanionTransform, compute_moments, mean_correction,
                          normalize, variance_with_kernel)
from .simulator import (ExperimentRecord, assemble_B, eigenvalues, lss_centered,
                        replicate_eigenvalues, replicate_statistic, run_experiment,
                        sample_entries, truncated_law)
from .diagnostics import (RateFit, SteinContext, fit_rate, ks_to_normal,
                          qform_probe, sigma0_nested_mc, stein_Nh, stein_h,
                          stein_solution)

__all__ = [
    "EntryEnsemble", "PopulationSpectrum", "TestFunction",
    "support_interval", "StieltjesSolution", "lsd_density",
    "lss_centering", "solve_s_under", "Contour", "build_contour", "CltMoments",
    "CompanionTransform", "compute_moments", "mean_correction", "normalize",
    "variance_with_kernel", "ExperimentRecord", "assemble_B",
    "eigenvalues", "lss_centered", "replicate_eigenvalues", "replicate_statistic",
    "run_experiment", "sample_entries", "truncated_law", "RateFit",
    "SteinContext", "fit_rate", "ks_to_normal",
    "qform_probe", "sigma0_nested_mc", "stein_Nh", "stein_h", "stein_solution",
    "__version__",
]
