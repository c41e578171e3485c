"""sketchsolve: sketch-and-project linear solvers, sparse sketching
distributions, randomized SVD error estimation, and the spectral machinery
connecting the two, plus a reproducible benchmark CLI.
"""

__version__ = "0.3.0"

from .matgen import LinearSystem, SpectralProfile, gen_gaussian_unit_rows, \
    gen_spectral_matrix, gen_step_profile, make_system, parse_libsvm
from .sketch import SketchSpec, SparseSketch, apply_sketch, \
    build_less_distribution, draw_sketch, leverage_scores
from .solver import IterLog, RateReport, SolverConfig, eigencomponent_decay, \
    estimate_rate, project_step, solve
from .randsvd import ErrEstimate, LowRankFactorization, best_rank_error, err_km1, \
    err_monte_carlo, err_upper_bound, err_upper_bound_min_p, rand_svd, residual_error
from .spectral import ProjectionEstimate, RateBoundSet, decay_rate_bound, \
    expected_projection, gamma_implicit, gaussian_rate_bound, gaussian_rate_variant, \
    rate_bound_set, surrogate_vs_empirical, worst_case_rate
from .newton import ConvexObjective, NewtonTrace, full_newton, logistic_objective, \
    quadratic_objective, rho_certificate, rsn_solve, rsn_step

__all__ = [
    "__version__",
    "LinearSystem", "SpectralProfile", "gen_gaussian_unit_rows",
    "gen_spectral_matrix", "gen_step_profile", "make_system", "parse_libsvm",
    "SketchSpec", "SparseSketch", "apply_sketch",
    "build_less_distribution", "draw_sketch", "leverage_scores",
    "IterLog", "RateReport", "SolverConfig", "eigencomponent_decay",
    "estimate_rate", "project_step", "solve",
    "ErrEstimate", "LowRankFactorization", "best_rank_error", "err_km1", "err_monte_carlo",
    "err_upper_bound", "err_upper_bound_min_p", "rand_svd", "residual_error",
    "ProjectionEstimate", "RateBoundSet", "decay_rate_bound",
    "expected_projection", "gamma_implicit", "gaussian_rate_bound",
    "gaussian_rate_variant", "rate_bound_set", "surrogate_vs_empirical", "worst_case_rate",
    "ConvexObjective", "NewtonTrace", "full_newton", "logistic_objective",
    "quadratic_objective", "rho_certificate", "rsn_solve", "rsn_step",
]
