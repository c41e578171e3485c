"""Spectral analysis of the expected sketched projection matrix.

The worst-case convergence rate of a sketch-and-project solver equals the
smallest eigenvalue of E[P], P = (SA)^+ SA.  This module estimates E[P] by
Monte Carlo, evaluates the eigenvalues ``gamma s^2 / (gamma s^2 + 1)`` of the
closed-form surrogate ``gamma * Sigma (gamma * Sigma + I)^{-1}`` (Sigma = A^T A,
s its singular values), and computes the family of closed-form lower bounds
on the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_count, orth_rowspace, symmetrize
from .randsvd import err_km1
from .rng import child_seed
from .sketch import SketchSpec, apply_sketch, row_factor, sketched_bases

__all__ = [
    "ProjectionEstimate",
    "GaussianRateBound",
    "RateBoundSet",
    "SurrogateComparison",
    "expected_projection",
    "rate_bound_set",
    "worst_case_rate",
    "gamma_implicit",
    "surrogate_eigenvalues",
    "gaussian_rate_bound",
    "gaussian_rate_variant",
    "decay_rate_bound",
    "surrogate_vs_empirical",
    "projection_matrix",
]


@dataclass(frozen=True)
class ProjectionEstimate:
    """Symmetrized Monte-Carlo mean of sampled projections and its spectrum."""

    mean_P: np.ndarray
    trials: int  # read by perfbench's tracer (spectral.trials)
    eigenvalues: np.ndarray  # non-increasing, inside [-1e-8, 1 + 1e-8]


@dataclass(frozen=True)
class GaussianRateBound:
    """(1 - eps) * k * sigma_min^2 / Err(A, k-1) with the Gaussian epsilon.

    ``epsilon`` uses the natural logarithm; ``epsilon_log10`` is the same
    expression with a base-10 logarithm, reported because the two choices
    differ materially for moderate n and only the base-10 value stays below
    0.25 at (n=1000, k=50).
    """

    bound: float
    epsilon: float
    vacuous: bool
    epsilon_log10: float


@dataclass(frozen=True)
class RateBoundSet:
    """The closed-form rate lower bounds for one (A, k) cell.

    ``simple`` is k sigma_min^2 / ||A||_F^2; ``gaussian`` carries the
    explicit-epsilon bound and ``surrogate`` the Err-based expression
    k sigma_min^2 / (k sigma_min^2 + Err(A, k-1)).
    """

    simple: float
    gaussian: GaussianRateBound
    surrogate: float


def rate_bound_set(sigma: np.ndarray, k: int, err_km1: float) -> RateBoundSet:
    """Assemble the bounds from a spectrum and Err(A, k-1)."""
    sigma = np.asarray(sigma, dtype=float)
    sig_min_sq = float(sigma[-1] ** 2)
    fro_sq = float(np.sum(sigma**2))
    return RateBoundSet(
        simple=min(k * sig_min_sq / fro_sq, 1.0),
        gaussian=gaussian_rate_bound(sig_min_sq, err_km1, k, sigma.size),
        surrogate=_surrogate_rate(sig_min_sq, k, err_km1),
    )


def _surrogate_rate(sigma_min_sq: float, k: int, err_km1: float) -> float:
    """The surrogate's smallest eigenvalue ``k s^2 / (k s^2 + Err(A, k-1))``,
    s = sigma_min: ``g s^2 / (g s^2 + 1)`` at g = k / Err(A, k-1)."""
    return k * sigma_min_sq / (k * sigma_min_sq + err_km1)


@dataclass(frozen=True)
class SurrogateComparison:
    """Empirical smallest eigenvalue of mean_P vs. the surrogate bound."""

    s_min: float
    surrogate: float
    rel_gap: float


def projection_matrix(S, A: np.ndarray) -> np.ndarray:
    """Orthogonal projection (n x n) onto the row span of ``S A``."""
    Q = orth_rowspace(apply_sketch(S, A))
    return Q @ Q.T


def expected_projection(A: np.ndarray, spec: SketchSpec, trials: int,
                        R: np.ndarray | None = None) -> ProjectionEstimate:
    """Monte-Carlo mean of P = (SA)^+ SA over independent sketches.

    Trial t uses ``sketch_times(spec, A, t, R)``: Gaussian sketches are drawn
    through the factor R of A (computed unless given), which leaves the law of
    P unchanged.  Each block of ``sketched_bases`` adds ``sum_t V_t^T V_t`` in
    one product; the mean is symmetrized before its eigendecomposition.
    """
    check_count(trials, "trials", 2)
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    acc = np.zeros((n, n))
    for V in sketched_bases(spec, A, trials, R):
        W = V.reshape(-1, n)
        acc += W.T @ W
    mean_P = symmetrize(acc / trials)
    eigs = np.linalg.eigvalsh(mean_P)[::-1]
    return ProjectionEstimate(mean_P=mean_P, trials=trials, eigenvalues=eigs)


def worst_case_rate(estimate: ProjectionEstimate) -> float:
    """Smallest eigenvalue of the estimated E[P], clamped to [0, 1]."""
    return float(np.clip(estimate.eigenvalues[-1], 0.0, 1.0))


def gamma_implicit(sigma_sq: np.ndarray, k: int) -> float:
    """Solve ``sum_i g*s2_i / (g*s2_i + 1) = k`` for g by bracketed bisection.

    The left side increases from 0 to rank(Sigma), so the root exists iff
    k < rank; the bracket starts at k / tr(Sigma) and expands geometrically.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    nonzero = sigma_sq[sigma_sq > 0.0]
    rank = int(nonzero.size)
    if not 1 <= k < rank:
        raise ValueError(f"k={k} outside [1, rank) with rank={rank}")

    def f(gamma: float) -> float:
        x = gamma * nonzero
        return float(np.sum(x / (x + 1.0)))

    lo = k / float(nonzero.sum())
    hi = lo
    while f(hi) < k:
        hi *= 2.0
    if f(lo) > k:
        lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < k:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def surrogate_eigenvalues(sigma_sq: np.ndarray, gamma: float) -> np.ndarray:
    x = gamma * np.asarray(sigma_sq, dtype=float)
    return x / (x + 1.0)


def gaussian_rate_bound(sigma_min_sq: float, err_km1: float, k: int, n: int) -> GaussianRateBound:
    """Rate lower bound for Gaussian sketches with explicit epsilon.

    eps = 4k/n + 8 ln(3n)/n; the bound is reported even when eps >= 1, in
    which case it is non-positive and flagged vacuous.
    """
    check_count(k, "k", 1)
    if n < k or err_km1 <= 0.0:
        raise ValueError("need n >= k, err_km1 > 0")
    epsilon = 4.0 * k / n + 8.0 * math.log(3.0 * n) / n
    epsilon_log10 = 4.0 * k / n + 8.0 * math.log10(3.0 * n) / n
    bound = (1.0 - epsilon) * k * sigma_min_sq / err_km1
    return GaussianRateBound(
        bound=bound,
        epsilon=epsilon,
        vacuous=epsilon >= 1.0,
        epsilon_log10=epsilon_log10,
    )


def gaussian_rate_variant(sigma_min_sq: float, err_km1: float, k: int, n: int) -> float:
    """Wider-range variant ``0.05/(1+C) * k sigma_min^2 / Err(A, k-1)``.

    C = ((sqrt(k) + 2) / (sqrt(n) - sqrt(k) - 2))^2, valid for
    k < (sqrt(n) - 2)^2.
    """
    if k >= (math.sqrt(n) - 2.0) ** 2:
        raise ValueError(f"k={k} outside validity range k < (sqrt(n) - 2)^2")
    if err_km1 <= 0.0:
        raise ValueError("err_km1 must be positive")
    C = ((math.sqrt(k) + 2.0) / (math.sqrt(n) - math.sqrt(k) - 2.0)) ** 2
    return 0.05 / (1.0 + C) * k * sigma_min_sq / err_km1


def decay_rate_bound(
    kind: str,
    k: int,
    sigma: np.ndarray,
    *,
    beta: float | None = None,
    alpha: float | None = None,
    r: int | None = None,
) -> float:
    """Closed-form k-scaling rate bounds, in their C = 1 form.

    kind="general":     k   * sigma_min^2 / ||A||_F^2
    kind="polynomial":  k^beta  * sigma_min^2 / ||A||_F^2   (k <= n/2)
    kind="exponential": alpha^k * sigma_min^2 / ||A||_F^2   (k <= n/2)
    kind="flat_tail":   k / n       (k >= 2r; tail index r)

    Values are clamped to [0, 1].
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    check_count(k, "k", 1)
    sig_min_sq = float(sigma[-1] ** 2)
    fro_sq = float(np.sum(sigma**2))
    if kind == "general":
        val = k * sig_min_sq / fro_sq
    elif kind == "polynomial":
        if beta is None or beta <= 1.0:
            raise ValueError("polynomial kind needs beta > 1")
        if k > n // 2:
            raise ValueError(f"k={k} outside validity range k <= n/2")
        val = k**beta * sig_min_sq / fro_sq
    elif kind == "exponential":
        if alpha is None or alpha <= 1.0:
            raise ValueError("exponential kind needs alpha > 1")
        if k > n // 2:
            raise ValueError(f"k={k} outside validity range k <= n/2")
        val = alpha**k * sig_min_sq / fro_sq
    elif kind == "flat_tail":
        if r is None or not 1 <= r <= n:
            raise ValueError("flat_tail kind needs a tail index r in [1, n]")
        if k < 2 * r:
            raise ValueError(f"k={k} below validity range 2r")
        val = k / n
    else:
        raise ValueError(f"unknown decay kind {kind!r}")
    return float(np.clip(val, 0.0, 1.0))


def surrogate_vs_empirical(
    A: np.ndarray,
    spec: SketchSpec,
    trials: int,
    err_trials: int = 50,
    R: np.ndarray | None = None,
) -> SurrogateComparison:
    """Compare lambda_min of the Monte-Carlo mean projection with the
    surrogate bound ``k s_min^2 / (k s_min^2 + Err(A, k-1))``, k = ``spec.k``.

    Err(A, k-1) is estimated from Gaussian sketches of size k-1 on a seed
    stream derived from (but independent of) the projection stream.  A is
    factored once (``R``, computed here unless given); sigma_min comes from R.
    """
    A = np.asarray(A, dtype=float)
    k = spec.k
    if R is None:
        R = row_factor(A)
    est = expected_projection(A, spec, trials, R)
    s_min = worst_case_rate(est)
    sigma_min_sq = float(np.linalg.svd(R, compute_uv=False)[-1] ** 2)
    err = err_km1(A, k, child_seed(spec.seed_stream, 1), err_trials, R)
    surrogate = _surrogate_rate(sigma_min_sq, k, err.mean)
    rel_gap = abs(s_min - surrogate) / s_min if s_min > 0 else float("inf")
    return SurrogateComparison(
        s_min=s_min,
        surrogate=surrogate,
        rel_gap=rel_gap,
    )
