"""Randomized SVD: the sketch-based factorization, its squared-Frobenius
residual, Monte-Carlo estimation of the expected residual, and the analytic
upper bound from Gaussian range-finder theory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import orth_rowspace
from .rng import KeyPath
from .sketch import SketchSpec, apply_sketch, draw_sketch, row_factor, sketch_times

__all__ = [
    "LowRankFactorization",
    "ErrEstimate",
    "rand_svd",
    "residual_error",
    "err_monte_carlo",
    "err_upper_bound",
    "err_upper_bound_min_p",
    "best_rank_error",
]


@dataclass(frozen=True)
class LowRankFactorization:
    """A ~= U diag(sigma) V^T with orthonormal U, V and r <= sketch size."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


@dataclass(frozen=True)
class ErrEstimate:
    """Monte-Carlo estimate of the expected squared projection residual."""

    mean: float
    stderr: float
    trials: int


def rand_svd(A: np.ndarray, spec: SketchSpec, trial: KeyPath = 0) -> LowRankFactorization:
    """Two-stage randomized SVD through the row span of a sketch.

    Draws S, takes Q = orthonormal basis of rowspan(S A), factors the small
    matrix A Q = U diag(sigma) W^T and returns V = Q W, so that
    ``||A - U diag(sigma) V^T||_F^2 = ||A (I - Q Q^T)||_F^2``.
    """
    A = np.asarray(A, dtype=float)
    if spec.k > A.shape[1]:
        raise ValueError(f"sketch size k={spec.k} exceeds column count {A.shape[1]}")
    S = draw_sketch(spec, A.shape[0], trial)
    Q = orth_rowspace(apply_sketch(S, A))
    if Q.shape[1] == 0:
        raise ValueError("degenerate sketch: S A has rank 0")
    U, sigma, Wt = np.linalg.svd(A @ Q, full_matrices=False)
    return LowRankFactorization(U=U, sigma=sigma, V=Q @ Wt.T)


def _residual(F: np.ndarray, SA: np.ndarray) -> float:
    """``||F (I - Q Q^T)||_F^2`` for Q a basis of rowspan(SA); any F with
    ``F^T F = A^T A`` (A itself or its :func:`row_factor`) gives the same value."""
    Q = orth_rowspace(SA)
    total = float(np.sum(F * F))
    if Q.shape[1] == 0:
        return total
    captured = float(np.sum((F @ Q) ** 2))
    return max(total - captured, 0.0)


def residual_error(A: np.ndarray, S) -> float:
    """Single-sample squared Frobenius residual ``||A (I - (SA)^+ SA)||_F^2``."""
    A = np.asarray(A, dtype=float)
    return _residual(A, apply_sketch(S, A))


def err_monte_carlo(A: np.ndarray, k: int, spec: SketchSpec, trials: int) -> ErrEstimate:
    """Mean and standard error of ``residual_error`` over independent sketches.

    ``k = 0`` is exact: the projection is empty so the residual is always
    ``||A||_F^2`` and the standard error is 0.  Each trial's residual is taken
    on the n x n factor R of A (``||A X||_F = ||R X||_F``), which is exact for
    every family; Gaussian trials also draw their sketch through R
    (:func:`~sketchsolve.sketch.sketch_times`).
    """
    A = np.asarray(A, dtype=float)
    if k == 0:
        return ErrEstimate(mean=float(np.sum(A * A)), stderr=0.0, trials=0)
    if trials < 2:
        raise ValueError("trials must be >= 2")
    spec_k = replace(spec, k=k)
    R = row_factor(A)
    samples = np.array([
        _residual(R, sketch_times(spec_k, A, t, R)) for t in range(trials)
    ])
    return ErrEstimate(
        mean=float(samples.mean()),
        stderr=float(samples.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


def best_rank_error(sigma: np.ndarray, k: int) -> float:
    """Squared Frobenius error of the best rank-k approximation: sum_{i>k} sigma_i^2."""
    sigma = np.asarray(sigma, dtype=float)
    if not 0 <= k <= sigma.size:
        raise ValueError(f"k={k} outside [0, {sigma.size}]")
    return float(np.sum(sigma[k:] ** 2))


def err_upper_bound(sigma: np.ndarray, k: int, p: int) -> float:
    """Gaussian range-finder bound ``(k-1)/(p-1) * sum_{i >= k-p} sigma_i^2``.

    Valid for 2 <= p <= k - 2 (indices are 1-based as in the spectrum).
    """
    sigma = np.asarray(sigma, dtype=float)
    if not 2 <= p <= k - 2:
        raise ValueError(f"p={p} outside [2, {k - 2}]")
    tail = float(np.sum(sigma[k - p - 1:] ** 2))
    return (k - 1) / (p - 1) * tail


def err_upper_bound_min_p(sigma: np.ndarray, k: int) -> tuple[float, int]:
    """Minimize :func:`err_upper_bound` over admissible p; returns (bound, p)."""
    if k < 4:
        raise ValueError("need k >= 4 for a non-empty p range")
    best = (np.inf, 2)
    for p in range(2, k - 1):
        val = err_upper_bound(sigma, k, p)
        if val < best[0]:
            best = (val, p)
    return best
