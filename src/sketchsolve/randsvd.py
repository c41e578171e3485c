"""Randomized SVD: the sketch-based factorization, its squared-Frobenius
residual, Monte-Carlo estimation of the expected residual, and the analytic
upper bound from Gaussian range-finder theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_count, orth_rowspace
from .rng import KeyPath
from .sketch import SketchSpec, apply_sketch, draw_sketch, row_factor, sketched_bases

__all__ = [
    "LowRankFactorization",
    "ErrEstimate",
    "rand_svd",
    "residual_error",
    "err_monte_carlo",
    "err_km1",
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
    trials: int  # 0 for err_km1 at k = 1, which is exact and draws nothing


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


def residual_error(A: np.ndarray, S) -> float:
    """Single-sample squared Frobenius residual ``||A (I - (SA)^+ SA)||_F^2``."""
    A = np.asarray(A, dtype=float)
    Q = orth_rowspace(apply_sketch(S, A))
    return max(float(np.sum(A * A)) - float(np.sum((A @ Q) ** 2)), 0.0)


def err_monte_carlo(A: np.ndarray, spec: SketchSpec, trials: int,
                    R: np.ndarray | None = None) -> ErrEstimate:
    """Mean and standard error of ``residual_error`` over independent sketches
    of ``spec``: a Monte-Carlo estimate of Err(A, ``spec.k``).

    Trial t's residual is ``||R||_F^2 - ||R V_t^T||_F^2`` with V_t from
    ``sketched_bases`` and R the n x n factor of A (computed unless given;
    ``||A X||_F = ||R X||_F``), exact for every family; Gaussian trials also
    draw their sketch through R.
    """
    check_count(trials, "trials", 2)
    A = np.asarray(A, dtype=float)
    if R is None:
        R = row_factor(A)
    total = float(np.sum(R * R))
    samples = np.maximum(np.concatenate([
        total - np.sum((V @ R.T) ** 2, axis=(1, 2))
        for V in sketched_bases(spec, A, trials, R)
    ]), 0.0)
    return ErrEstimate(
        mean=float(samples.mean()),
        stderr=float(samples.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


def err_km1(A: np.ndarray, k: int, seed_stream: int, trials: int,
            R: np.ndarray | None = None) -> ErrEstimate:
    """Err(A, k-1), which every rate bound for sketch size k divides by:
    :func:`err_monte_carlo` over Gaussian sketches of size k-1 on ``seed_stream``.
    Exact at k = 1 (``||A||_F^2``, standard error 0), where nothing is drawn."""
    check_count(k, "k", 1)
    if k == 1:
        A = np.asarray(A, dtype=float)
        return ErrEstimate(mean=float(np.sum(A * A)), stderr=0.0, trials=0)
    return err_monte_carlo(A, SketchSpec("gaussian", k - 1, seed_stream=seed_stream), trials, R)


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
