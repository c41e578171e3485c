"""Shared dense linear-algebra helpers: rank cutoffs, orthonormal bases,
guarded symmetric solves, and PSD matrix functions.

All routines operate on float64 numpy arrays and are deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = np.finfo(np.float64).eps


def rank_cutoff(singular_values: np.ndarray, rows: int, cols: int):
    """Absolute threshold below which singular values are treated as zero
    (one per spectrum, shaped to broadcast, for a stack of spectra)."""
    return max(rows, cols) * EPS * singular_values[..., :1]


def orth_rowspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of ``M``.

    Returns an (n, r) array with orthonormal columns, r = numerical rank of M.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0 or not np.any(M):
        return np.zeros((M.shape[1], 0))
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > rank_cutoff(s, *M.shape)))
    return Vt[:r].T


def solve_psd(W: np.ndarray, rhs: np.ndarray, n_ambient: int | None = None):
    """Solve ``W z = rhs`` for symmetric PSD ``W`` with a guarded Cholesky.

    Falls back to an SVD pseudoinverse when the smallest Cholesky pivot drops
    below ``k * eps * ||W||_F`` or the factorization fails outright.  The
    pseudoinverse cutoff is ``max(k, n_ambient) * eps`` relative to the
    largest singular value.

    Returns ``(z, fallback)`` where ``fallback`` is True when the
    pseudoinverse path was taken.
    """
    W = np.asarray(W, dtype=float)
    k = W.shape[0]
    if n_ambient is None:
        n_ambient = k
    if k == 0:
        return np.zeros_like(rhs), False
    norm_w = float(np.linalg.norm(W))
    try:
        c, low = scipy.linalg.cho_factor(W, check_finite=False)
        min_pivot = float(np.min(np.diag(c))) ** 2
        if min_pivot >= k * EPS * norm_w:
            return scipy.linalg.cho_solve((c, low), rhs, check_finite=False), False
    except scipy.linalg.LinAlgError:
        pass
    z = np.linalg.pinv(W, rcond=max(k, n_ambient) * EPS, hermitian=True) @ rhs
    return z, True


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def lambda_min_plus(M: np.ndarray) -> float:
    """Smallest positive eigenvalue of a symmetric PSD matrix.

    Eigenvalues below ``dim * eps * lambda_max`` count as zero.
    """
    w = np.linalg.eigvalsh(symmetrize(M))
    cutoff = M.shape[0] * EPS * max(float(w[-1]), 0.0)
    positive = w[w > cutoff]
    if positive.size == 0:
        raise ValueError("matrix has no positive eigenvalues above cutoff")
    return float(positive[0])


def check_spd(B: np.ndarray, name: str = "metric") -> None:
    """Validate symmetry and positive definiteness (all Cholesky pivots > 0)."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"{name} must be square, got shape {B.shape}")
    if not np.allclose(B, B.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(B).max()))):
        raise ValueError(f"{name} must be symmetric")
    try:
        scipy.linalg.cholesky(B, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc
