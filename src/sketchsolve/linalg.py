"""Shared dense linear-algebra helpers: rank cutoffs, the triangular factor
of a matrix, orthonormal bases, guarded symmetric solves, and PSD matrix
functions.

All routines operate on float64 numpy arrays and are deterministic.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

EPS = np.finfo(np.float64).eps
#: singular values below ``max(m, n) * sigma_max * RANK_RTOL`` count as zero
RANK_RTOL = 1e-12
#: ``np.linalg.solve``'s LAPACK gesv gufunc for a (k, k) W and a (k,) vector,
#: without the wrapper: only for a W that :func:`_certified` accepts, which is
#: not singular, so the wrapper's ``LinAlgError`` translation has nothing to do.
_lu_solve = _umath_linalg.solve1


def check_count(value, name: str, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def rank_cutoff(singular_values: np.ndarray, rows: int, cols: int):
    """Absolute threshold below which singular values are treated as zero
    (one per spectrum, shaped to broadcast, for a stack of spectra)."""
    return max(rows, cols) * EPS * singular_values[..., :1]


def numerical_rank(singular_values: np.ndarray, rows: int, cols: int) -> int:
    """Rank of a rows x cols matrix with these singular values (descending):
    the count above ``max(rows, cols) * sigma_max * RANK_RTOL``."""
    s = singular_values
    return int(np.sum(s > max(rows, cols) * float(s[0]) * RANK_RTOL)) if s.size else 0


def row_factor(A: np.ndarray) -> np.ndarray:
    """Triangular factor R of ``A = Q R`` (Q with orthonormal columns), so that
    ``R^T R = A^T A`` and ``||A X||_F = ||R X||_F`` for every X."""
    return np.linalg.qr(np.asarray(A, dtype=float), mode="r")


def orth_rowspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of ``M``.

    Returns an (n, r) array with orthonormal columns, r = numerical rank of M.
    """
    M = np.asarray(M, dtype=float)
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > rank_cutoff(s, *M.shape)))
    return Vt[:r].T


def solve_psd(W: np.ndarray, rhs: np.ndarray, n_ambient: int):
    """Solve ``W z = rhs`` for symmetric PSD ``W`` (k x k) and ``rhs`` (k,)
    with a guarded Cholesky; a certified W is solved by :data:`_lu_solve`.

    Falls back to an SVD pseudoinverse (:func:`_pinv_solve`) when the smallest
    Cholesky pivot drops below ``k * eps * ||W||_F`` or the factorization
    fails outright.  The pseudoinverse cutoff is ``max(k, n_ambient) * eps``
    relative to the largest singular value.

    Returns ``(z, fallback)`` where ``fallback`` is True when the
    pseudoinverse path was taken.
    """
    W = np.asarray(W, dtype=float)
    if W.shape[0] == 0:
        return np.zeros_like(rhs), False
    if _certified(W):
        return _lu_solve(W, rhs), False
    return _pinv_solve(W, rhs, n_ambient), True


def _pinv_solve(W: np.ndarray, rhs: np.ndarray, n_ambient: int) -> np.ndarray:
    """:func:`solve_psd`'s fallback for a k x k W that :func:`_certified`
    rejects: the pseudoinverse with cutoff ``max(k, n_ambient) * eps``."""
    return np.linalg.pinv(W, rcond=max(W.shape[0], n_ambient) * EPS, hermitian=True) @ rhs


def _certified(W: np.ndarray):
    """:func:`solve_psd`'s guard, for one k x k W or each of a stack.  The
    Cholesky gufunc of ``np.linalg.cholesky``, called directly, gives a W that
    is not positive definite a NaN factor, whose pivot fails for that W alone."""
    with np.errstate(all="ignore"):  # np.linalg.cholesky's, but invalid does not raise
        L = _umath_linalg.cholesky_lo(W, signature="d->d")
    pivot = np.diagonal(L, axis1=-2, axis2=-1).min(axis=-1)
    Wf = W.reshape(W.shape[:-2] + (1, -1))  # ||W||_F from one dot product
    return pivot**2 >= W.shape[-1] * EPS * np.sqrt(Wf @ np.swapaxes(Wf, -1, -2))[..., 0, 0]


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def positive_mask(w: np.ndarray) -> np.ndarray:
    """Which of the ascending eigenvalues ``w`` of a symmetric PSD matrix count
    as positive: those above ``dim * eps * max(lambda_max, 0)``."""
    return w > w.size * EPS * max(float(w[-1]), 0.0)


def lambda_min_plus(w: np.ndarray) -> float:
    """Smallest positive eigenvalue (:func:`positive_mask`) of a symmetric PSD
    matrix, given its eigenvalues ``w`` in ascending order."""
    positive = w[positive_mask(w)]
    if positive.size == 0:
        raise ValueError("matrix has no positive eigenvalues above cutoff")
    return float(positive[0])


def check_spd(B: np.ndarray) -> None:
    """Validate a metric's symmetry and positive definiteness (all Cholesky
    pivots > 0)."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"metric must be square, got shape {B.shape}")
    if not np.allclose(B, B.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(B).max()))):
        raise ValueError("metric must be symmetric")
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric is not positive definite") from exc
