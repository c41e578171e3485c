"""Sketching distributions: dense Gaussian/Rademacher, sparse leverage-score
sketches and row sampling, plus leverage scores.

Sparse families store one row as its ``s`` drawn (index, value) terms, in
draw order and unmerged (:class:`SparseSketch`); the per-row formula is

    s_i = (1/sqrt(k)) * sum_j r_{i,j} / sqrt(s * p_{t_j}) * e_{t_j}

with standard normal ``r`` and indices ``t`` i.i.d. from ``p``.  An index
drawn twice contributes two terms, which the apply sums.  Dense
families keep unit-variance entries; since the projection onto the row span
of ``S A`` is invariant to row scaling, the differing normalizations do not
affect solver behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import EPS, numerical_rank, rank_cutoff, row_factor
from .rng import KeyPath, stream, streams

__all__ = [
    "SketchSpec",
    "SparseSketch",
    "FAMILIES",
    "leverage_scores",
    "build_less_distribution",
    "draw_sketch",
    "row_factor",
    "sketch_times",
    "sketched_bases",
    "apply_sketch",
    "apply_sketch_t",
    "densify",
]

FAMILIES = ("gaussian", "rademacher", "less", "less_uniform", "row_sampling")
#: trials per stacked QR in :func:`sketched_bases`; bounds a block's memory
TRIAL_BLOCK = 16
#: factor by which a trial's QR must clear the rank cutoff to skip the SVD
_QR_MARGIN = 1e3


@dataclass(eq=False)
class SketchSpec:
    """Description of a sketching distribution.

    ``s`` (non-zeros per row) only applies to the sparse families; it is
    forced to 1 for ``row_sampling`` and ignored for the dense ones.
    ``sampling`` is the index distribution p over the m rows; required for
    ``less``, optional for ``row_sampling`` (uniform default), and forced
    uniform for ``less_uniform``.
    """

    family: str
    k: int
    s: int | None = None
    sampling: np.ndarray | None = None
    seed_stream: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown sketch family {self.family!r}")
        for name in ("k", "s"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, np.integer))):
                raise ValueError(f"sketch {name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError("sketch size k must be >= 1")
        if self.sampling is not None:
            self.sampling = np.asarray(self.sampling, dtype=float)

    def validate(self, m: int) -> None:
        if self.k > m:
            raise ValueError(f"sketch size k={self.k} exceeds ambient dimension m={m}")
        if self.family in ("less", "less_uniform"):
            if self.s is None:
                raise ValueError(f"family {self.family!r} needs s (non-zeros per row)")
            if not 1 <= self.s <= m:
                raise ValueError(f"s={self.s} outside [1, {m}]")
        if self.family == "less" and self.sampling is None:
            raise ValueError("family 'less' needs a sampling distribution")
        if self.sampling is not None:
            p = self.sampling
            if p.shape != (m,):
                raise ValueError(f"sampling vector has length {p.shape}, expected {m}")
            if self._cdf is None:
                raise ValueError("sampling must be non-negative and sum to 1")

    @cached_property
    def _cdf(self) -> np.ndarray | None:
        """CDF of ``sampling`` (last entry exactly 1), checked and built once
        per spec; None when ``sampling`` is not a probability vector."""
        p = self.sampling
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
            return None
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        return cdf

    def with_seed(self, seed_stream: int) -> "SketchSpec":
        return replace(self, seed_stream=seed_stream)


@dataclass
class SparseSketch:
    """k x m sparse sketching matrix stored as its drawn terms.

    Row i is ``sum_j values[i, j] * e_{indices[i, j]}``: ``indices`` and
    ``values`` are (k, s) arrays, and an index drawn twice in one row stays
    two terms, which every operation sums.
    """

    indices: np.ndarray
    values: np.ndarray
    m: int

    @property
    def k(self) -> int:
        return self.indices.shape[0]

    # s_drawn and nnz are read by perfbench's tracer
    @property
    def s_drawn(self) -> int:
        return self.indices.shape[1]

    @property
    def nnz(self) -> int:
        """Stored terms, k * s (duplicates counted)."""
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k, self.m)

    def to_dense(self) -> np.ndarray:
        S = np.zeros((self.k, self.m))
        np.add.at(S, (np.arange(self.k)[:, None], self.indices), self.values)
        return S


def leverage_scores(A: np.ndarray, R: np.ndarray | None = None) -> np.ndarray:
    """Leverage scores l_i = ||row i of A R^{-1}||^2 = a_i^T (A^T A)^{-1} a_i.

    ``R`` is the triangular factor of ``A = Q R`` (:func:`row_factor`, computed
    unless given), so A R^{-1} = Q and l_i is the squared norm of row i of Q.
    A wide A of full row rank has an m x m orthogonal Q, so every score is 1.
    Raises if rank(A) < min(m, n).
    """
    A = np.asarray(A, dtype=float)
    R = row_factor(A) if R is None else R
    m, n = A.shape
    sigma = np.linalg.svd(R, compute_uv=False)
    if sigma.size == 0 or numerical_rank(sigma, m, n) < min(m, n):
        raise ValueError("rank-deficient input: leverage scores undefined")
    if m < n:
        return np.ones(m)
    return np.sum((A @ np.linalg.inv(R)) ** 2, axis=1)


def build_less_distribution(A: np.ndarray, R: np.ndarray | None = None) -> np.ndarray:
    """Exact leverage-score sampling distribution p_i = l_i / n, the
    probability vector over the rows of A (``R`` as in :func:`leverage_scores`)."""
    scores = leverage_scores(A, R)
    return scores / scores.sum()


def _draw_sparse(spec: SketchSpec, m: int, rng: np.random.Generator) -> SparseSketch:
    k = spec.k
    s = 1 if spec.family == "row_sampling" else int(spec.s)
    p = None if spec.family == "less_uniform" else spec.sampling
    if p is None:
        idx = rng.integers(0, m, size=(k, s))
    else:
        idx = np.searchsorted(spec._cdf, rng.random((k, s)), side="right")
    p_drawn = 1.0 / m if p is None else p[idx]
    r = rng.standard_normal((k, s))
    return SparseSketch(indices=idx, values=r / np.sqrt(k * s * p_drawn), m=m)


def _generator(spec: SketchSpec, trial) -> np.random.Generator:
    return trial if isinstance(trial, np.random.Generator) else stream(spec.seed_stream, trial)


def draw_sketch(spec: SketchSpec, m: int, trial: KeyPath | np.random.Generator = 0):
    """Draw one sketching matrix; a pure function of (spec, m, trial).

    Dense families return a (k, m) ndarray, sparse families a
    :class:`SparseSketch`.  ``trial`` may be an int or a tuple of ints
    addressing nested streams (e.g. ``(run, iteration)``), or a Generator
    already seated on that trial's stream (as :func:`rng.streams` yields).
    """
    spec.validate(m)
    rng = _generator(spec, trial)
    if spec.family == "gaussian":
        return rng.standard_normal((spec.k, m))
    if spec.family == "rademacher":
        return rng.integers(0, 2, size=(spec.k, m)).astype(float) * 2.0 - 1.0
    return _draw_sparse(spec, m, rng)


def densify(S) -> np.ndarray:
    return S.to_dense() if isinstance(S, SparseSketch) else np.asarray(S, dtype=float)


def apply_sketch(S, A: np.ndarray) -> np.ndarray:
    """Compute ``S A`` for a vector or matrix A; the sparse path is one
    (1 x s) @ (s x cols) product per sketch row over the rows of A it draws."""
    A = np.asarray(A, dtype=float)
    if isinstance(S, SparseSketch):
        if S.m != A.shape[0]:
            raise ValueError(f"sketch columns {S.m} != matrix rows {A.shape[0]}")
        if A.ndim == 1:
            return np.add.reduce(S.values * A[S.indices], axis=1)
        return np.matmul(S.values[:, None, :], A[S.indices])[:, 0]
    S = np.asarray(S, dtype=float)
    if S.shape[1] != A.shape[0]:
        raise ValueError(f"sketch columns {S.shape[1]} != matrix rows {A.shape[0]}")
    return S @ A


def apply_sketch_t(S, Y: np.ndarray) -> np.ndarray:
    """Compute ``S^T Y`` (scatter-add on the sparse path)."""
    Y = np.asarray(Y, dtype=float)
    if isinstance(S, SparseSketch):
        if Y.shape[0] != S.k:
            raise ValueError(f"input rows {Y.shape[0]} != sketch size {S.k}")
        out = np.zeros((S.m,) + Y.shape[1:])
        vals = S.values.reshape(S.values.shape + (1,) * (Y.ndim - 1))
        np.add.at(out, S.indices, vals * Y[:, None])
        return out
    return np.asarray(S, dtype=float).T @ Y


def sketch_times(spec: SketchSpec, A: np.ndarray, trial: KeyPath | np.random.Generator = 0,
                 R: np.ndarray | None = None) -> np.ndarray:
    """``S A`` for a fresh sketch of ``spec``; a pure function of (spec, A, trial).

    Gaussian sketches use rotational invariance: with ``A = Q R``, ``S Q`` is
    again a standard Gaussian matrix, so ``S A`` has the law of ``G R`` with
    G a k x rows(R) Gaussian drawn from the trial's stream.  That draws k n
    numbers instead of k m.  ``R`` defaults to :func:`row_factor` of A; pass
    it to share one factorization across trials.  Every other family returns
    ``apply_sketch(draw_sketch(spec, m, trial), A)``; ``trial`` is as there.
    """
    A = np.asarray(A, dtype=float)
    if spec.family != "gaussian":
        return apply_sketch(draw_sketch(spec, A.shape[0], trial), A)
    spec.validate(A.shape[0])
    R = row_factor(A) if R is None else R
    return _generator(spec, trial).standard_normal((spec.k, R.shape[0])) @ R


def _row_bases(SA: np.ndarray) -> np.ndarray:
    """Row-space bases of a (b, k, n) stack: ``Q_t^T`` from the QR ``SA_t^T = Q_t
    T_t`` where ``min|diag T_t|`` and ``1/||T_t^-1||_F <= sigma_min`` clear
    :data:`_QR_MARGIN` times ``n eps ||T_t||_F >=`` the ``orth_rowspace`` cutoff;
    other trials (all when k > n) take the SVD with that cutoff, rows past rank zero."""
    b, k, n = SA.shape
    V, flagged = np.empty((b, n, n)), np.ones(b, dtype=bool)
    if k <= n:
        Q, T = np.linalg.qr(SA.transpose(0, 2, 1))
        V = Q.transpose(0, 2, 1)
        bar = _QR_MARGIN * n * EPS * np.linalg.norm(T, axis=(1, 2))
        flagged = ~(np.abs(np.diagonal(T, axis1=1, axis2=2)).min(axis=1) > bar)
        ok = np.flatnonzero(~flagged)  # nonzero diagonal: T is invertible
        flagged[ok] = ~(1.0 / np.linalg.norm(np.linalg.inv(T[ok]), axis=(1, 2)) > bar[ok])
    if flagged.any():
        _, s, Vt = np.linalg.svd(SA[flagged], full_matrices=False)
        V[flagged] = Vt * (s > rank_cutoff(s, k, n))[..., None]
    return V


def sketched_bases(spec: SketchSpec, A: np.ndarray, trials: int,
                   R: np.ndarray | None = None):
    """Row-space bases of ``S_t A = sketch_times(spec, A, t, R)``, t < trials,
    as ``(b, min(k, n), n)`` blocks of b <= :data:`TRIAL_BLOCK` trials, from one
    stacked QR with an SVD for the trials it cannot certify (:func:`_row_bases`).
    Rows past a trial's rank (the ``orth_rowspace`` cutoff) are zero, so
    ``V[t].T @ V[t]`` projects onto rowspan(S_t A)."""
    A = np.asarray(A, dtype=float)
    if spec.family == "gaussian" and R is None:
        R = row_factor(A)
    return map(_row_bases, _sketch_blocks(spec, A, (), trials, R, TRIAL_BLOCK))


def _sketch_blocks(spec: SketchSpec, A: np.ndarray, prefix: KeyPath, count: int,
                   R: np.ndarray | None, size: int):
    """Yield ``(b, k, cols)`` blocks of b <= ``size`` products
    ``sketch_times(spec, A, (*prefix, t), R)``, t < ``count``, each block
    filled in place (stacking a list of them raised peak RSS).  The streams
    are seated in batches (:func:`rng.streams`) as the blocks are taken."""
    rngs = streams(spec.seed_stream, prefix, count)
    for lo in range(0, count, size):
        out = np.empty((min(size, count - lo), spec.k, A.shape[1]))
        for i in range(len(out)):
            out[i] = sketch_times(spec, A, next(rngs), R)
        yield out
