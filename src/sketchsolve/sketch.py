"""Sketching distributions: dense Gaussian/Rademacher, sparse leverage-score
sketches, row sampling, plus leverage scores and randomized Hadamard
preconditioning.

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

import numpy as np

from .linalg import rank_cutoff
from .matgen import LinearSystem
from .rng import KeyPath, stream

__all__ = [
    "SketchSpec",
    "SparseSketch",
    "LeverageDistribution",
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
    "hadamard_precondition",
    "fwht",
]

FAMILIES = ("gaussian", "rademacher", "less", "less_uniform", "row_sampling")
_DENSE = ("gaussian", "rademacher")
#: trials per stacked SVD in :func:`sketched_bases`; bounds a block's memory
TRIAL_BLOCK = 16


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
            if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValueError("sampling must be non-negative and sum to 1")

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


@dataclass(frozen=True)
class LeverageDistribution:
    """Row leverage scores and the sampling probabilities derived from them."""

    scores: np.ndarray
    probabilities: np.ndarray


def leverage_scores(A: np.ndarray) -> np.ndarray:
    """Leverage scores l_i = ||row i of Q||^2 for Q an orthonormal column basis.

    Numerically equivalent to a_i^T (A^T A)^{-1} a_i for full-column-rank A.
    Raises if A is rank deficient.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    U, svals, _ = np.linalg.svd(A, full_matrices=False)
    from .matgen import RANK_RTOL

    if svals.size == 0 or svals[-1] <= max(m, n) * svals[0] * RANK_RTOL:
        raise ValueError("rank-deficient input: leverage scores undefined")
    return np.sum(U * U, axis=1)


def build_less_distribution(A: np.ndarray) -> LeverageDistribution:
    """Exact leverage-score sampling distribution p_i = l_i / n."""
    scores = leverage_scores(A)
    p = scores / scores.sum()
    return LeverageDistribution(scores=scores, probabilities=p)


def _draw_sparse(spec: SketchSpec, m: int, rng: np.random.Generator) -> SparseSketch:
    k = spec.k
    if spec.family == "row_sampling":
        s = 1
        p = spec.sampling
    elif spec.family == "less_uniform":
        s = int(spec.s)
        p = None
    else:  # less
        s = int(spec.s)
        p = spec.sampling
    if p is None:
        idx = rng.integers(0, m, size=(k, s))
    else:
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, rng.random((k, s)), side="right")
    r = rng.standard_normal((k, s))
    p_eff = np.full(m, 1.0 / m) if p is None else p
    return SparseSketch(indices=idx, values=r / np.sqrt(k * s * p_eff[idx]), m=m)


def draw_sketch(spec: SketchSpec, m: int, trial: KeyPath = 0):
    """Draw one sketching matrix; a pure function of (spec, m, trial).

    Dense families return a (k, m) ndarray, sparse families a
    :class:`SparseSketch`.  ``trial`` may be an int or a tuple of ints
    addressing nested streams (e.g. ``(run, iteration)``).
    """
    spec.validate(m)
    rng = stream(spec.seed_stream, trial)
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


def row_factor(A: np.ndarray) -> np.ndarray:
    """Triangular factor R of ``A = Q R`` (Q with orthonormal columns), so that
    ``R^T R = A^T A`` and ``||A X||_F = ||R X||_F`` for every X."""
    return np.linalg.qr(np.asarray(A, dtype=float), mode="r")


def sketch_times(spec: SketchSpec, A: np.ndarray, trial: KeyPath = 0,
                 R: np.ndarray | None = None) -> np.ndarray:
    """``S A`` for a fresh sketch of ``spec``; a pure function of (spec, A, trial).

    Gaussian sketches use rotational invariance: with ``A = Q R``, ``S Q`` is
    again a standard Gaussian matrix, so ``S A`` has the law of ``G R`` with
    G a k x rows(R) Gaussian drawn from the trial's stream.  That draws k n
    numbers instead of k m.  ``R`` defaults to :func:`row_factor` of A; pass
    it to share one factorization across trials.  Every other family returns
    ``apply_sketch(draw_sketch(spec, m, trial), A)``.
    """
    A = np.asarray(A, dtype=float)
    if spec.family != "gaussian":
        return apply_sketch(draw_sketch(spec, A.shape[0], trial), A)
    spec.validate(A.shape[0])
    if R is None:
        R = row_factor(A)
    return stream(spec.seed_stream, trial).standard_normal((spec.k, R.shape[0])) @ R


def sketched_bases(spec: SketchSpec, A: np.ndarray, trials: int,
                   R: np.ndarray | None = None):
    """Row-space bases of ``S_t A = sketch_times(spec, A, t, R)``, t < trials,
    as ``(b, min(k, n), n)`` blocks of b <= :data:`TRIAL_BLOCK` trials from one
    stacked SVD.  Rows past a trial's rank (the ``orth_rowspace`` cutoff) are
    zero, so ``V[t].T @ V[t]`` projects onto rowspan(S_t A)."""
    A = np.asarray(A, dtype=float)
    if R is None and spec.family == "gaussian":
        R = row_factor(A)
    for lo in range(0, trials, TRIAL_BLOCK):
        SA = np.stack([sketch_times(spec, A, t, R)
                       for t in range(lo, min(lo + TRIAL_BLOCK, trials))])
        _, s, Vt = np.linalg.svd(SA, full_matrices=False)
        yield Vt * (s > rank_cutoff(s, *SA.shape[1:]))[..., None]


def fwht(X: np.ndarray) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform along axis 0.

    The leading dimension must be a power of two; scaled by 1/sqrt(n) so the
    transform is orthogonal.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n & (n - 1):
        raise ValueError(f"leading dimension {n} is not a power of two")
    squeeze = X.ndim == 1
    out = X.reshape(n, -1).copy()
    h = 1
    while h < n:
        blocks = out.reshape(n // (2 * h), 2, h, -1)
        top = blocks[:, 0] + blocks[:, 1]
        bot = blocks[:, 0] - blocks[:, 1]
        out = np.concatenate([top[:, None], bot[:, None]], axis=1).reshape(n, -1)
        h *= 2
    out /= np.sqrt(n)
    return out.reshape(-1) if squeeze else out.reshape((n,) + X.shape[1:])


def hadamard_precondition(system: LinearSystem, seed: int) -> LinearSystem:
    """Randomized Hadamard preconditioning: A -> H D A_pad, b -> H D b_pad.

    Rows are zero-padded to the next power of two; D is a random +/-1
    diagonal and H the orthonormal Walsh-Hadamard transform, so the solution
    set (and x_star) is unchanged while row leverage scores flatten out.
    """
    m, n = system.A.shape
    m_pad = 1 << (m - 1).bit_length()
    A_pad = np.zeros((m_pad, n))
    A_pad[:m] = system.A
    b_pad = np.zeros(m_pad)
    b_pad[:m] = system.b
    signs = stream(seed).integers(0, 2, size=m_pad).astype(float) * 2.0 - 1.0
    A_new = fwht(A_pad * signs[:, None])
    b_new = fwht(b_pad * signs)
    return LinearSystem(
        A=A_new,
        b=b_new,
        x_star=system.x_star.copy(),
        metric=system.metric,
        rank_deficient=system.rank_deficient,
    )
