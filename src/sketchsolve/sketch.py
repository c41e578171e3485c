"""Sketching distributions: dense Gaussian/Rademacher, sparse leverage-score
sketches, row sampling, plus leverage scores and randomized Hadamard
preconditioning.

Sparse families store one row as ``s`` sampled (index, value) terms with
duplicates merged by summation; the per-row formula is

    s_i = (1/sqrt(k)) * sum_j r_{i,j} / sqrt(s * p_{t_j}) * e_{t_j}

with standard normal ``r`` and indices ``t`` i.i.d. from ``p``.  Dense
families keep unit-variance entries; since the projection onto the row span
of ``S A`` is invariant to row scaling, the differing normalizations do not
affect solver behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    "apply_sketch",
    "apply_sketch_t",
    "densify",
    "hadamard_precondition",
    "fwht",
]

FAMILIES = ("gaussian", "rademacher", "less", "less_uniform", "row_sampling")
_DENSE = ("gaussian", "rademacher")


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
    """k x m sparse sketching matrix in CSR-like merged form.

    ``s_drawn`` is the pre-merge number of sampled terms per row; after
    merging duplicate indices a row may store fewer entries, but never
    none, which :func:`apply_sketch` relies on.
    """

    k: int
    m: int
    s_drawn: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.indptr) < 1):
            raise ValueError("every sketch row needs at least one stored entry")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k, self.m)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def _entry_rows(self) -> np.ndarray:
        """Row index of each stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.k), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        S = np.zeros((self.k, self.m))
        S[self._entry_rows(), self.indices] = self.values
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
    vals = r / np.sqrt(k * s * p_eff[idx])

    # stable sort of the flat keys row*m + index keeps each row's draw order,
    # so duplicates are summed in the order they were sampled
    keys = np.repeat(np.arange(k), s) * m + idx.ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    uniq = keys[start]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // m, minlength=k), out=indptr[1:])
    return SparseSketch(
        k=k,
        m=m,
        s_drawn=s,
        indptr=indptr,
        indices=uniq % m,
        values=np.add.reduceat(vals.ravel()[order], start),
    )


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


def _per_entry(values: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape entry values to broadcast against gathered rows of an ndim array."""
    return values.reshape((-1,) + (1,) * (ndim - 1))


def apply_sketch(S, A: np.ndarray) -> np.ndarray:
    """Compute ``S A``; the sparse path touches only stored entries."""
    A = np.asarray(A, dtype=float)
    if isinstance(S, SparseSketch):
        if S.m != A.shape[0]:
            raise ValueError(f"sketch columns {S.m} != matrix rows {A.shape[0]}")
        terms = _per_entry(S.values, A.ndim) * A[S.indices]
        # reduceat needs non-empty rows: draws keep >= 1 entry per row (s >= 1)
        return np.add.reduceat(terms, S.indptr[:-1], axis=0)
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
        np.add.at(out, S.indices, _per_entry(S.values, Y.ndim) * Y[S._entry_rows()])
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
