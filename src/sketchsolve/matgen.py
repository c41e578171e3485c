"""Test-matrix generation and linear-system assembly.

Matrices are plain float64 numpy arrays (row-major).  Generators produce
matrices with prescribed singular-value profiles from seeded Gaussian
orthonormal factors, so the same seed always yields the same matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import RANK_RTOL, check_spd, numerical_rank, row_factor
from .rng import stream

__all__ = [
    "SpectralProfile",
    "LinearSystem",
    "LibsvmFormatError",
    "gen_spectral_matrix",
    "gen_gaussian_unit_rows",
    "parse_libsvm",
    "make_system",
    "save_matrix_csv",
]

_PROFILE_KINDS = ("linear", "polynomial", "exponential", "explicit")
#: sigma_1 of a profile that does not give one
SIGMA_MAX = 6.8


class LibsvmFormatError(ValueError):
    """Malformed svmlight/LIBSVM line; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class SpectralProfile:
    """A singular-value profile sigma_1 >= ... >= sigma_n > 0.

    Kinds:
      linear       sigma_i = sigma_max - param * i
      polynomial   sigma_i = sigma_max * i**(-param)
      exponential  sigma_i = sigma_max * param**(-(i - 1) / 2)
                   (squared values decay geometrically with ratio 1/param)
      explicit     sigma_i given verbatim

    ``step`` profiles (head profile up to a breakpoint, tail profile after)
    are built with :meth:`step` and materialize as ``explicit``.
    """

    kind: str
    count: int
    sigma_max: float = SIGMA_MAX
    param: float | None = None
    explicit_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("profile count must be >= 1")
        self.values()  # validates positivity/monotonicity eagerly

    @classmethod
    def linear(cls, slope: float, count: int, sigma_max: float = SIGMA_MAX) -> "SpectralProfile":
        return cls("linear", count, sigma_max, param=slope)

    @classmethod
    def polynomial(cls, exponent: float, count: int, sigma_max: float = SIGMA_MAX) -> "SpectralProfile":
        return cls("polynomial", count, sigma_max, param=exponent)

    @classmethod
    def exponential(cls, base: float, count: int, sigma_max: float = SIGMA_MAX) -> "SpectralProfile":
        return cls("exponential", count, sigma_max, param=base)

    @classmethod
    def flat(cls, count: int, sigma_max: float = SIGMA_MAX) -> "SpectralProfile":
        return cls.explicit([sigma_max] * count)

    @classmethod
    def explicit(cls, values) -> "SpectralProfile":
        vals = tuple(float(v) for v in values)
        return cls("explicit", len(vals), sigma_max=max(vals) if vals else 0.0,
                   explicit_values=vals)

    @classmethod
    def step(cls, break_r: int, head: "SpectralProfile", tail: "SpectralProfile") -> "SpectralProfile":
        """Splice ``head`` (i <= break_r) with ``tail`` (i > break_r) into an
        explicit profile; a splice that is not non-increasing is re-sorted,
        with a warning."""
        n = head.count
        if tail.count != n:
            raise ValueError("head and tail profiles must have equal count")
        if not 1 <= break_r <= n:
            raise ValueError(f"break_r must be in [1, {n}], got {break_r}")
        spliced = np.concatenate([head.values()[:break_r], tail.values()[break_r:]])
        if np.any(np.diff(spliced) > 0.0):
            warnings.warn("step profile splice was non-monotone; re-sorted", stacklevel=2)
            spliced = np.sort(spliced)[::-1]
        return cls.explicit(spliced)

    def values(self) -> np.ndarray:
        i = np.arange(1, self.count + 1, dtype=float)
        if self.kind == "linear":
            sigma = self.sigma_max - float(self.param) * i
        elif self.kind == "polynomial":
            sigma = self.sigma_max * i ** (-float(self.param))
        elif self.kind == "exponential":
            if self.param is None or self.param <= 1.0:
                raise ValueError("exponential profile needs base > 1")
            sigma = self.sigma_max * float(self.param) ** (-(i - 1.0) / 2.0)
        else:
            sigma = np.asarray(self.explicit_values, dtype=float)
        if sigma.size == 0 or np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError("profile yields non-positive or non-finite singular values")
        if np.any(np.diff(sigma) > 0.0):
            raise ValueError("profile singular values must be non-increasing")
        return sigma


@dataclass(frozen=True)
class LinearSystem:
    """An (A, b, x_star) triple, optionally with an SPD metric for distances.

    ``x_star`` is the exact solution when A has full column rank, otherwise
    the least-norm least-squares solution.  :func:`make_system` also stores
    A's one factorization: ``R`` from ``A = Q R`` (:func:`row_factor`) and
    ``sigma``, the singular values of R and so of A.  A system built without
    ``sigma`` counts as full rank.
    """

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    metric: np.ndarray | None = None
    R: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.metric is not None:  # the one check of a metric, however built
            check_spd(self.metric)
            if np.shape(self.metric) != (self.n, self.n):
                raise ValueError(f"metric must have shape ({self.n}, {self.n}), "
                                 f"got {np.shape(self.metric)}")

    @property
    def rank(self) -> int:
        """Numerical rank of A (:func:`numerical_rank` of ``sigma``)."""
        if self.sigma is None:
            return min(self.m, self.n)
        return numerical_rank(self.sigma, self.m, self.n)

    @cached_property  # the solver's [A | b] and its factor, built on first use
    def _augmented(self) -> np.ndarray:
        # make_system sets this to the one buffer that A and b are views of
        return np.column_stack([self.A, self.b])

    @cached_property
    def _augmented_R(self) -> np.ndarray:
        return row_factor(self._augmented)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def metric_norm(self, v: np.ndarray) -> float:
        """||v||_B, the Euclidean norm when no metric is set."""
        if self.metric is None:  # np.linalg.norm's dot product, without its dispatch
            return math.sqrt(v @ v)
        return float(np.sqrt(max(v @ (self.metric @ v), 0.0)))


def _householder_frame(G: np.ndarray) -> np.ndarray:
    """Q of the reduced Householder QR ``G = Q R``, its columns signed so that
    diag R >= 0: a deterministic function of G, Haar-distributed for Gaussian G."""
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _cholesky_qr2_frame(G: np.ndarray) -> np.ndarray:
    """:func:`_householder_frame` of a tall, well-conditioned G by CholeskyQR2
    (two passes of ``Q <- Q chol(Q^T Q)^-T``): two Gram products and two small
    triangular factors, never a Householder Q.  A Cholesky factor has a
    positive diagonal, so this is the same Q.  A G whose Gram matrix Cholesky
    cannot factor (rank-deficient) takes the Householder QR."""
    Q = G
    try:
        for _ in range(2):
            Q = Q @ np.linalg.inv(np.linalg.cholesky(Q.T @ Q)).T
    except np.linalg.LinAlgError:
        return _householder_frame(G)
    return Q


def gen_spectral_matrix(profile: SpectralProfile, m: int, seed: int) -> np.ndarray:
    """m x n matrix with singular values following ``profile`` (n = profile.count).

    A = U diag(sigma) V^T with U (m x n, by CholeskyQR2) and V (n x n, by
    Householder QR, since square Gaussians are ill-conditioned) the
    orthonormal factors of seeded Gaussian matrices, drawn U first; the same
    seed reproduces the matrix bit-for-bit.
    """
    sigma = profile.values()
    n = profile.count
    if m < n:
        raise ValueError(f"need m >= n, got m={m} n={n}")
    rng = stream(seed)
    U = _cholesky_qr2_frame(rng.standard_normal((m, n)))
    V = _householder_frame(rng.standard_normal((n, n)))
    return U @ (sigma[:, None] * V.T)


def gen_gaussian_unit_rows(m: int, n: int, seed: int) -> np.ndarray:
    """m x n matrix of i.i.d. standard normals with every row scaled to unit norm."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    G = stream(seed).standard_normal((m, n))
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def parse_libsvm(path, n_features: int | None = None):
    """Parse an svmlight/LIBSVM text file into a dense matrix plus labels.

    Each line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices.  Absent features are zero-filled; the column count is
    the largest index seen, or ``n_features`` when given.
    """
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                labels.append(float(tokens[0]))
            except ValueError:
                raise LibsvmFormatError(lineno, f"bad label {tokens[0]!r}") from None
            entries: dict[int, float] = {}
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_text, val_text = tok.split(":", 1)
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError:
                    raise LibsvmFormatError(lineno, f"bad feature token {tok!r}") from None
                if idx <= prev:
                    raise LibsvmFormatError(
                        lineno, f"feature index {idx} not strictly increasing")
                if n_features is not None and idx > n_features:
                    raise LibsvmFormatError(
                        lineno, f"feature index {idx} exceeds n_features={n_features}")
                entries[idx] = val
                prev = idx
            max_index = max(max_index, prev)
            rows.append(entries)
    n_cols = n_features if n_features is not None else max_index
    A = np.zeros((len(rows), n_cols))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            A[r, idx - 1] = val
    return A, np.asarray(labels)


def make_system(A: np.ndarray, seed: int, metric: np.ndarray | None = None) -> LinearSystem:
    """Assemble a consistent system with a known solution from a seeded draw.

    A Gaussian ``x_seed`` defines ``b = A x_seed``.  For full-column-rank A
    the solution is ``x_seed`` itself; for rank-deficient A the retained
    solution is the least-norm least-squares solution of ``min ||Ax - b||``.
    A is factored here once, and the system keeps the factor and spectrum.
    ``[A | b]`` is the system's one (m, n+1) array: A and b are its column
    views, and the solver reads it whole.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    m, n = A.shape
    x_seed = stream(seed).standard_normal(n)
    Ab = np.empty((m, n + 1))
    Ab[:, n] = A @ x_seed
    Ab[:, :n] = A
    A, b = Ab[:, :n], Ab[:, n]
    R = row_factor(A)
    sigma = np.linalg.svd(R, compute_uv=False)
    if numerical_rank(sigma, m, n) < n:
        x_star, *_ = np.linalg.lstsq(A, b, rcond=RANK_RTOL * max(m, n))
    else:
        x_star = x_seed
    system = LinearSystem(A=A, b=b, x_star=x_star, metric=metric, R=R, sigma=sigma)
    system.__dict__["_augmented"] = Ab  # A and b are its column views
    return system


def save_matrix_csv(path, A: np.ndarray) -> None:
    """Write a matrix as CSV: one ``rows,cols`` header line, then the entries."""
    A = np.asarray(A, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{A.shape[0]},{A.shape[1]}\n")
        for row in A:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
