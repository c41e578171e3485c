"""Randomized Subspace Newton for smooth convex objectives.

Each iteration sketches the Newton system with a k x m matrix S and moves to

    x' = x - eta * S^T (S H S^T)^+ S g,      H = hess f(x), g = grad f(x),

which is the H-metric projection step for the sketched Newton constraint.
The spectral certificate for the convergence rate is the smallest positive
eigenvalue of E[H^{1/2} S^T (S H S^T)^+ S H^{1/2}].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import lambda_min_plus, solve_psd, symmetrize
from .randsvd import err_monte_carlo
from .rng import KeyPath, as_key, child_seed, streams
from .sketch import SketchSpec, apply_sketch, apply_sketch_t, densify, draw_sketch, row_factor
from .spectral import expected_projection, gaussian_rate_bound

__all__ = [
    "ConvexObjective",
    "NewtonTrace",
    "RhoCertificate",
    "rsn_step",
    "rsn_solve",
    "full_newton",
    "rho_certificate",
    "logistic_objective",
    "quadratic_objective",
]

#: absolute constant of the sub-Gaussian epsilon in :func:`rho_certificate`
SUBGAUSSIAN_CONST = 1.0


@dataclass
class ConvexObjective:
    """Callbacks for a smooth convex function: value, gradient, Hessian, and
    the per-point oracle ``at(x)`` that :func:`rsn_step` and :func:`rsn_solve`
    read.  ``at(x)`` returns ``(f(x), grad f(x), S -> S H(x) S^T,
    d -> (eta -> f(x + eta d)))``; by default it is built from the other
    callbacks, with ``hessian(x)`` sketched from both sides, so an objective
    can instead share work between them at x."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    at: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self):
        if self.at is None:
            self.at = lambda x: (float(self.value(x)), self.gradient(x),
                                 lambda S: _sandwich(S, self.hessian(x)),
                                 lambda d: lambda eta: self.value(x + eta * d))


@dataclass
class NewtonTrace:
    """Per-iteration record of an RSN run."""

    f: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    line_search_failures: int = 0


@dataclass(frozen=True)
class RhoCertificate:
    """Monte-Carlo rate certificate rho_hat with its theoretical lower bounds."""

    rho_hat: float
    refined_bound: float
    crude_bound: float
    epsilon: float
    trials: int


def _sandwich(S, H: np.ndarray) -> np.ndarray:
    """``S H S^T`` for a sketch S and a symmetric matrix H."""
    return symmetrize(apply_sketch(S, apply_sketch(S, H).T))


def _newton_direction(W: np.ndarray, g: np.ndarray, S, dim: int) -> np.ndarray:
    """Sketched Newton direction ``-S^T W^+ S g`` for ``W = S H S^T``."""
    z, _ = solve_psd(W, apply_sketch(S, g), n_ambient=dim)
    return -apply_sketch_t(S, z)


def rsn_step(obj: ConvexObjective, x: np.ndarray, S, eta: float = 1.0) -> np.ndarray:
    """One sketched Newton step ``x - eta * S^T (S H S^T)^+ S g``, with g and
    ``S H S^T`` from ``obj.at(x)``."""
    _, g, sketched_hessian, _ = obj.at(x)
    return x + eta * _newton_direction(sketched_hessian(S), g, S, obj.dim)


def rsn_solve(
    obj: ConvexObjective,
    x0: np.ndarray,
    spec: SketchSpec,
    max_iters: int = 500,
    tol: float = 1e-8,
    trial: KeyPath = 0,
):
    """Iterate RSN with Armijo backtracking until the gradient norm <= tol.

    Each step makes one ``obj.at(x)`` call and calls nothing else on ``obj``;
    step t draws its sketch from the stream keyed by ``(*trial, t)``, seated
    in batches (:func:`rng.streams`).  The line search starts at eta = 1,
    halves the step, and requires the sufficient decrease
    ``f(x + eta d) <= f(x) + 1e-4 eta <g, d>``; after 50 shrinks the
    iteration is skipped and retried with a fresh sketch.
    """
    x = np.asarray(x0, dtype=float).copy()
    key = as_key(trial)
    trace = NewtonTrace()
    for rng in streams(spec.seed_stream, (key + (t,) for t in range(max_iters))):
        f_x, g, sketched_hessian, line = obj.at(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            trace.f.append(f_x)
            trace.grad_norm.append(gnorm)
            break
        S = draw_sketch(spec, obj.dim, trial=rng)
        d = _newton_direction(sketched_hessian(S), g, S, obj.dim)
        slope = float(g @ d)
        eta = 1.0
        accepted = False
        if slope < 0.0:
            f_along = line(d)
            for _ in range(50):
                if f_along(eta) <= f_x + 1e-4 * eta * slope:
                    accepted = True
                    break
                eta *= 0.5
        if accepted:
            x = x + eta * d
        else:
            trace.line_search_failures += 1
        trace.f.append(f_x)
        trace.grad_norm.append(gnorm)
    return x, trace


def full_newton(obj: ConvexObjective, x0: np.ndarray, max_iters: int = 100,
                tol: float = 1e-12) -> np.ndarray:
    """Deterministic damped Newton oracle (exact solves, Armijo safeguard)."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iters):
        g = obj.gradient(x)
        if np.linalg.norm(g) <= tol:
            break
        d = np.linalg.solve(obj.hessian(x), -g)
        eta, f_x, slope = 1.0, obj.value(x), float(g @ d)
        while eta > 1e-12 and obj.value(x + eta * d) > f_x + 1e-4 * eta * slope:
            eta *= 0.5
        x = x + eta * d
    return x


def rho_certificate(H: np.ndarray, spec: SketchSpec, trials: int) -> RhoCertificate:
    """Estimate the RSN rate certificate and its closed-form lower bounds.

    rho_hat is the smallest positive eigenvalue of the mean of
    ``H^{1/2} S^T (S H S^T)^+ S H^{1/2}`` over independent sketches.  With
    ``F = V_+ diag(sqrt(lambda_+))`` from the positive eigenpairs of H
    (F F^T = H), ``S H^{1/2} = (S F) V_+^T``, so that matrix is
    ``V_+ P V_+^T`` with P the projection onto rowspan(S F): rho_hat is
    lambda_min^+ of :func:`expected_projection` on F, and
    Err(H^{1/2}, k-1) = Err(F, k-1).  All work stays in the range of H, so
    roundoff has no null space to land in.  The refined bound is
    ``(1 - eps) k lambda_min^+(H) / Err(H^{1/2}, k-1)`` and the crude bound
    ``k lambda_min^+(H) / tr(H)``.  For Gaussian sketches eps is the explicit
    expression from :func:`gaussian_rate_bound`; other families use
    ``SUBGAUSSIAN_CONST * (1/sqrt(r) + k/n)`` with r the stable rank of
    H^{1/2}.  Raises ``ValueError`` when k exceeds rank(H): Err(H^{1/2}, k-1)
    is then roundoff and both bounds are meaningless.
    """
    H = symmetrize(np.asarray(H, dtype=float))
    m = H.shape[0]
    spec.validate(m)
    eigs, V = np.linalg.eigh(H)
    cutoff = m * np.finfo(float).eps * max(float(eigs[-1]), 0.0)
    keep = eigs > cutoff
    positive = eigs[keep]
    n_rank = int(positive.size)
    if spec.k > n_rank:
        raise ValueError(f"sketch size k={spec.k} exceeds rank(H)={n_rank}")
    F = V[:, keep] * np.sqrt(positive)
    R = row_factor(F)
    rho_hat = lambda_min_plus(expected_projection(F, spec, trials, R).mean_P)
    lam_min_plus = float(positive[0])
    trace_h = float(np.sum(positive))

    err_spec = SketchSpec(family="gaussian", k=max(spec.k - 1, 1),
                          seed_stream=child_seed(spec.seed_stream, 7))
    err = err_monte_carlo(F, spec.k - 1, err_spec, trials=50, R=R)
    if spec.family == "gaussian":
        eps = gaussian_rate_bound(lam_min_plus, err.mean, spec.k, n_rank).epsilon
    else:
        r_stable = trace_h / float(eigs[-1])
        eps = SUBGAUSSIAN_CONST * (1.0 / np.sqrt(r_stable) + spec.k / n_rank)
    refined = (1.0 - eps) * spec.k * lam_min_plus / err.mean
    crude = spec.k * lam_min_plus / trace_h
    return RhoCertificate(
        rho_hat=rho_hat,
        refined_bound=refined,
        crude_bound=crude,
        epsilon=eps,
        trials=trials,
    )


def logistic_objective(X: np.ndarray, y: np.ndarray, ridge: float) -> ConvexObjective:
    """Ridge-regularized logistic loss over +/-1 labels.

    f(w) = (1/N) sum_i log(1 + exp(-y_i x_i^T w)) + (ridge/2) ||w||^2.
    The sketched Hessian ``Y^T diag(c) Y / N + ridge S S^T``, ``Y = X S^T``,
    never forms the d x d Hessian ``X^T diag(c) X / N + ridge I``.  Every
    callback starts from the margins ``y * (X w)``; ``at`` computes them once
    for f, the gradient and the curvatures.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if ridge <= 0.0:
        raise ValueError("ridge must be positive (strong convexity)")
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +/-1")
    N, d = X.shape

    def margins(w):
        return y * (X @ w)

    def loss(m, w):
        """f at w from its margins m = y * (X w)."""
        return float(np.mean(np.logaddexp(0.0, -m)) + 0.5 * ridge * (w @ w))

    def sigmoids(m):
        """sigma(-m) and the curvatures c = sigma(m) sigma(-m) at the margins m,
        from ``exp(-|m|) <= 1`` so that nothing overflows."""
        e = np.exp(-np.abs(m))
        inv = 1.0 / (1.0 + e)
        return np.where(m >= 0.0, e * inv, inv), e * inv * inv

    def grad(sig_neg, w):
        return -(X.T @ (y * sig_neg)) / N + ridge * w

    def sandwich(curv, S):
        Z = densify(S)  # k x d
        Y = X @ Z.T  # N x k
        return symmetrize((Y.T * curv) @ Y / N + ridge * (Z @ Z.T))

    def hessian(w):
        _, curv = sigmoids(margins(w))
        return (X.T * curv) @ X / N + ridge * np.eye(d)

    def at(w):
        """One pass over X at w; f(w + eta d) then reads the margins
        ``m + eta * (y * X d)`` from one more pass per direction d."""
        m = margins(w)
        sig_neg, curv = sigmoids(m)

        def line(direction):
            m_d = margins(direction)
            return lambda eta: loss(m + eta * m_d, w + eta * direction)

        return loss(m, w), grad(sig_neg, w), lambda S: sandwich(curv, S), line

    return ConvexObjective(
        dim=d,
        value=lambda w: loss(margins(w), w),
        gradient=lambda w: grad(sigmoids(margins(w))[0], w),
        hessian=hessian,
        at=at,
    )


def quadratic_objective(H: np.ndarray, b: np.ndarray) -> ConvexObjective:
    """f(x) = 0.5 x^T H x - b^T x for symmetric PSD H."""
    H = symmetrize(np.asarray(H, dtype=float))
    b = np.asarray(b, dtype=float)
    return ConvexObjective(
        dim=H.shape[0],
        value=lambda x: float(0.5 * x @ (H @ x) - b @ x),
        gradient=lambda x: H @ x - b,
        hessian=lambda x: H,
    )
