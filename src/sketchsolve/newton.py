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
from .rng import KeyPath, as_key, child_seed
from .sketch import SketchSpec, apply_sketch, apply_sketch_t, draw_sketch, row_factor
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


@dataclass
class ConvexObjective:
    """Callbacks for a smooth convex function: value, gradient, Hessian."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


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


def _newton_direction(obj: ConvexObjective, x: np.ndarray, g: np.ndarray, S) -> np.ndarray:
    """Sketched Newton direction ``-S^T (S H S^T)^+ S g`` at ``x`` with gradient ``g``."""
    SH = apply_sketch(S, obj.hessian(x))  # k x m
    W = symmetrize(apply_sketch(S, SH.T))  # S H S^T
    z, _ = solve_psd(W, apply_sketch(S, g), n_ambient=obj.dim)
    return -apply_sketch_t(S, z)


def rsn_step(obj: ConvexObjective, x: np.ndarray, S, eta: float = 1.0) -> np.ndarray:
    """One sketched Newton step ``x - eta * S^T (S H S^T)^+ S g``."""
    return x + eta * _newton_direction(obj, x, obj.gradient(x), S)


def rsn_solve(
    obj: ConvexObjective,
    x0: np.ndarray,
    spec: SketchSpec,
    max_iters: int = 500,
    tol: float = 1e-8,
    trial: KeyPath = 0,
):
    """Iterate RSN with Armijo backtracking until the gradient norm <= tol.

    The line search starts at eta = 1, halves the step, and requires the
    sufficient decrease ``f(x + eta d) <= f(x) + 1e-4 eta <g, d>``; after 50
    shrinks the iteration is skipped and retried with a fresh sketch.
    """
    x = np.asarray(x0, dtype=float).copy()
    key = as_key(trial)
    trace = NewtonTrace()
    for t in range(max_iters):
        g = obj.gradient(x)
        gnorm = float(np.linalg.norm(g))
        f_x = float(obj.value(x))
        if gnorm <= tol:
            trace.f.append(f_x)
            trace.grad_norm.append(gnorm)
            break
        d = _newton_direction(obj, x, g, draw_sketch(spec, obj.dim, trial=key + (t,)))
        slope = float(g @ d)
        eta = 1.0
        accepted = False
        if slope < 0.0:
            for _ in range(50):
                if obj.value(x + eta * d) <= f_x + 1e-4 * eta * slope:
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


def rho_certificate(H: np.ndarray, spec: SketchSpec, trials: int,
                    subgaussian_const: float = 1.0) -> RhoCertificate:
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
    ``subgaussian_const * (1/sqrt(r) + k/n)`` with r the stable rank of
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
        eps = subgaussian_const * (1.0 / np.sqrt(r_stable) + spec.k / n_rank)
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
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if ridge <= 0.0:
        raise ValueError("ridge must be positive (strong convexity)")
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +/-1")
    N, d = X.shape

    def value(w):
        margins = y * (X @ w)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * ridge * (w @ w))

    def gradient(w):
        margins = y * (X @ w)
        sig = 1.0 / (1.0 + np.exp(margins))  # sigma(-margin)
        return -(X.T @ (y * sig)) / N + ridge * w

    def hessian(w):
        margins = y * (X @ w)
        sig = 1.0 / (1.0 + np.exp(-margins))
        weights = sig * (1.0 - sig)
        return (X.T * weights) @ X / N + ridge * np.eye(d)

    return ConvexObjective(dim=d, value=value, gradient=gradient, hessian=hessian)


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
