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

from .linalg import lambda_min_plus, positive_mask, solve_psd, symmetrize
from .randsvd import err_km1
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
    read.  ``at(x)`` returns the point ``(f(x), grad f(x), sketched)``;
    ``sketched(S)`` returns ``(S H(x) S^T, line)``, and ``line(d, z)``, for the
    direction ``d = -S^T z``, returns ``along``; ``along(eta)`` returns
    ``(f(x + eta d), move)``, with ``move()`` the point at ``x + eta d``.  So f
    at an accepted point comes from the line search, not a fresh evaluation.
    The default ``at`` builds the oracle from the other callbacks, with
    ``hessian(x)`` sketched from both sides; a subclass overrides it to
    share work between them at x."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]

    def at(self, x: np.ndarray) -> tuple:
        return _default_point(self, x, float(self.value(x)))


def _default_point(obj: ConvexObjective, x: np.ndarray, f: float) -> tuple:
    """The oracle's point at x, with ``f = value(x)``, from ``obj``'s callbacks."""

    def sketched(S):
        def line(d, z):
            def along(eta):
                x_eta = x + eta * d
                f_eta = float(obj.value(x_eta))
                return f_eta, lambda: _default_point(obj, x_eta, f_eta)

            return along

        return _sandwich(S, obj.hessian(x)), line

    return f, obj.gradient(x), sketched


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


def _sandwich(S, H: np.ndarray) -> np.ndarray:
    """``S H S^T`` for a sketch S and a symmetric matrix H."""
    return symmetrize(apply_sketch(S, apply_sketch(S, H).T))


def _newton_direction(W: np.ndarray, g: np.ndarray, S, dim: int):
    """Sketched Newton direction ``d = -S^T z``, ``z = W^+ S g`` for
    ``W = S H S^T``; returns ``(d, z)``."""
    z, _ = solve_psd(W, apply_sketch(S, g), n_ambient=dim)
    return -apply_sketch_t(S, z), z


def rsn_step(obj: ConvexObjective, x: np.ndarray, S, eta: float = 1.0) -> np.ndarray:
    """One sketched Newton step ``x - eta * S^T (S H S^T)^+ S g``, with g and
    ``S H S^T`` from ``obj.at(x)``."""
    _, g, sketched = obj.at(x)
    d, _ = _newton_direction(sketched(S)[0], g, S, obj.dim)
    return x + eta * d


def rsn_solve(
    obj: ConvexObjective,
    x0: np.ndarray,
    spec: SketchSpec,
    max_iters: int = 500,
    tol: float = 1e-8,
    trial: KeyPath = 0,
):
    """Iterate RSN with Armijo backtracking until the gradient norm <= tol.

    The run makes one ``obj.at(x0)`` call and calls nothing else on ``obj``:
    each accepted point comes from the line search's ``move()``, so there is
    one oracle evaluation per accepted point, and a skipped step reuses the
    point it started from.  Step t draws its sketch from the stream keyed by
    ``(*trial, t)``, seated in batches (:func:`rng.streams`).  The line search
    starts at eta = 1, halves the step, and requires the sufficient decrease
    ``f(x + eta d) <= f(x) + 1e-4 eta <g, d>``; after 50 shrinks the
    iteration is skipped and retried with a fresh sketch.  Raises
    ``ValueError`` unless x0 has shape ``(obj.dim,)`` and max_iters is an
    integer >= 1.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({obj.dim},)")
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) \
            or max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    key = as_key(trial)
    trace = NewtonTrace()
    f_x, g, sketched = obj.at(x)
    for rng in streams(spec.seed_stream, (key + (t,) for t in range(max_iters))):
        gnorm = float(np.linalg.norm(g))
        trace.f.append(f_x)
        trace.grad_norm.append(gnorm)
        if gnorm <= tol:
            break
        S = draw_sketch(spec, obj.dim, trial=rng)
        W, line = sketched(S)
        d, z = _newton_direction(W, g, S, obj.dim)
        slope = float(g @ d)
        eta = 1.0
        accepted = None
        if slope < 0.0:
            along = line(d, z)
            for _ in range(50):
                f_eta, move = along(eta)
                if f_eta <= f_x + 1e-4 * eta * slope:
                    accepted = move
                    break
                eta *= 0.5
        if accepted is None:
            trace.line_search_failures += 1
        else:
            x = x + eta * d
            f_x, g, sketched = accepted()
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
    Err(H^{1/2}, k-1) = Err(F, k-1), estimated by :func:`randsvd.err_km1`.
    All work stays in the range of H, so roundoff has no null space to land
    in.  The refined bound is ``(1 - eps) k lambda_min^+(H) / Err(H^{1/2}, k-1)``
    and the crude bound ``k lambda_min^+(H) / tr(H)``.  For Gaussian sketches eps is the explicit
    expression from :func:`gaussian_rate_bound`; other families use
    ``SUBGAUSSIAN_CONST * (1/sqrt(r) + k/n)`` with r the stable rank of
    H^{1/2}.  Raises ``ValueError`` when k exceeds rank(H): Err(H^{1/2}, k-1)
    is then roundoff and both bounds are meaningless.
    """
    H = symmetrize(np.asarray(H, dtype=float))
    m = H.shape[0]
    spec.validate(m)
    eigs, V = np.linalg.eigh(H)
    keep = positive_mask(eigs)
    positive = eigs[keep]
    n_rank = int(positive.size)
    if spec.k > n_rank:
        raise ValueError(f"sketch size k={spec.k} exceeds rank(H)={n_rank}")
    F = V[:, keep] * np.sqrt(positive)
    R = row_factor(F)
    rho_hat = lambda_min_plus(expected_projection(F, spec, trials, R).eigenvalues[::-1])
    lam_min_plus = float(positive[0])
    trace_h = float(np.sum(positive))

    err = err_km1(F, spec.k, child_seed(spec.seed_stream, 7), trials=50, R=R)
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
    )


def logistic_objective(X: np.ndarray, y: np.ndarray, ridge: float) -> ConvexObjective:
    """Ridge-regularized logistic loss over +/-1 labels.

    f(w) = (1/N) sum_i log(1 + exp(-y_i x_i^T w)) + (ridge/2) ||w||^2.
    The sketched Hessian ``Y^T diag(c) Y / N + ridge S S^T``, ``Y = X S^T``,
    never forms the d x d Hessian ``X^T diag(c) X / N + ridge I``.  Every
    callback starts from the margins ``y * (X w)``.  The oracle reads X twice
    per point, for the gradient and for ``Y^T = S X^T``: the margins along
    ``d = -S^T z`` are ``-y * (Y z)``, and the line search's accepted trial
    carries its margins and f into the next point.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if ridge <= 0.0:
        raise ValueError("ridge must be positive (strong convexity)")
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +/-1")
    return _Logistic(X, y, ridge)


class _Logistic(ConvexObjective):
    """The objective of :func:`logistic_objective`: its callbacks are methods,
    and ``at`` shares the margins between them.  A module-level class, so that
    the oracle's points hold X without a reference cycle (a closure that
    builds the next point from itself keeps X alive until a full GC)."""

    def __init__(self, X: np.ndarray, y: np.ndarray, ridge: float):
        self.dim, self.X, self.y, self.ridge = X.shape[1], X, y, ridge

    def margins(self, w):
        return self.y * (self.X @ w)

    def loss(self, m, w):
        """f at w from its margins m = y * (X w)."""
        return float(np.mean(np.logaddexp(0.0, -m)) + 0.5 * self.ridge * (w @ w))

    @staticmethod
    def sigmoids(m):
        """sigma(-m) and the curvatures c = sigma(m) sigma(-m) at the margins m,
        from ``exp(-|m|) <= 1`` so that nothing overflows."""
        e = np.exp(-np.abs(m))
        inv = 1.0 / (1.0 + e)
        return np.where(m >= 0.0, e * inv, inv), e * inv * inv

    def grad(self, sig_neg, w):
        return -(self.X.T @ (self.y * sig_neg)) / self.X.shape[0] + self.ridge * w

    def value(self, w):
        return self.loss(self.margins(w), w)

    def gradient(self, w):
        return self.grad(self.sigmoids(self.margins(w))[0], w)

    def hessian(self, w):
        _, curv = self.sigmoids(self.margins(w))
        X = self.X
        return (X.T * curv) @ X / X.shape[0] + self.ridge * np.eye(X.shape[1])

    def at(self, w):
        m = self.margins(w)
        return self.point(w, m, self.loss(m, w))

    def point(self, w, m, f):
        """The oracle's point at w from its margins m and ``f = loss(m, w)``."""
        sig_neg, curv = self.sigmoids(m)

        def sketched(S):
            Z = densify(S)  # k x d
            Yt = apply_sketch(Z, self.X.T)  # (X S^T)^T, k x N
            W = symmetrize((Yt * curv) @ Yt.T / Yt.shape[1] + self.ridge * (Z @ Z.T))

            def line(d, z):
                m_d = -(self.y * (z @ Yt))  # y * X d, as X d = -X S^T z

                def along(eta):
                    m_eta, w_eta = m + eta * m_d, w + eta * d
                    f_eta = self.loss(m_eta, w_eta)
                    return f_eta, lambda: self.point(w_eta, m_eta, f_eta)

                return along

            return W, line

        return f, self.grad(sig_neg, w), sketched


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
