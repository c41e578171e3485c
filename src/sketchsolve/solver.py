"""Sketch-and-project iteration for linear systems in a general SPD metric.

Each step projects the iterate, in the B-metric, onto the solution set of a
freshly sketched subsystem ``S A x = S b``:

    x' = x - B^{-1} A^T S^T (S A B^{-1} A^T S^T)^+ S (A x - b)

Errors to the retained solution are logged per iteration, and the
empirical per-iteration contraction over the tail of many runs estimates the
stabilized convergence rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _certified, _lu_solve, _pinv_solve, check_count, solve_psd
from .matgen import LinearSystem
from .rng import KeyPath, as_key, stream
from .sketch import SketchSpec, _sketch_blocks, apply_sketch, draw_sketch  # noqa: F401 (perfbench)

__all__ = [
    "SolverConfig",
    "IterLog",
    "RateReport",
    "project_step",
    "solve",
    "estimate_rate",
    "eigencomponent_decay",
]

#: steps that :func:`solve` draws and certifies together
_STEP_BLOCK = 8


@dataclass
class SolverConfig:
    """Iteration budget, stopping rule, and sketch family for one solve.

    ``stop_tol`` applies to the relative error ``||x_t - x*||_B / ||x*||_B``.
    """

    sketch: SketchSpec
    max_iters: int = 1000
    stop_tol: float = 1e-5

    def __post_init__(self):
        check_count(self.max_iters, "max_iters", 1)
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")


@dataclass
class IterLog:
    """Per-iteration errors for one run (index 0 is the start, x_0 = 0).

    ``err`` is the ``(T+1, n)`` path of errors ``x_t - x*``, and ``dist[t]``
    is ``system.metric_norm(err[t])``.
    """

    err: np.ndarray
    dist: np.ndarray
    fallback: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.dist.size - 1)

    @property
    def rel_err(self) -> np.ndarray:
        """``dist[t] / dist[0]``, the error relative to the start ``||x*||_B``
        (all zeros when x* = 0)."""
        return self.dist / self.dist[0] if self.dist[0] > 0.0 else np.zeros_like(self.dist)


@dataclass
class RateReport:
    """Pooled empirical contraction rate over the tail of several runs."""

    empirical_rate: float
    samples: int
    short_tail: bool


def project_step(x: np.ndarray, system: LinearSystem, S):
    """One B-metric projection of ``x`` onto ``{x : S A x = S b}``.

    Returns ``(x', fallback)``; ``fallback`` is True when the inner k x k
    solve took the pseudoinverse path.
    """
    Binv = None if system.metric is None else np.linalg.inv(system.metric)
    return _project(x, apply_sketch(S, system.A), apply_sketch(S, system.b), Binv)


def _project(x: np.ndarray, M: np.ndarray, Sb: np.ndarray, Binv: np.ndarray | None):
    """:func:`project_step` given ``M = S A`` (k x n), ``Sb = S b`` and
    ``Binv = B^{-1}`` (None for the Euclidean metric)."""
    Mt = M.T if Binv is None else Binv @ M.T
    z, fallback = solve_psd(M @ Mt, M @ x - Sb, n_ambient=x.size)
    return x - Mt @ z, fallback


def solve(system: LinearSystem, config: SolverConfig, trial: KeyPath = 0):
    """Run the iteration from x_0 = 0 with a fresh sketch per step.

    A pure function of (system, config, trial): the run seats one stream,
    keyed by ``(*trial, 0)``, and draws its steps from it in blocks of
    :data:`_STEP_BLOCK`, one ``sketch_times(..., block=(b,))`` call each
    (:func:`sketch._sketch_blocks`; a stop draws no further block).  A dense
    block equals b successive single draws; a sparse block draws all its
    indices, then all its normals, so the block size is part of its law.
    Each step sketches the augmented ``[A | b]``, so S A and S b come from
    one k x (n+1) product (Gaussian steps through the system's factor of
    ``[A | b]``, exact in law for any b and metric), and projects as
    :func:`_project` does: one stacked Cholesky applies :func:`solve_psd`'s
    guard to each W_t, a certified step takes its LU solve directly
    (:data:`linalg._lu_solve`), any other step :func:`linalg._pinv_solve`.
    A block's errors and distances are computed together after its steps.
    Returns the final iterate and the full :class:`IterLog`.
    """
    spec = config.sketch
    spec.validate(system.m)
    n = system.n
    x = np.zeros(n)
    R = system._augmented_R if spec.family == "gaussian" else None
    x_star, B = system.x_star, system.metric
    Binv = None if B is None else np.linalg.inv(B)
    err = [x - x_star]
    dist = [system.metric_norm(err[0])]
    denom = dist[0]  # ||x*||_B, since x_0 = 0; with x* = 0 no step runs
    fall = [False]
    count = config.max_iters if denom > 0.0 and config.stop_tol < 1.0 else 0
    rng = stream(spec.seed_stream, (*as_key(trial), 0))
    for SAb in _sketch_blocks(spec, system._augmented, rng, count, R, _STEP_BLOCK):
        M, c = SAb[:, :, :n], SAb[:, :, n]
        Mt = M.transpose(0, 2, 1) if Binv is None else Binv @ M.transpose(0, 2, 1)
        W = M @ Mt
        ok = _certified(W).tolist()  # each W_t's own verdict, as solve_psd reads it
        xs = np.empty((len(SAb), n))
        for i in range(len(SAb)):
            r = M[i] @ x - c[i]
            x = xs[i] = x - Mt[i] @ (_lu_solve(W[i], r) if ok[i] else _pinv_solve(W[i], r, n))
        E = xs - x_star  # metric_norm of each row, bit for bit, in stacked products
        BE = E[:, :, None] if B is None else B @ E[:, :, None]
        D = np.sqrt(np.maximum((E[:, None, :] @ BE)[:, 0, 0], 0.0))
        stop = np.flatnonzero(~(D / denom > config.stop_tol))[:1]
        b = int(stop[0]) + 1 if stop.size else len(SAb)
        err.append(E[:b])
        dist.append(D[:b])
        fall.extend(not v for v in ok[:b])
        if stop.size:
            x = xs[b - 1]
            break
    log = IterLog(
        err=np.vstack(err),
        dist=np.hstack(dist),
        fallback=np.asarray(fall, dtype=bool),
    )
    return x, log


def estimate_rate(
    system: LinearSystem,
    config: SolverConfig,
    runs: int,
    tail: int,
) -> RateReport:
    """Mean one-step contraction ``1 - d_t^2 / d_{t-1}^2`` over tail windows.

    Each run contributes its final ``tail`` recorded steps (all of them,
    flagged short, when it stopped earlier); steps from all runs are pooled
    with equal weight.
    """
    check_count(runs, "runs", 1)
    check_count(tail, "tail", 1)
    samples: list[float] = []
    short = False
    for r in range(runs):
        _, log = solve(system, config, trial=r)
        d = log.dist
        if d.size < 2:
            raise ValueError(f"run {r} recorded fewer than 2 iterations")
        steps = d.size - 1
        use = min(tail, steps)
        short = short or use < tail
        # every step ran while dist / ||x*||_B > stop_tol > 0, so no prev is 0
        samples.extend(1.0 - (d[-use:] / d[-use - 1 : -1]) ** 2)
    rate = float(np.mean(samples))
    return RateReport(
        empirical_rate=float(np.clip(rate, 0.0, 1.0)),
        samples=len(samples),
        short_tail=short,
    )


def eigencomponent_decay(
    system: LinearSystem,
    config: SolverConfig,
    V: np.ndarray,
    runs: int,
) -> np.ndarray:
    """Per-component contraction of <x_t - x*, v_l> along a basis V.

    For each component l, pools all (run, iteration) pairs with
    ``|<d_t, v_l>| > 1e-10`` and returns the least-squares contraction
    ``sum(c_t * c_{t+1}) / sum(c_t^2)``, which estimates ``1 - lambda_l`` of
    the expected projection.  (The naive mean of pointwise ratios
    ``c_{t+1} / c_t`` targets the same quantity but has unbounded variance
    whenever a component crosses zero, so it never stabilizes.)
    """
    check_count(runs, "runs", 1)
    V = np.asarray(V, dtype=float)
    n = system.n
    if V.shape[0] != n:
        raise ValueError(f"basis rows {V.shape[0]} != system dimension {n}")
    if not np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-8):
        raise ValueError("basis columns must be orthonormal")
    cross = np.zeros(V.shape[1])
    energy = np.zeros(V.shape[1])
    counts = np.zeros(V.shape[1], dtype=int)
    for r in range(runs):
        _, log = solve(system, config, trial=r)
        c = log.err @ V  # (T+1, n_components)
        prev, cur = c[:-1], c[1:]
        valid = np.abs(prev) > 1e-10
        cross += np.sum(prev * cur * valid, axis=0)
        energy += np.sum(prev * prev * valid, axis=0)
        counts += valid.sum(axis=0)
    if np.any(counts == 0):
        dead = np.flatnonzero(counts == 0)
        raise ValueError(f"degenerate components (never above 1e-10): {dead.tolist()}")
    return cross / energy

