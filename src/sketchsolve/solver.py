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

from .linalg import _certified, _lu_solve, solve_psd
from .matgen import LinearSystem
from .rng import KeyPath, as_key, streams
from .sketch import SketchSpec, _fill_times, apply_sketch, draw_sketch  # noqa: F401 (perfbench)

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
    x0: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)) \
                or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")


@dataclass
class IterLog:
    """Per-iteration errors for one run (index 0 is the starting point).

    ``err`` is the ``(T+1, n)`` path of errors ``x_t - x*``, and ``dist[t]``
    is ``system.metric_norm(err[t])``.
    """

    err: np.ndarray
    dist: np.ndarray
    rel_err: np.ndarray
    fallback: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.dist.size - 1)


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
    """Run the iteration from x0 (default all zeros) with a fresh sketch per step.

    A pure function of (system, config, trial): iteration t draws its sketch
    from the stream keyed by ``(*trial, t)``, seated in batches
    (:func:`rng.streams`).  Each step sketches the augmented ``[A | b]`` with
    ``sketch_times``, so S A and S b come from one k x (n+1) product
    (Gaussian steps through the system's factor of ``[A | b]``, exact in law
    for any b and metric), and then projects as :func:`_project` does: steps
    are drawn :data:`_STEP_BLOCK` at a time, one stacked Cholesky applies
    :func:`solve_psd`'s guard to each W_t, a certified step takes its LU
    solve directly (:data:`linalg._lu_solve`, as :func:`solve_psd` does), and
    any other step calls :func:`solve_psd`, which takes the pseudoinverse.
    Returns the final iterate and the full :class:`IterLog`.
    """
    spec = config.sketch
    spec.validate(system.m)
    key = as_key(trial)
    n = system.n
    x = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    Ab = system._augmented
    R = system._augmented_R if spec.family == "gaussian" else None
    x_star = system.x_star
    denom = system.metric_norm(x_star)
    Binv = None if system.metric is None else np.linalg.inv(system.metric)

    def rel(d: float) -> float:
        if denom > 0.0:
            return d / denom
        return 0.0 if d == 0.0 else float("inf")

    err = [x - x_star]
    dist = [system.metric_norm(err[0])]
    rel_err = [rel(dist[0])]
    fall = [False]
    rngs = streams(spec.seed_stream, (key + (t,) for t in range(config.max_iters)))
    for lo in range(0, config.max_iters, _STEP_BLOCK):
        if not rel_err[-1] > config.stop_tol:
            break
        SAb = np.empty((min(_STEP_BLOCK, config.max_iters - lo), spec.k, n + 1))
        _fill_times(spec, Ab, rngs, R, SAb)
        M, c = SAb[:, :, :n], SAb[:, :, n]
        Mt = M.transpose(0, 2, 1) if Binv is None else Binv @ M.transpose(0, 2, 1)
        W = M @ Mt
        ok = _certified(W).tolist()  # each W_t's own verdict, as solve_psd reads it
        for i in range(len(SAb)):
            r = M[i] @ x - c[i]
            if ok[i]:  # solve_psd's certified branch, without certifying again
                z, fb = _lu_solve(W[i], r), False
            else:
                z, fb = solve_psd(W[i], r, n_ambient=n)
            x = x - Mt[i] @ z
            err.append(x - x_star)
            d = system.metric_norm(err[-1])
            dist.append(d)
            rel_err.append(rel(d))
            fall.append(fb)
            if not rel_err[-1] > config.stop_tol:
                break
    log = IterLog(
        err=np.asarray(err),
        dist=np.asarray(dist),
        rel_err=np.asarray(rel_err),
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
    if runs < 1 or tail < 1:
        raise ValueError("runs and tail must be >= 1")
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
        # every step ran while rel_err > stop_tol > 0, so no prev is 0
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
    if runs < 1:
        raise ValueError("runs must be >= 1")
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

