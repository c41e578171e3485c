"""Sketch-and-project iteration for linear systems in a general SPD metric.

Each step projects the iterate, in the B-metric, onto the solution set of a
freshly sketched subsystem ``S A x = S b``:

    x' = x - B^{-1} A^T S^T (S A B^{-1} A^T S^T)^+ S (A x - b)

Distances to the retained solution are logged per iteration, and the
empirical per-iteration contraction over the tail of many runs estimates the
stabilized convergence rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import solve_psd
from .matgen import LinearSystem
from .rng import KeyPath, as_key
from .sketch import SketchSpec, apply_sketch, draw_sketch, row_factor, sketch_times

__all__ = [
    "SolverConfig",
    "IterLog",
    "RateReport",
    "project_step",
    "solve",
    "estimate_rate",
    "eigencomponent_decay",
    "write_iter_logs",
]


@dataclass
class SolverConfig:
    """Iteration budget, stopping rule, and sketch family for one solve.

    ``stop_tol`` applies to the relative error ``||x_t - x*||_B / ||x*||_B``.
    ``record_components`` is an optional orthonormal basis V; when set, the
    log records the inner products of the error with each basis vector.
    """

    sketch: SketchSpec
    max_iters: int = 1000
    stop_tol: float = 1e-5
    record_components: np.ndarray | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")


@dataclass
class IterLog:
    """Per-iteration distances for one run (index 0 is the starting point)."""

    dist: np.ndarray
    rel_err: np.ndarray
    fallback: np.ndarray
    components: np.ndarray | None

    @property
    def iterations(self) -> int:
        return int(self.dist.size - 1)

    def csv_rows(self, run: int) -> list[dict]:
        return [
            {
                "run": run,
                "t": t,
                "dist": float(self.dist[t]),
                "rel_err": float(self.rel_err[t]),
                "fallback_flag": int(self.fallback[t]),
            }
            for t in range(self.dist.size)
        ]


@dataclass
class RateReport:
    """Pooled empirical contraction rate over the tail of several runs."""

    empirical_rate: float
    tail_length: int
    runs: int
    samples: int
    short_tail: bool


def _metric_chol(system: LinearSystem):
    if system.metric is None:
        return None
    return scipy.linalg.cho_factor(system.metric, check_finite=False)


def project_step(x: np.ndarray, system: LinearSystem, S, metric_chol=None):
    """One B-metric projection of ``x`` onto ``{x : S A x = S b}``.

    Returns ``(x', fallback)``; ``fallback`` is True when the inner k x k
    solve took the pseudoinverse path.
    """
    if metric_chol is None:
        metric_chol = _metric_chol(system)
    return _project(x, system, apply_sketch(S, system.A), apply_sketch(S, system.b),
                    metric_chol)


def _project(x: np.ndarray, system: LinearSystem, M: np.ndarray, Sb: np.ndarray,
             metric_chol):
    """:func:`project_step` given ``M = S A`` (k x n) and ``Sb = S b``."""
    n = system.n
    resid = M @ x - Sb
    if system.metric is None:
        W = M @ M.T
        z, fallback = solve_psd(W, resid, n_ambient=n)
        return x - M.T @ z, fallback
    Binv_Mt = scipy.linalg.cho_solve(metric_chol, M.T, check_finite=False)
    W = M @ Binv_Mt
    z, fallback = solve_psd(W, resid, n_ambient=n)
    return x - Binv_Mt @ z, fallback


def solve(system: LinearSystem, config: SolverConfig, trial: KeyPath = 0):
    """Run the iteration from x0 (default all zeros) with a fresh sketch per step.

    A pure function of (system, config, trial): iteration t draws its sketch
    from the stream keyed by ``(*trial, t)``.  A Gaussian step sketches the
    augmented ``[A | b]`` through its factor with ``sketch_times``, so S A and
    S b come from one k x (n+1) product (exact in law for any b and metric);
    the other families apply a drawn S to A and b as :func:`project_step` does.
    Returns the final iterate and the full :class:`IterLog`.
    """
    spec = config.sketch
    spec.validate(system.m)
    key = as_key(trial)
    n = system.n
    Ab = np.column_stack([system.A, system.b]) if spec.family == "gaussian" else None
    R = None if Ab is None else row_factor(Ab)
    x = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float).copy()
    x_star = system.x_star
    denom = system.metric_norm(x_star)
    chol = _metric_chol(system)
    V = config.record_components

    def rel(d: float) -> float:
        if denom > 0.0:
            return d / denom
        return 0.0 if d == 0.0 else float("inf")

    dist = [system.metric_norm(x - x_star)]
    rel_err = [rel(dist[0])]
    fall = [False]
    comps = [V.T @ (x - x_star)] if V is not None else None
    t = 0
    while t < config.max_iters and rel_err[-1] > config.stop_tol:
        if R is None:
            x, fb = project_step(x, system, draw_sketch(spec, system.m, key + (t,)), chol)
        else:
            SAb = sketch_times(spec, Ab, key + (t,), R)
            x, fb = _project(x, system, SAb[:, :n], SAb[:, n], chol)
        d = system.metric_norm(x - x_star)
        dist.append(d)
        rel_err.append(rel(d))
        fall.append(fb)
        if comps is not None:
            comps.append(V.T @ (x - x_star))
        t += 1
    log = IterLog(
        dist=np.asarray(dist),
        rel_err=np.asarray(rel_err),
        fallback=np.asarray(fall, dtype=bool),
        components=np.asarray(comps) if comps is not None else None,
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
        prev = d[-use - 1 : -1]
        cur = d[-use:]
        valid = prev > 0.0
        ratio = np.zeros(use)
        ratio[valid] = (cur[valid] / prev[valid]) ** 2
        samples.extend(1.0 - ratio[valid])
    rate = float(np.mean(samples))
    return RateReport(
        empirical_rate=float(np.clip(rate, 0.0, 1.0)),
        tail_length=tail,
        runs=runs,
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
    V = np.asarray(V, dtype=float)
    n = system.n
    if V.shape[0] != n:
        raise ValueError(f"basis rows {V.shape[0]} != system dimension {n}")
    if not np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-8):
        raise ValueError("basis columns must be orthonormal")
    cfg = SolverConfig(
        sketch=config.sketch,
        max_iters=config.max_iters,
        stop_tol=config.stop_tol,
        record_components=V,
        x0=config.x0,
    )
    cross = np.zeros(V.shape[1])
    energy = np.zeros(V.shape[1])
    counts = np.zeros(V.shape[1], dtype=int)
    for r in range(runs):
        _, log = solve(system, cfg, trial=r)
        c = log.components  # (T+1, n_components)
        prev, cur = c[:-1], c[1:]
        valid = np.abs(prev) > 1e-10
        cross += np.sum(prev * cur * valid, axis=0)
        energy += np.sum(prev * prev * valid, axis=0)
        counts += valid.sum(axis=0)
    if np.any(counts == 0):
        dead = np.flatnonzero(counts == 0)
        raise ValueError(f"degenerate components (never above 1e-10): {dead.tolist()}")
    return cross / energy


def write_iter_logs(path, logs: list[IterLog]) -> None:
    """Serialize runs to CSV with columns run,t,dist,rel_err,fallback_flag."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("run,t,dist,rel_err,fallback_flag\n")
        for run, log in enumerate(logs):
            for row in log.csv_rows(run):
                fh.write(
                    f"{row['run']},{row['t']},{row['dist']!r},"
                    f"{row['rel_err']!r},{row['fallback_flag']}\n"
                )
