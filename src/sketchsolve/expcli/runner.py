"""Experiment dispatch: ``run_experiment`` runs every experiment in three steps.

1. Set-up: it builds the linear system (``newton_demo`` has none),
   checks that the sketch fits its rows and takes the ``less`` leverage
   scores; the experiment's own set-up reads the system's factor or draws
   its data, runs its own input checks and returns its empty
   :class:`ResultTable`, the matrix label, the (m, n) its grid is built on
   and ``rows(cell, spec)``, whose dicts' keys are the table's value columns.
2. Output directory: made only after the set-up succeeded, so a
   configuration error writes nothing; A is not written (``build_system`` rebuilds it).
3. Per-cell rows: for each (family, k, s) grid cell in order, the value
   columns from ``rows`` behind the key columns ``matrix,family,k,s``.

Re-running with the same config and seed produces byte-identical files:
every random draw is keyed by (master_seed, cell index, ...), floats are
serialized with round-trip repr, and cells run and emit their rows in grid
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..matgen import LinearSystem
from ..newton import full_newton, logistic_objective, rho_certificate, rsn_solve
from ..randsvd import best_rank_error, err_km1, err_monte_carlo, err_upper_bound_min_p
from ..rng import child_seed, stream
from ..sketch import SketchSpec, build_less_distribution
from ..solver import SolverConfig, eigencomponent_decay, estimate_rate, solve
from ..spectral import (
    expected_projection,
    gamma_implicit,
    rate_bound_set,
    surrogate_eigenvalues,
    surrogate_vs_empirical,
)
from .config import ConfigError, ExperimentConfig, _check_rows

__all__ = ["ResultTable", "run_experiment"]


@dataclass
class ResultTable:
    """Ordered rows with unique grid keys; the header is the first row's keys."""

    name: str
    key_fields: list[str]
    rows: list[dict] = field(default_factory=list)
    meta_note: str = ""

    def validate(self) -> list[str]:
        """The header; RuntimeError if there are no rows, a row's columns differ
        from the header, a grid key repeats or a float is not finite."""
        if not self.rows:
            raise RuntimeError(f"{self.name}: no rows")
        columns = list(self.rows[0])
        seen = set()
        for row in self.rows:
            key = tuple(row.get(k) for k in self.key_fields)
            if list(row) != columns:
                raise RuntimeError(f"{self.name}: row {key} has columns {list(row)}, "
                                   f"not the header {columns}")
            if key in seen:
                raise RuntimeError(f"{self.name}: duplicate key {key}")
            seen.add(key)
            for col, val in row.items():
                if isinstance(val, float) and not math.isfinite(val):
                    raise RuntimeError(f"{self.name}: non-finite value in {col!r}: {key}")
        return columns

    def write_csv(self, path, meta: str) -> None:
        columns = self.validate()
        if self.meta_note:
            meta = f"{meta} {self.meta_note}"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {meta}\n")
            fh.write(",".join(columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row.values()) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):  # a bool is an int: 0 or 1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


#: the grid-key columns that every result row starts with
_KEY = ["matrix", "family", "k", "s"]


@dataclass(frozen=True)
class _Cell:
    index: int
    family: str
    k: int
    s: int | None


def _grid(cfg: ExperimentConfig, m: int, n: int) -> list[_Cell]:
    """Cells in deterministic order; s only varies for sparse families."""
    cells = []
    idx = 0
    default_s = min(m, math.ceil(n * math.log(n))) if n > 1 else 1  # at most the rows
    for family in cfg.families:
        for k in cfg.k_list:
            if family in ("gaussian", "rademacher"):
                s_values = [None]
            elif family == "row_sampling":
                s_values = [1]
            else:
                s_values = [v if v > 0 else m for v in cfg.s_list] or [default_s]
            for s in s_values:
                cells.append(_Cell(index=idx, family=family, k=k, s=s))
                idx += 1
    return cells


def _cell_spec(cfg: ExperimentConfig, cell: _Cell, system: LinearSystem,
               leverage_p: np.ndarray | None) -> SketchSpec:
    sampling = leverage_p if cell.family == "less" else None
    return SketchSpec(
        family=cell.family,
        k=cell.k,
        s=cell.s,
        sampling=sampling,
        seed_stream=child_seed(cfg.master_seed, 2, cell.index),
    )


def run_experiment(cfg: ExperimentConfig, out_dir) -> ResultTable:
    """Run the configured experiment, write its CSV to ``out_dir`` and return
    its table (the CSV file stem is ``table.name``)."""
    out = Path(out_dir)
    system, leverage_p = cfg.build_system(), None
    if system is not None:
        _check_rows(cfg, system.m)  # a dataset's rows are known only now
        if "less" in cfg.families:
            try:
                leverage_p = build_less_distribution(system.A, system.R)
            except ValueError as exc:
                raise ConfigError(f"sketch.families: less needs a full-column-rank A "
                                  f"({exc})") from exc
    table, label, (m, n), rows = _EXPERIMENTS[cfg.experiment](cfg, system)
    out.mkdir(parents=True, exist_ok=True)
    for cell in _grid(cfg, m, n):
        key = dict(zip(_KEY, (label, cell.family, cell.k, cell.s)))
        spec = _cell_spec(cfg, cell, system, leverage_p)
        table.rows += [{**key, **row} for row in rows(cell, spec)]
    meta = f"config_hash={cfg.config_hash} master_seed={cfg.master_seed} version={__version__}"
    table.write_csv(out / f"{table.name}.csv", meta)
    return table


# --- individual experiments: set-up, then rows(cell, spec) per grid cell ------


def _singular_values(cfg, system: LinearSystem) -> np.ndarray:
    """Singular values of A; ConfigError if a k exceeds their number."""
    sigma = system.sigma
    if max(cfg.k_list) > sigma.size:
        raise ConfigError(f"sketch.k: {max(cfg.k_list)} exceeds the {sigma.size} singular values of A")
    return sigma


def _exp_rate_sweep(cfg, system):
    if cfg.with_bounds:
        sigma = _singular_values(cfg, system)
        if max(cfg.k_list) - 1 >= system.rank:  # Err(A, k-1) is then roundoff
            raise ConfigError(f"sketch.k: the bounds need k - 1 < rank(A) = {system.rank}, "
                              f"got k = {max(cfg.k_list)}")

    def rows(cell, spec):
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        report = estimate_rate(system, solver_cfg, cfg.runs, cfg.tail)
        row = {
            "rate": report.empirical_rate,
            "runs": cfg.runs,
            "tail": cfg.tail,
            "samples": report.samples,
            "short_tail": report.short_tail,
        }
        if cfg.with_bounds:
            err = err_km1(system.A, cell.k, child_seed(spec.seed_stream, 3), cfg.err_trials,
                          system.R)
            bounds = rate_bound_set(sigma, cell.k, err.mean)
            row.update(
                bound_simple=bounds.simple,
                bound_gaussian=bounds.gaussian.bound,
                gaussian_epsilon=bounds.gaussian.epsilon,
                gaussian_epsilon_log10=bounds.gaussian.epsilon_log10,
                gaussian_vacuous=bounds.gaussian.vacuous,
                bound_surrogate=bounds.surrogate,
                err_mean=err.mean,
            )
        return [row]

    table = ResultTable("rate_sweep", _KEY, meta_note="rate_pooling=tail-steps-equal-weight")
    return table, cfg.matrix.label, (system.m, system.n), rows


def _rel_errs(system, spec, runs, n_iters, stop_tol) -> np.ndarray:
    """``(runs, n_iters + 1)`` relative errors; a run that stopped early holds
    its final value."""
    solver_cfg = SolverConfig(sketch=spec, max_iters=n_iters, stop_tol=stop_tol)
    errs = np.empty((runs, n_iters + 1))
    for r in range(runs):
        rel_err = solve(system, solver_cfg, trial=r)[1].rel_err
        errs[r, :rel_err.size] = rel_err
        errs[r, rel_err.size:] = rel_err[-1]
    return errs


def _spread(errs: np.ndarray) -> dict:
    """Mean, min and max over runs of one iteration's relative errors."""
    return {"rel_err_mean": float(errs.mean()), "rel_err_min": float(errs.min()),
            "rel_err_max": float(errs.max())}


def _exp_convergence_curves(cfg, system):
    def rows(cell, spec):
        errs = _rel_errs(system, spec, cfg.runs, cfg.max_iters, cfg.stop_tol)
        return [{"t": t, "runs": cfg.runs, **_spread(errs[:, t])}
                for t in range(cfg.max_iters + 1)]

    table = ResultTable("convergence_curves", _KEY + ["t"])
    return table, cfg.matrix.label, (system.m, system.n), rows


def _exp_surrogate_compare(cfg, system):
    if system.rank < system.n:  # E[P] is then singular: s_min = 0 and the gap is undefined
        raise ConfigError(f"matrix: surrogate-compare needs rank(A) = n, "
                          f"got {system.rank} < {system.n}")

    def rows(cell, spec):
        comp = surrogate_vs_empirical(system.A, spec, cfg.trials, cfg.err_trials, system.R)
        return [{
            "s_min": comp.s_min,
            "surrogate": comp.surrogate,
            "gap": comp.rel_gap,
            "gamma_mode": "monte_carlo_gamma",
            "trials": cfg.trials,
            "err_trials": cfg.err_trials,
        }]

    return ResultTable("surrogate_compare", _KEY), cfg.matrix.label, (system.m, system.n), rows


def _exp_sparsity_sweep(cfg, system):
    """Relative error after a fixed number of iterations, sparse vs. dense."""
    def rows(cell, spec):
        errs = _rel_errs(system, spec, cfg.runs, cfg.iters, stop_tol=1e-300)
        return [{"iters": cfg.iters, "runs": cfg.runs, **_spread(errs[:, -1])}]

    return ResultTable("sparsity_sweep", _KEY), cfg.matrix.label, (system.m, system.n), rows


def _exp_randsvd_err(cfg, system):
    sigma = _singular_values(cfg, system)
    fro_sq = float(np.sum(sigma**2))

    def rows(cell, spec):
        est = err_monte_carlo(system.A, spec, cfg.err_trials, system.R)
        bound, p = err_upper_bound_min_p(sigma, cell.k) if cell.k >= 4 else (None, None)
        return [{
            "trials": est.trials,
            "err_mean": est.mean,
            "err_stderr": est.stderr,
            "err_normalized": math.sqrt(max(est.mean, 0.0) / fro_sq),
            "best_rank_floor": best_rank_error(sigma, cell.k),
            "rf_bound": bound,
            "rf_bound_p": p,
        }]

    return ResultTable("randsvd_err", _KEY), cfg.matrix.label, (system.m, system.n), rows


def _exp_eigendecay(cfg, system):
    """Empirical per-eigencomponent contraction vs. spectral predictions."""
    if system.rank < min(system.m, system.n):  # components past rank(A) never contract
        raise ConfigError(f"matrix: eigendecay needs rank(A) = min(m, n), "
                          f"got {system.rank} < {min(system.m, system.n)}")
    _, svals, Vt = np.linalg.svd(system.R, full_matrices=False)  # A = Q R: same V
    sigma_sq = svals**2
    try:  # the surrogate's gamma needs k < rank(A)
        gamma_implicit(sigma_sq, max(cfg.k_list))
    except ValueError as exc:
        raise ConfigError(f"sketch.k: {exc}") from exc

    def rows(cell, spec):
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        contraction = eigencomponent_decay(system, solver_cfg, Vt.T, cfg.runs)
        est = expected_projection(system.A, spec.with_seed(
            child_seed(spec.seed_stream, 5)), cfg.trials, system.R)
        lam_sur = surrogate_eigenvalues(sigma_sq, gamma_implicit(sigma_sq, cell.k))
        return [
            {
                "l": l + 1,
                "sigma_l": float(svals[l]),
                "contraction": float(contraction[l]),
                "lambda_mc": float(est.eigenvalues[l]),
                "lambda_surrogate": float(lam_sur[l]),
            }
            for l in range(svals.size)
        ]

    return ResultTable("eigendecay", _KEY + ["l"]), cfg.matrix.label, (system.m, system.n), rows


def _exp_newton_demo(cfg, system):
    """RSN on seeded ridge-logistic data, with the spectral certificate."""
    nw = cfg.newton
    rng = stream(child_seed(cfg.master_seed, 4))
    X = rng.standard_normal((nw["n_samples"], nw["n_features"]))
    w_true = rng.standard_normal(nw["n_features"])
    y = np.sign(X @ w_true + 0.1 * rng.standard_normal(nw["n_samples"]))
    y[y == 0] = 1.0
    obj = logistic_objective(X, y, nw["ridge"])
    x_opt = full_newton(obj, np.zeros(obj.dim), tol=1e-12)
    f_star = obj.value(x_opt)
    H_opt = obj.hessian(x_opt)

    def rows(cell, spec):
        _, trace = rsn_solve(obj, np.zeros(obj.dim), spec,
                             max_iters=nw["max_iters"], tol=nw["tol"], trial=0)
        cert = rho_certificate(H_opt, spec.with_seed(child_seed(spec.seed_stream, 6)),
                               nw["cert_trials"])
        f_vals = np.asarray(trace.f)
        return [{
            "iters": len(trace.f),
            "f_star": f_star,
            "f_gap_final": float(f_vals[-1] - f_star),
            "grad_norm_final": trace.grad_norm[-1],
            "monotone": bool(np.all(np.diff(f_vals) <= 1e-12)),
            "line_search_failures": trace.line_search_failures,
            "rho_hat": cert.rho_hat,
            "refined_bound": cert.refined_bound,
            "crude_bound": cert.crude_bound,
            "epsilon": cert.epsilon,
            "cert_trials": nw["cert_trials"],
        }]

    label = f"logistic{nw['n_samples']}x{nw['n_features']}"
    return ResultTable("newton_demo", _KEY), label, (obj.dim, obj.dim), rows


_EXPERIMENTS = {
    "rate_sweep": _exp_rate_sweep,
    "convergence_curves": _exp_convergence_curves,
    "surrogate_compare": _exp_surrogate_compare,
    "sparsity_sweep": _exp_sparsity_sweep,
    "randsvd_err": _exp_randsvd_err,
    "eigendecay": _exp_eigendecay,
    "newton_demo": _exp_newton_demo,
}
