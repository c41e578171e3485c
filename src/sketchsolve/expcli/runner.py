"""Experiment dispatch: builds the matrix/system once, fans out over the
(family, k, s) grid, and writes one deterministic CSV per output table.

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
from ..matgen import LinearSystem, save_matrix_csv
from ..newton import full_newton, logistic_objective, rho_certificate, rsn_solve
from ..randsvd import best_rank_error, err_monte_carlo, err_upper_bound_min_p
from ..rng import child_seed, stream
from ..sketch import SketchSpec, build_less_distribution, row_factor
from ..solver import SolverConfig, eigencomponent_decay, estimate_rate, solve
from ..spectral import (
    expected_projection,
    gamma_implicit,
    rate_bound_set,
    surrogate_eigenvalues,
    surrogate_vs_empirical,
    worst_case_rate,
)
from .config import ConfigError, ExperimentConfig

__all__ = ["ResultTable", "run_experiment"]


@dataclass
class ResultTable:
    """Ordered rows with a fixed column schema and unique grid keys."""

    name: str
    columns: list[str]
    key_fields: list[str]
    rows: list[dict] = field(default_factory=list)
    meta_note: str = ""

    def extend(self, rows: list[dict]) -> None:
        self.rows.extend(rows)

    def validate(self) -> None:
        seen = set()
        for row in self.rows:
            key = tuple(row.get(k) for k in self.key_fields)
            if key in seen:
                raise RuntimeError(f"{self.name}: duplicate key {key}")
            seen.add(key)
            for col, val in row.items():
                if isinstance(val, float) and not math.isfinite(val):
                    raise RuntimeError(f"{self.name}: non-finite value in {col!r}: {key}")

    def write_csv(self, path, meta: str) -> None:
        self.validate()
        if self.meta_note:
            meta = f"{meta} {self.meta_note}"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {meta}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row.get(c)) for c in self.columns) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


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
    default_s = max(1, math.ceil(n * math.log(n))) if n > 1 else 1
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


def _key(matrix: str, cell: _Cell) -> dict:
    """The grid-key columns that every result row starts with."""
    return {"matrix": matrix, "family": cell.family, "k": cell.k, "s": cell.s}


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict[str, ResultTable]:
    """Run the configured experiment and write its CSV outputs to ``out_dir``.

    Returns the result tables keyed by output name (the CSV file stem).
    """
    out = Path(out_dir)
    if cfg.experiment == "newton_demo":
        out.mkdir(parents=True, exist_ok=True)
        system, leverage_p = None, None
    else:
        system = cfg.build_system()
        if max(cfg.k_list) > system.m:  # a dataset's rows are known only now
            raise ConfigError(
                f"sketch.k: {max(cfg.k_list)} exceeds the {system.m} rows the sketch acts on")
        out.mkdir(parents=True, exist_ok=True)
        save_matrix_csv(out / "matrix.csv", system.A)  # cache of the built A
        leverage_p = (
            build_less_distribution(system.A).probabilities
            if "less" in cfg.families
            else None
        )
    runner = _RUNNERS[cfg.experiment]
    tables = runner(cfg, system, leverage_p)
    meta = f"config_hash={cfg.config_hash} master_seed={cfg.master_seed} version={__version__}"
    for name, table in tables.items():
        table.write_csv(out / f"{name}.csv", meta)
    return tables


# --- individual experiments -------------------------------------------------


def _exp_rate_sweep(cfg, system, leverage_p):
    cells = _grid(cfg, system.m, system.n)
    sigma = np.linalg.svd(system.A, compute_uv=False)
    R = row_factor(system.A) if cfg.with_bounds else None

    def one(cell: _Cell) -> dict:
        spec = _cell_spec(cfg, cell, system, leverage_p)
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        report = estimate_rate(system, solver_cfg, cfg.runs, cfg.tail)
        row = {
            **_key(cfg.matrix.label, cell),
            "rate": report.empirical_rate,
            "runs": report.runs,
            "tail": report.tail_length,
            "samples": report.samples,
            "short_tail": report.short_tail,
        }
        if cfg.with_bounds:
            err_spec = SketchSpec(family="gaussian", k=max(cell.k - 1, 1),
                                  seed_stream=child_seed(spec.seed_stream, 3))
            err = err_monte_carlo(system.A, cell.k - 1, err_spec, cfg.err_trials, R)
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
        return row

    columns = ["matrix", "family", "k", "s", "rate", "runs", "tail", "samples", "short_tail"]
    if cfg.with_bounds:
        columns += ["bound_simple", "bound_gaussian", "gaussian_epsilon",
                    "gaussian_epsilon_log10", "gaussian_vacuous",
                    "bound_surrogate", "err_mean"]
    table = ResultTable("rate_sweep", columns, ["matrix", "family", "k", "s"],
                        meta_note="rate_pooling=tail-steps-equal-weight")
    table.extend(map(one, cells))
    return {"rate_sweep": table}


def _curve_rows(cfg, system, cell, spec, n_iters, stop_tol):
    """Per-iteration mean/min/max relative error over runs (stopped runs hold
    their final value)."""
    solver_cfg = SolverConfig(sketch=spec, max_iters=n_iters, stop_tol=stop_tol)
    errs = np.empty((cfg.runs, n_iters + 1))
    for r in range(cfg.runs):
        _, log = solve(system, solver_cfg, trial=r)
        padded = np.concatenate([
            log.rel_err,
            np.full(n_iters + 1 - log.rel_err.size, log.rel_err[-1]),
        ])
        errs[r] = padded
    return [
        {
            **_key(cfg.matrix.label, cell),
            "t": t,
            "runs": cfg.runs,
            "rel_err_mean": float(errs[:, t].mean()),
            "rel_err_min": float(errs[:, t].min()),
            "rel_err_max": float(errs[:, t].max()),
        }
        for t in range(n_iters + 1)
    ]


def _exp_convergence_curves(cfg, system, leverage_p):
    cells = _grid(cfg, system.m, system.n)

    def one(cell: _Cell):
        spec = _cell_spec(cfg, cell, system, leverage_p)
        return _curve_rows(cfg, system, cell, spec, cfg.max_iters, cfg.stop_tol)

    table = ResultTable(
        "convergence_curves",
        ["matrix", "family", "k", "s", "t", "runs",
         "rel_err_mean", "rel_err_min", "rel_err_max"],
        ["matrix", "family", "k", "s", "t"],
    )
    for cell in cells:
        table.extend(one(cell))
    return {"convergence_curves": table}


def _exp_surrogate_compare(cfg, system, leverage_p):
    cells = _grid(cfg, system.m, system.n)
    R = row_factor(system.A)

    def one(cell: _Cell) -> dict:
        spec = _cell_spec(cfg, cell, system, leverage_p)
        comp = surrogate_vs_empirical(system.A, spec, cfg.trials, cfg.err_trials, R)
        return {
            **_key(cfg.matrix.label, cell),
            "s_min": comp.s_min,
            "surrogate": comp.surrogate,
            "gap": comp.rel_gap,
            "gamma_mode": comp.gamma_mode,
            "trials": comp.trials,
            "err_trials": comp.err_trials,
        }

    table = ResultTable(
        "surrogate_compare",
        ["matrix", "family", "k", "s", "s_min", "surrogate", "gap",
         "gamma_mode", "trials", "err_trials"],
        ["matrix", "family", "k", "s"],
    )
    table.extend(map(one, cells))
    return {"surrogate_compare": table}


def _exp_sparsity_sweep(cfg, system, leverage_p):
    """Relative error after a fixed number of iterations, sparse vs. dense."""
    cells = _grid(cfg, system.m, system.n)

    def one(cell: _Cell):
        spec = _cell_spec(cfg, cell, system, leverage_p)
        rows = _curve_rows(cfg, system, cell, spec, cfg.iters, stop_tol=1e-300)
        final = rows[-1]
        final["iters"] = cfg.iters
        return final

    table = ResultTable(
        "sparsity_sweep",
        ["matrix", "family", "k", "s", "iters", "runs",
         "rel_err_mean", "rel_err_min", "rel_err_max"],
        ["matrix", "family", "k", "s"],
    )
    rows = [one(cell) for cell in cells]
    for row in rows:
        del row["t"]
    table.extend(rows)
    return {"sparsity_sweep": table}


def _exp_randsvd_err(cfg, system, leverage_p):
    cells = _grid(cfg, system.m, system.n)
    sigma = np.linalg.svd(system.A, compute_uv=False)
    fro_sq = float(np.sum(sigma**2))
    R = row_factor(system.A)

    def one(cell: _Cell) -> dict:
        spec = _cell_spec(cfg, cell, system, leverage_p)
        est = err_monte_carlo(system.A, cell.k, spec, cfg.err_trials, R)
        row = {
            **_key(cfg.matrix.label, cell),
            "trials": est.trials,
            "err_mean": est.mean,
            "err_stderr": est.stderr,
            "err_normalized": math.sqrt(max(est.mean, 0.0) / fro_sq),
            "best_rank_floor": best_rank_error(sigma, cell.k),
        }
        if cell.k >= 4:
            bound, p = err_upper_bound_min_p(sigma, cell.k)
            row["rf_bound"], row["rf_bound_p"] = bound, p
        else:
            row["rf_bound"] = row["rf_bound_p"] = None
        return row

    table = ResultTable(
        "randsvd_err",
        ["matrix", "family", "k", "s", "trials", "err_mean", "err_stderr",
         "err_normalized", "best_rank_floor", "rf_bound", "rf_bound_p"],
        ["matrix", "family", "k", "s"],
    )
    table.extend(map(one, cells))
    return {"randsvd_err": table}


def _exp_eigendecay(cfg, system, leverage_p):
    """Empirical per-eigencomponent contraction vs. spectral predictions."""
    cells = _grid(cfg, system.m, system.n)
    _, svals, Vt = np.linalg.svd(system.A, full_matrices=False)
    V = Vt.T
    sigma_sq = svals**2
    R = row_factor(system.A)

    def one(cell: _Cell):
        spec = _cell_spec(cfg, cell, system, leverage_p)
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        contraction = eigencomponent_decay(system, solver_cfg, V, cfg.runs)
        est = expected_projection(system.A, spec.with_seed(
            child_seed(spec.seed_stream, 5)), cfg.trials, R)
        lam_mc = est.eigenvalues
        gamma = gamma_implicit(sigma_sq, cell.k)
        lam_sur = surrogate_eigenvalues(sigma_sq, gamma)
        return [
            {
                **_key(cfg.matrix.label, cell),
                "l": l + 1,
                "sigma_l": float(svals[l]),
                "contraction": float(contraction[l]),
                "lambda_mc": float(lam_mc[l]),
                "lambda_surrogate": float(lam_sur[l]),
            }
            for l in range(V.shape[1])
        ]

    table = ResultTable(
        "eigendecay",
        ["matrix", "family", "k", "s", "l", "sigma_l", "contraction",
         "lambda_mc", "lambda_surrogate"],
        ["matrix", "family", "k", "s", "l"],
    )
    for cell in cells:
        table.extend(one(cell))
    return {"eigendecay": table}


def _exp_newton_demo(cfg, system, leverage_p):
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
    cells = _grid(cfg, obj.dim, obj.dim)

    def one(cell: _Cell) -> dict:
        spec = _cell_spec(cfg, cell, system, leverage_p)
        x, trace = rsn_solve(obj, np.zeros(obj.dim), spec,
                             max_iters=nw["max_iters"], tol=nw["tol"], trial=0)
        cert = rho_certificate(H_opt, spec.with_seed(child_seed(spec.seed_stream, 6)),
                               nw["cert_trials"])
        f_vals = np.asarray(trace.f)
        return {
            **_key(f"logistic{nw['n_samples']}x{nw['n_features']}", cell),
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
            "cert_trials": cert.trials,
        }

    table = ResultTable(
        "newton_demo",
        ["matrix", "family", "k", "s", "iters", "f_star", "f_gap_final",
         "grad_norm_final", "monotone", "line_search_failures", "rho_hat",
         "refined_bound", "crude_bound", "epsilon", "cert_trials"],
        ["matrix", "family", "k", "s"],
    )
    table.extend(map(one, cells))
    return {"newton_demo": table}


_RUNNERS = {
    "rate_sweep": _exp_rate_sweep,
    "convergence_curves": _exp_convergence_curves,
    "surrogate_compare": _exp_surrogate_compare,
    "sparsity_sweep": _exp_sparsity_sweep,
    "randsvd_err": _exp_randsvd_err,
    "eigendecay": _exp_eigendecay,
    "newton_demo": _exp_newton_demo,
}
