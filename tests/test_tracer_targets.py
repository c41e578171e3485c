"""What perfbench's tracer and its own tests read from the package must exist.

The tracer patches every ``TARGETS`` entry with
``getattr(import_module(mod), attr)`` and its hooks read result attributes,
so a deleted or renamed name breaks every traced benchmark run.  These tests
read ``TARGETS`` from the tracer's source, without importing perfbench, so
that such a change fails here instead.  ``perfbench/tests`` also reads the
binding ``solver.draw_sketch`` and rebuilds the ``rate-sweep`` runs from
``runner._grid`` and ``runner._cell_spec``, one ``solve`` call per run.
"""

import ast
import dataclasses
from importlib import import_module
from pathlib import Path

import pytest

from sketchsolve import sketch, solver
from sketchsolve.expcli import runner
from sketchsolve.expcli.config import parse_config
from sketchsolve.expcli.runner import ResultTable, run_experiment
from sketchsolve.matgen import gen_gaussian_unit_rows, make_system
from sketchsolve.newton import NewtonTrace
from sketchsolve.sketch import SketchSpec, SparseSketch, build_less_distribution
from sketchsolve.solver import IterLog, RateReport, SolverConfig
from sketchsolve.spectral import ProjectionEstimate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


TARGETS = _targets()

#: result attributes the tracer's hooks read
READ_ATTRIBUTES = [
    (ProjectionEstimate, "trials"),
    (RateReport, "short_tail"),
    (IterLog, "iterations"),
    (NewtonTrace, "f"),
    (NewtonTrace, "line_search_failures"),
    (SparseSketch, "k"),
    (SparseSketch, "s_drawn"),
    (SparseSketch, "nnz"),
]


@pytest.mark.parametrize("module, attr, span", TARGETS,
                         ids=[f"{module}.{attr}" for module, attr, _ in TARGETS])
def test_target_resolves(module, attr, span):
    assert callable(getattr(import_module(module), attr))


def test_write_csv_resolves():
    assert callable(ResultTable.write_csv)


@pytest.mark.parametrize("cls, name", READ_ATTRIBUTES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in READ_ATTRIBUTES])
def test_read_attribute_exists(cls, name):
    fields = {f.name for f in dataclasses.fields(cls)}
    assert name in fields or isinstance(getattr(cls, name, None), property)


#: perfbench's ``rate-sweep`` workload config at its warm-up size, seed 3
RATE_SWEEP_WARMUP = {
    "experiment": "rate_sweep",
    "master_seed": 3,
    "matrix": {"kind": "profile", "model": "lin.01", "m": 1000, "n": 50},
    "sketch": {"families": ["gaussian", "less_uniform", "row_sampling"],
               "k": [5, 10, 20], "s": [32]},
    "run": {"runs": 1, "tail": 50, "max_iters": 20, "stop_tol": 1e-5},
}


def test_solver_keeps_its_draw_sketch_binding():
    assert solver.draw_sketch is sketch.draw_sketch


def test_rate_sweep_runs_rebuild_from_grid_and_cell_spec(tmp_path, monkeypatch):
    cfg = parse_config(RATE_SWEEP_WARMUP)
    system = cfg.build_system()
    rebuilt = []
    for cell in runner._grid(cfg, system.m, system.n):
        spec = runner._cell_spec(cfg, cell, system, None)
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        rebuilt += [solver.solve(system, solver_cfg, trial=r)[1].iterations
                    for r in range(cfg.runs)]
    calls, solve = [], solver.solve

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append(result[1].iterations)
        return result

    monkeypatch.setattr(solver, "solve", counted)
    run_experiment(cfg, tmp_path)
    assert calls == rebuilt and sum(calls) > 0


@pytest.mark.parametrize("family", ["less", "less_uniform", "row_sampling"])
def test_sparse_solve_draws_once_per_block_through_draw_sketch(family, monkeypatch):
    # the tracer's sketch.draw counters see a run's sparse draws only through
    # sketch.draw_sketch, looked up at call time: one (b, k, s) draw per block
    A = gen_gaussian_unit_rows(60, 8, seed=5)
    system = make_system(A, seed=6)
    spec = SketchSpec(family, k=4, s=None if family == "row_sampling" else 6,
                      sampling=build_less_distribution(A) if family == "less" else None,
                      seed_stream=7)
    blocks, draw_sketch = [], sketch.draw_sketch

    def counted(*args, **kwargs):
        S = draw_sketch(*args, **kwargs)
        blocks.append(S.indices.shape[:-2] if isinstance(S, SparseSketch) else None)
        return S

    monkeypatch.setattr(sketch, "draw_sketch", counted)
    cfg = SolverConfig(sketch=spec, max_iters=37, stop_tol=1e-300)
    assert solver.solve(system, cfg, 1)[1].iterations == 37
    size = solver._STEP_BLOCK
    assert blocks == [(size,)] * (37 // size) + [(37 % size,)]
