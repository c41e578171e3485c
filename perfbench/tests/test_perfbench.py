"""Tests of the benchmark itself: metric names, the tracer and the gate.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from workloads import (WORKLOADS, Checks, check_invocation, hash_outputs,  # noqa: E402
                       load_reference, require_source)

require_source()

import sketchsolve  # noqa: E402
from sketchsolve.expcli.cli import main as cli_main  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXTRA_LAYER_METRICS = {"trace.overhead_frac", "blas.single_thread_run_s"}
COUNT_METRICS_SUFFIXES = (".calls", ".numbers", ".entries", ".steps", ".runs", ".trials",
                          ".bytes", "_cells", "_failures", "_per_run", "_per_step",
                          "_frac")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced(workload, tmp_path: Path, seed: int = 3):
    """Traced run of the workload's reduced (warm-up) config."""
    config = workload.write_config(tmp_path / "config.yaml", seed, warmup=True)
    out = tmp_path / "out"
    with Tracer() as tracer:
        rc = tracer.call(ROOT_SPAN, cli_main, workload.argv(config, out, seed))
    assert rc == 0
    return tracer, out, config


def _public_bindings():
    bindings = {}
    for mod_name, module in list(sys.modules.items()):
        if module is not None and mod_name.startswith("sketchsolve"):
            for attr, value in vars(module).items():
                if callable(value):
                    bindings[(mod_name, attr)] = value
    from sketchsolve.expcli.runner import ResultTable

    bindings[("ResultTable", "write_csv")] = ResultTable.write_csv
    return bindings


def test_metric_names_and_units_are_well_formed():
    spec = _spec()
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in {**layer, **e2e}.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
    assert set(Tracer().metrics()) | EXTRA_LAYER_METRICS == set(layer)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_outputs_match_untraced(name, tmp_path):
    workload = WORKLOADS[name]
    first, out_a, config = _traced(workload, tmp_path / "a")
    second, out_b, _ = _traced(workload, tmp_path / "b")
    counts = {k: v for k, v in first.metrics().items()
              if k.endswith(COUNT_METRICS_SUFFIXES)}
    assert counts == {k: second.metrics()[k] for k in counts}
    assert counts["rng.stream.calls"] > 0
    assert counts["sketch.draw.numbers"] > 0

    plain = tmp_path / "plain"
    assert cli_main(workload.argv(config, plain, 3)) == 0
    assert hash_outputs(plain) == hash_outputs(out_a) == hash_outputs(out_b)


def test_solver_steps_equal_solver_logs(tmp_path):
    from sketchsolve.expcli.config import load_config
    from sketchsolve.expcli.runner import _cell_spec, _grid
    from sketchsolve.solver import SolverConfig, solve

    workload = WORKLOADS["rate-sweep"]
    tracer, _out, config = _traced(workload, tmp_path)
    cfg = load_config(config, experiment="rate_sweep", seed_override=3)
    system = cfg.build_system()
    runs = steps = 0
    for cell in _grid(cfg, system.m, system.n):
        spec = _cell_spec(cfg, cell, system, None)
        solver_cfg = SolverConfig(sketch=spec, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        for r in range(cfg.runs):
            steps += solve(system, solver_cfg, trial=r)[1].iterations
            runs += 1
    metrics = tracer.metrics()
    assert metrics["solver.runs"] == runs
    assert metrics["solver.steps"] == steps > 0
    assert metrics["solver.steps_per_run"] == steps / runs


def test_wrappers_are_removed_after_tracing():
    import sketchsolve.expcli.cli  # noqa: F401 - imports every module

    before = _public_bindings()
    with Tracer():
        traced = _public_bindings()
    assert _public_bindings() == before
    assert traced != before
    assert traced[("sketchsolve.solver", "draw_sketch")] is not sketchsolve.draw_sketch

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _public_bindings() == before


def _write_rate_table(out: Path, cells: dict, first_scale: float) -> None:
    lines = ["# meta", "matrix,family,k,s,rate,runs,tail,samples,short_tail"]
    for i, (key, stats) in enumerate(cells.items()):
        cell = dict(part.split("=", 1) for part in key.split("/"))
        rate = stats["rate"]["mean"] * (first_scale if i == 0 else 1.0)
        lines.append(f"lin.01,{cell['family']},{cell['k']},{cell['s']},{rate!r},20,50,1000,0")
    (out / "rate_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("rc, first_scale, failed", [(0, 1.0, 0), (0, 2.0, 1), (2, 1.0, 1)])
def test_gate_rejects_wrong_statistics_and_exit_codes(tmp_path, rc, first_scale, failed):
    workload = WORKLOADS["rate-sweep"]
    reference = load_reference()
    _write_rate_table(tmp_path, reference[workload.name]["cells"], first_scale)
    checks = Checks()
    check_invocation(checks, workload, reference, rc, tmp_path, "test")
    assert checks.failed == failed
