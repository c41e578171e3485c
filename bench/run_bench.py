"""Per-layer timings of RNG stream seating, the sketch apply, the Monte-Carlo
trial kernel, a solver run, one RSN step, a short RSN solve and the RSN rate
certificate, and end-to-end timings of the seven experiments, for this
checkout and, optionally, a parent checkout to compare against.

    python3 bench/run_bench.py --out BENCH.json [--parent-src DIR] [--rounds N]

``DIR`` is the ``src`` directory of another checkout (for example one made
with ``git archive``).  Each source tree is timed in its own child process,
and the trees alternate over ``--rounds`` rounds; every number is the median
over rounds of a per-call median.  Just before each case the child also
times the fixed pure-Python loop of ``perfbench/calibration.py``; the
calibrated numbers scale each per-call median by that loop's reference time
over its measured time, which cancels most of the drift in the speed of one
core on a shared host.  Cases, on two matrices with polynomially decaying
spectra (1000 x 50 and 4096 x 128) and k in {5, 10, 20, 40}:

- ``stream/per_key/k=<k>``: ``rng.stream`` for one ``(run, t)`` key plus a
  k x 51 Gaussian draw from it (one step's draw on an n = 50 system, as
  solver steps drew before each run had one stream);
- ``stream/batched/k=<k>``: the same draws from ``rng.streams(7, (3,), 128)``,
  per key (or from the same 128 keys, for a tree whose ``streams`` takes keys);
- ``apply_sketch/<size>/<family>/k=<k>``: ``apply_sketch(S, A)`` for a freshly
  drawn sketch (the draw is outside the timed region; ``less`` and
  ``less_uniform`` use s = 32);
- ``draw_apply/...``: ``apply_sketch(draw_sketch(...), A)``, so that work a
  tree does while building a sketch is counted too;
- ``expected_projection/...`` and ``err_monte_carlo/...``: one call with 16
  trials (one trial block), which includes factoring A where the call needs
  its factor; ``.../given_R`` passes a precomputed factor;
- ``sketched_bases/...``: one block of 16 trials from the trial kernel alone,
  with the factor given (Gaussian sketches draw through it);
- ``solve/1000x50/<family>/k=<k>``: one ``solve`` run of 64 steps (stop
  tolerance 1e-300) on a system built once, after one untimed run, so a
  tree that keeps the ``[A | b]`` factor with the system has it warm;
- ``block_fill/1000x50/<family>/k=<k>``: one block of ``SOLVE_BLOCK`` solver
  steps' products ``S_t [A | b]`` from ``sketch._sketch_blocks`` on a fresh
  run stream (drawn whole, or step by step for a tree whose blocks take an
  iterator of Generators), on the system's own ``[A | b]`` and factor;
- ``solve_psd/k=<k>``: one ``solve_psd`` on the certified k x k system
  ``W z = r`` of one Gaussian solver step on that 1000 x 50 system;
- ``row_factor/<size>``: the factorization alone;
- ``gen_matrix/<size>``: ``gen_spectral_matrix`` alone (the Gaussian draws,
  both orthonormal frames and the product U diag(sigma) V^T);
- ``set_up/<size>``: ``make_system`` plus ``build_less_distribution`` given the
  system's factor, the set-up of a CLI run with a ``less`` family;
- ``rsn_step/<family>/k=<k>``: one ``rsn_step`` on a ridge-logistic objective
  with N = 2000 samples and d = 100 features, for ``gaussian`` and
  ``less_uniform`` (s = 8) sketches with k in {5, 10, 20}, drawn outside the
  timed region;
- ``rsn_solve/<family>/k=<k>``: 20 steps of ``rsn_solve`` with ``tol=0`` from
  the same point on that objective, same families and k, which includes the
  sketch draws and the line search;
- ``rho_certificate/<family>/k=<k>``: one ``rho_certificate`` with 400
  trials (the ``newton_demo`` default) on the Hessian of that objective, same
  families and k;
- ``cli/<experiment>``: ``run_experiment(parse_config(raw), tmpdir)`` for each
  of the seven experiments on a small config (``CLI_GRID``, or ``CLI_NEWTON``
  for ``newton_demo``), which includes building the system and writing the
  CSVs; BLAS threads are left as the environment sets them.

The output records nproc, the BLAS build, the thread environment variables,
package versions and the net line count of each tree's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import inspect
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((1000, 50), (4096, 128))
KS = (5, 10, 20, 40)
FAMILIES = ("gaussian", "rademacher", "less", "less_uniform", "row_sampling")
BLOCK_TRIALS = 16
REPEATS = 5
TARGET_S = 0.02  # wall time of one timed repeat
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RSN_SHAPE = (2000, 100)  # logistic samples x features
RSN_FAMILIES = ("gaussian", "less_uniform")
RSN_KS = (5, 10, 20)
RSN_S = 8
RSN_SOLVE_STEPS = 20
STREAM_KEYS = 128
SOLVE_SIZE = (1000, 50)
SOLVE_STEPS = 64
SOLVE_BLOCK = 8  # solver._STEP_BLOCK
CERT_TRIALS = 400
CLI_SKETCH = {"families": ["gaussian", "less_uniform"], "k": [4, 10], "s": [8]}
CLI_GRID = {"matrix": {"kind": "profile", "model": "poly1.5", "m": 200, "n": 20},
            "sketch": CLI_SKETCH,
            "run": {"runs": 5, "tail": 20, "max_iters": 200, "trials": 64, "err_trials": 10,
                    "iters": 20, "with_bounds": True}}
CLI_NEWTON = {"sketch": CLI_SKETCH,
              "newton": {"n_samples": 300, "n_features": 20, "max_iters": 50, "cert_trials": 40}}

sys.path.insert(0, str(ROOT / "perfbench"))
from calibration import calibrate, scaled  # noqa: E402


def environment() -> dict:
    import numpy as np

    try:  # recorded for reference only; the package does not use scipy
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def _per_call(run, prepare=None) -> float:
    """Median seconds per call of ``run(item)`` over items from ``prepare(n)``;
    fresh items for every repeat, made outside the timed region."""
    prepare = prepare or (lambda n: [None] * n)
    start = time.perf_counter()
    for item in prepare(1):
        run(item)
    n = max(1, min(200, int(TARGET_S / max(time.perf_counter() - start, 1e-6))))
    times = []
    for _ in range(REPEATS):
        items = prepare(n)
        start = time.perf_counter()
        for item in items:
            run(item)
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times)


def measure() -> dict:
    """Every case for the sketchsolve found first on ``sys.path``: seconds per
    call (``raw``) and the calibration loop timed just before it (``calibration_s``)."""
    import numpy as np

    from sketchsolve import rng as rng_module
    from sketchsolve import sketch as sketch_module
    from sketchsolve.linalg import solve_psd
    from sketchsolve.matgen import SpectralProfile, gen_spectral_matrix, make_system
    from sketchsolve.newton import logistic_objective, rho_certificate, rsn_solve, rsn_step
    from sketchsolve.randsvd import err_monte_carlo
    from sketchsolve.sketch import (SketchSpec, apply_sketch, build_less_distribution,
                                    draw_sketch, row_factor, sketch_times, sketched_bases)
    from sketchsolve.solver import SolverConfig, solve
    from sketchsolve.spectral import expected_projection

    out = {"raw": {}, "calibration_s": {}}

    def case(name, run, prepare=None, keys=1):
        out["calibration_s"][name] = calibrate()
        out["raw"][name] = _per_call(run, prepare) / keys

    keyed_streams = "keys" in inspect.signature(rng_module.streams).parameters  # an older tree
    # a tree whose solver blocks draw step by step takes an iterator of Generators
    whole_blocks = "block" in inspect.signature(sketch_times).parameters

    def block_fill(spec, system, g):
        R = system._augmented_R if spec.family == "gaussian" else None
        rngs = g if whole_blocks else itertools.repeat(g)
        return next(sketch_module._sketch_blocks(spec, system._augmented, rngs, SOLVE_BLOCK,
                                                 R, SOLVE_BLOCK))

    def batched_streams():
        if keyed_streams:
            return rng_module.streams(7, ((3, t) for t in range(STREAM_KEYS)))
        return rng_module.streams(7, (3,), STREAM_KEYS)

    for k in KS:
        case(f"stream/per_key/k={k}",
             lambda t: rng_module.stream(7, (3, t)).standard_normal((k, 51)), range)
        case(f"stream/batched/k={k}",
             lambda _: [g.standard_normal((k, 51)) for g in batched_streams()],
             keys=STREAM_KEYS)

    for m, n in SIZES:
        size = f"{m}x{n}"
        A = gen_spectral_matrix(SpectralProfile.polynomial(1.5, n), m, seed=1)
        p = build_less_distribution(A)
        R = row_factor(A)
        case(f"row_factor/{size}", lambda _: row_factor(A))

        def set_up(_):
            system = make_system(A, seed=2)
            build_less_distribution(system.A, system.R)

        case(f"gen_matrix/{size}",
             lambda _: gen_spectral_matrix(SpectralProfile.polynomial(1.5, n), m, seed=1))
        case(f"set_up/{size}", set_up)
        system = make_system(A, seed=2) if (m, n) == SOLVE_SIZE else None
        for family in FAMILIES:
            for k in KS:
                spec = SketchSpec(family, k=k, s=32 if family.startswith("less") else None,
                                  sampling=p if family == "less" else None, seed_stream=7)
                cell = f"{size}/{family}/k={k}"
                case(f"apply_sketch/{cell}", lambda S: apply_sketch(S, A),
                     lambda count: [draw_sketch(spec, m, t) for t in range(count)])
                case(f"draw_apply/{cell}", lambda t: apply_sketch(draw_sketch(spec, m, t), A),
                     range)
                for fn in (expected_projection, err_monte_carlo):
                    case(f"{fn.__name__}/{cell}", lambda _: fn(A, spec, BLOCK_TRIALS))
                    case(f"{fn.__name__}/{cell}/given_R",
                         lambda _: fn(A, spec, BLOCK_TRIALS, R=R))
                case(f"sketched_bases/{cell}",
                     lambda _: list(sketched_bases(spec, A, BLOCK_TRIALS, R)))
                if system is not None:
                    solver_cfg = SolverConfig(sketch=spec, max_iters=SOLVE_STEPS, stop_tol=1e-300)
                    case(f"solve/{cell}", lambda _: solve(system, solver_cfg, 0))
                    case(f"block_fill/{cell}", lambda g: block_fill(spec, system, g),
                         lambda count: [rng_module.stream(7, (t, 0)) for t in range(count)])
        if system is not None:
            Ab = np.column_stack([system.A, system.b])
            R_ab = row_factor(Ab)
            for k in KS:
                spec = SketchSpec("gaussian", k=k, seed_stream=7)
                SAb = sketch_times(spec, Ab, (0, 0), R_ab)
                M, r = SAb[:, :n], -SAb[:, n]  # the step's r = M x - S b at x = 0
                W = M @ M.T
                case(f"solve_psd/k={k}", lambda _: solve_psd(W, r, n_ambient=n))

    rng = np.random.default_rng(1)
    N, d = RSN_SHAPE
    X = rng.standard_normal((N, d))
    y = np.where(X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(N) >= 0.0, 1.0, -1.0)
    obj = logistic_objective(X, y, ridge=0.01)
    x = 0.1 * rng.standard_normal(d)
    H = obj.hessian(x)
    for family in RSN_FAMILIES:
        for k in RSN_KS:
            spec = SketchSpec(family, k=k, s=RSN_S, seed_stream=7)
            case(f"rsn_step/{family}/k={k}", lambda S: rsn_step(obj, x, S),
                 lambda count: [draw_sketch(spec, d, t) for t in range(count)])
            case(f"rsn_solve/{family}/k={k}",
                 lambda _: rsn_solve(obj, x, spec, max_iters=RSN_SOLVE_STEPS, tol=0.0))
            case(f"rho_certificate/{family}/k={k}",
                 lambda _: rho_certificate(H, spec, CERT_TRIALS))

    from sketchsolve.expcli.config import EXPERIMENTS, parse_config
    from sketchsolve.expcli.runner import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        for experiment in EXPERIMENTS:
            raw = {**(CLI_NEWTON if experiment == "newton_demo" else CLI_GRID),
                   "experiment": experiment, "master_seed": 1}
            case(f"cli/{experiment}", lambda _: run_experiment(parse_config(raw), tmp))
    return out


def run_child(src: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--parent-src", type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.child))
        print(json.dumps(measure()))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {"change": ROOT / "src"}
    if args.parent_src is not None:
        trees = {"parent": args.parent_src.resolve(), **trees}
    runs = {name: [] for name in trees}
    for i in range(args.rounds):
        for name in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            runs[name].append(run_child(trees[name]))
            print(f"round {i + 1}/{args.rounds}: {name} done", file=sys.stderr)
    results = {}
    for key in runs["change"][0]["raw"]:
        have = {name: rs for name, rs in runs.items() if key in rs[0]["raw"]}
        row = {name: statistics.median(r["raw"][key] for r in rs) * 1e6
               for name, rs in have.items()}
        row.update({f"{name}_cal": statistics.median(
            scaled(r["raw"][key], r["calibration_s"][key]) for r in rs) * 1e6
            for name, rs in have.items()})
        if "parent" in row:
            row["ratio"] = row["change"] / row["parent"]
            row["ratio_cal"] = row["change_cal"] / row["parent_cal"]
        results[key] = row
    report = {
        "command": (f"python3 bench/run_bench.py --out {args.out.name} --rounds {args.rounds}"
                    + (" --parent-src <parent checkout>/src" if "parent" in trees else "")),
        "unit": "us per call",
        "calibrated_unit": "us per call, scaled to a calibration loop of "
                           "CALIBRATION_REF_S (perfbench/calibration.py)",
        "rounds": args.rounds,
        "block_trials": BLOCK_TRIALS,
        "environment": environment(),
        "src_lines": {name: src_lines(src) for name, src in trees.items()},
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
