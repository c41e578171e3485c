"""Benchmark of the sketchsolve CLI on three fixed experiment workloads.

    python3 perfbench/run.py --workload rate-sweep [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each;
                                                 # exits 1 if any check failed

Workloads (see ``workloads.py``): ``rate-sweep``, ``surrogate-large`` and
``newton-logistic``.  The CLI runs in this process, one experiment at a time,
with one grid cell at a time; thread environment variables are left as they
are and recorded.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

- ``run_s``: median wall time of one CLI invocation, after a reduced warm-up
  invocation, over the invocations expected to end within ``--seconds`` (at
  least three), scaled by the calibration loop timed just before it (see
  ``calibration.py``);
- ``setup_s``: median, over five fresh child processes, of importing
  sketchsolve, ``load_config``, ``build_system`` and (for ``less``)
  ``build_less_distribution``, each scaled by a calibration loop timed in
  the child just before it;
- ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` (failed over attempted checks) is printed with them; the gate
itself is in ``workloads.py``.  ``--trace 1`` runs the workload once untraced
and once under :class:`tracer.Tracer`, requires byte-identical CSVs from the
two, and reports the per-layer metrics, the tracing overhead and the run time
of a child process started with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, scaled
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, HERE, ROOT, WORKLOADS, Checks,
                       check_invocation, hash_outputs, load_reference, require_source)

WORK = HERE / ".work"
SETUP_REPEATS = 5
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- environment -------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    return ref_path.read_text(encoding="ascii").strip() if ref_path.is_file() else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": _git_revision(),
    }


# -- one CLI invocation --------------------------------------------------------


def invoke(main, argv: list[str], out: Path, wrap=None) -> tuple[int, float]:
    """Run the CLI into a fresh ``out``; returns (exit code, wall seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    rc = wrap(main, argv) if wrap else main(argv)
    return rc, time.perf_counter() - start


def warmed_cli(workload, seed: int, work: Path):
    """Write the workload's configs and run the reduced warm-up invocation.

    Returns ``(cli main, config path, warm-up exit code)``.
    """
    config = workload.write_config(work / "config.yaml", seed)
    warm = workload.write_config(work / "warmup.yaml", seed, warmup=True)
    from sketchsolve.expcli.cli import main

    rc, _ = invoke(main, workload.argv(warm, work / "warmup", seed), work / "warmup")
    return main, config, rc


def _child(args: list[str], env: dict | None = None) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, config: Path, seed: int) -> list[dict]:
    experiment = workload.config["experiment"]
    return [_child(["setup", str(config), experiment, str(seed)])
            for _ in range(SETUP_REPEATS)]


def _quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


# -- the two passes ------------------------------------------------------------


def timed_pass(workload, seed: int, seconds: float, work: Path, checks: Checks,
               reference: dict) -> tuple[dict, dict]:
    main, config, rc = warmed_cli(workload, seed, work)
    checks.check(rc == 0, f"warm-up: exit code {rc}")
    setup = measure_setup(workload, config, seed)
    out = work / "out"
    times: list[float] = []
    calibrations: list[float] = []
    first = None
    start = time.perf_counter()
    # start another invocation while it is expected to end inside the window
    while len(times) < MIN_REPEATS or (
            time.perf_counter() - start + statistics.median(times)
            + statistics.median(calibrations) <= seconds):
        calibrations.append(calibrate())
        rc, elapsed = invoke(main, workload.argv(config, out, seed), out)
        times.append(elapsed)
        label = f"repeat {len(times) - 1}"
        check_invocation(checks, workload, reference, rc, out, label)
        hashes = hash_outputs(out)
        if first is None:
            first = hashes
        else:
            checks.check(hashes == first, f"{label}: outputs differ from repeat 0")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_s = [scaled(t, c) for t, c in zip(times, calibrations)]
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(r["setup_s"] for r in setup),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    detail = {"run_s": _quartiles(run_s), "wall s per invocation": _quartiles(times),
              "calibration s": _quartiles(calibrations),
              "setup_s": _quartiles([r["setup_s"] for r in setup]),
              "wall s per set-up": _quartiles([r["wall_s"] for r in setup]),
              "peak_rss_mb": "whole process"}
    return metrics, detail


def traced_pass(workload, seed: int, work: Path, checks: Checks,
                reference: dict) -> tuple[dict, dict]:
    from tracer import ROOT_SPAN, Tracer

    main, config, rc = warmed_cli(workload, seed, work)
    checks.check(rc == 0, f"warm-up: exit code {rc}")
    plain_out, traced_out = work / "untraced", work / "traced"
    rc, plain_s = invoke(main, workload.argv(config, plain_out, seed), plain_out)
    check_invocation(checks, workload, reference, rc, plain_out, "untraced")
    with Tracer() as tracer:
        rc, traced_s = invoke(main, workload.argv(config, traced_out, seed), traced_out,
                              wrap=lambda fn, argv: tracer.call(ROOT_SPAN, fn, argv))
    check_invocation(checks, workload, reference, rc, traced_out, "traced")
    checks.check(hash_outputs(traced_out) == hash_outputs(plain_out),
                 "traced: outputs differ from the untraced run")
    tracer.write_spans(work / "spans.csv")

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    single = _child(["run", workload.name, str(seed), str(work / "blas1")], env=env)
    checks.check(single["rc"] == 0 and single["warmup_rc"] == 0,
                 f"OPENBLAS_NUM_THREADS=1 child: exit codes {single}")

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["blas.single_thread_run_s"] = single["run_s"]
    detail = {"untraced run_s": plain_s, "traced run_s": traced_s,
              "spans": len(tracer.spans)}
    return metrics, detail


# -- entry point ---------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process, then print one combined result.

    The combined line ANDs ``correct`` and sums the check counts; its metrics
    are keyed by workload.  Exits 1 if any workload failed a check or exited
    non-zero.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        rc = subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], check=False).returncode
        path = WORK / name / "result.json"
        result = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        combined["correct"] &= rc == 0 and result.get("correct") is True
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        combined["metrics"][name] = result.get("metrics", {})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sketchsolve CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measure for at least this long (timed pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_source()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    checks = Checks()
    load_before = _loadavg()
    if args.trace:
        metrics, detail = traced_pass(workload, args.seed, work, checks, reference)
    else:
        metrics, detail = timed_pass(workload, args.seed, args.seconds, work, checks,
                                     reference)
    units = metric_units()
    env = {**environment(), "loadavg_before": load_before, "loadavg_after": _loadavg(),
           "workload": workload.name, "seed": args.seed, "trace": args.trace}

    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]}")
    fail_frac = checks.failed / checks.attempted
    print(f"  {'fail_frac':42s} {fail_frac:>14.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    for name, text in detail.items():
        print(f"  # {name}: {text}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "env": env, "failures": checks.failures}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
