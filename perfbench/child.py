"""Child processes of the benchmark; each prints one JSON line on stdout.

    python3 perfbench/child.py setup <config.yaml> <experiment> <seed>
        Times a fresh process's set-up: import of sketchsolve, load_config,
        ExperimentConfig.build_system and, for a ``less`` family,
        build_less_distribution; the time is scaled by a calibration loop
        run just before it (see ``calibration.py``).

    python3 perfbench/child.py run <workload> <seed> <work_dir>
        One warm-up invocation of the CLI, then one timed invocation.  The
        parent starts it with a changed thread environment.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(config_path: str, experiment: str, seed: str) -> dict:
    from calibration import calibrate, scaled

    sys.path.insert(0, str(SRC))
    calibration_s = calibrate()
    start = time.perf_counter()
    import sketchsolve  # noqa: F401 - its import is part of set-up
    from sketchsolve.expcli.config import load_config
    from sketchsolve.sketch import build_less_distribution

    cfg = load_config(config_path, experiment=experiment, seed_override=int(seed))
    if experiment != "newton_demo":
        system = cfg.build_system()
        if "less" in cfg.families:
            build_less_distribution(system.A)
    elapsed = time.perf_counter() - start
    return {"setup_s": scaled(elapsed, calibration_s), "wall_s": elapsed}


def run(workload_name: str, seed: str, work_dir: str) -> dict:
    from run import invoke, warmed_cli
    from workloads import WORKLOADS, require_source

    require_source()
    workload, seed, out = WORKLOADS[workload_name], int(seed), Path(work_dir) / "out"
    main, config, warm_rc = warmed_cli(workload, seed, Path(work_dir))
    rc, run_s = invoke(main, workload.argv(config, out, seed), out)
    return {"run_s": run_s, "rc": rc, "warmup_rc": warm_rc}


if __name__ == "__main__":
    modes = {"setup": setup, "run": run}
    print(json.dumps(modes[sys.argv[1]](*sys.argv[2:])))
