"""Judge whether two source trees' solver outputs follow the same law across seeds.

    python3 bench/judge_outputs.py PARENT_SRC [CHANGE_SRC]

A change that moves the solver's draws on purpose moves its output bytes, so
``diff_outputs.py`` can only say that they moved.  This script runs both trees
(``src`` directories, as there; ``CHANGE_SRC`` defaults to this checkout's) at
the held-out seeds :data:`SEEDS`, which are none of 1, 4242 and the
``perfbench/reference.json`` seeds 1000-1015: the ``perfbench`` ``rate-sweep``
config, and the ``rate_sweep``, ``convergence_curves``, ``sparsity_sweep``
and ``eigendecay`` runs of ``diff_outputs.GRID``.  Each tree runs in its own
child process (``diff_outputs.py --child``) with ``PYTHONDONTWRITEBYTECODE=1``
and ``OPENBLAS_NUM_THREADS=1``.

For each row of each result table and each numeric column, the two
across-seed samples are compared by Welch's z, the difference of their means
over its standard error.  A column that is constant in both trees must hold
the same value in both, and so must every non-numeric column.  The script
prints the number of comparisons and the largest |z| with its place, and
exits 1 when a |z| exceeds :data:`BOUND` or a constant differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from diff_outputs import GRID, ROOT, WORKLOADS, read_table  # noqa: E402

SEEDS = tuple(range(5001, 5021))
EXPERIMENTS = ("rate_sweep", "convergence_curves", "sparsity_sweep", "eigendecay")
WORKLOAD = "rate-sweep"
#: largest |z| allowed; a comparison of two samples of one law exceeds 5 with
#: probability about 1e-5 (Welch, 20 seeds a side), so a few thousand
#: correlated comparisons rarely reach it
BOUND = 5.0


def jobs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """``(output subdirectory, CLI argv without --out)`` for every invocation."""
    out = []
    for experiment in EXPERIMENTS:
        path = config_dir / f"{experiment}.yaml"
        path.write_text(yaml.safe_dump({**GRID, "experiment": experiment}, sort_keys=True),
                        encoding="utf-8")
        out += [(f"{experiment}-{seed}", [experiment.replace("_", "-"), "--config", str(path),
                                          "--seed", str(seed)]) for seed in SEEDS]
    workload = WORKLOADS[WORKLOAD]
    for seed in SEEDS:
        argv = workload.argv(workload.write_config(config_dir / f"{WORKLOAD}-{seed}.yaml", seed),
                             Path(), seed)
        del argv[argv.index("--out"):argv.index("--out") + 2]
        out.append((f"{WORKLOAD}-{seed}", argv))
    return out


def tables(out_dir: Path) -> dict[str, list[list[dict]]]:
    """Each result table's rows, per seed, by the name of its invocation."""
    codes = json.loads((out_dir / "exit_codes.json").read_text(encoding="utf-8"))
    if any(codes.values()):
        raise SystemExit(f"{out_dir.name}: nonzero exit codes {codes}")
    found = {}
    for name, table in [(e, e) for e in EXPERIMENTS] + [(WORKLOAD, WORKLOADS[WORKLOAD].table)]:
        found[name] = [read_table(out_dir / f"{name}-{seed}" / f"{table}.csv") for seed in SEEDS]
    return found


def _numbers(values: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        return None


def judge(parent: dict, change: dict) -> tuple[int, float, str, list[str]]:
    """Comparisons made, the largest |z| and its place, and every failure."""
    count, worst, where, failures = 0, 0.0, "", []
    for name in parent:
        shapes = {(len(rows), tuple(rows[0]) if rows else ())
                  for rows in parent[name] + change[name]}
        if len(shapes) != 1:
            failures.append(f"{name}: row counts or headers differ across seeds or trees")
            continue
        for i, row in enumerate(parent[name][0]):
            for column in row:
                a = [rows[i][column] for rows in parent[name]]
                b = [rows[i][column] for rows in change[name]]
                place = f"{name} row {i} ({row.get('family')}, k={row.get('k')}) {column}"
                x, y = _numbers(a), _numbers(b)
                if x is None or y is None or (np.ptp(x) == 0 and np.ptp(y) == 0):
                    if len(set(a + b)) != 1:
                        failures.append(f"{place}: constant values differ")
                    continue
                count += 1
                se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
                z = abs(y.mean() - x.mean()) / se
                if z > worst:
                    worst, where = z, place
                if z > BOUND:
                    failures.append(f"{place}: |z| = {z:.2f}")
    return count, worst, where, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=ROOT / "src")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        (work / "configs").mkdir()
        job_file = work / "jobs.json"
        job_file.write_text(json.dumps(jobs(work / "configs")), encoding="utf-8")
        children = []
        for name, src in (("parent", args.parent_src), ("change", args.change_src)):
            (work / name).mkdir()
            children.append(subprocess.Popen(
                [sys.executable, str(HERE / "diff_outputs.py"), "--child", str(src.resolve()),
                 str(job_file), str(work / name)], env=env, cwd=work))
        if any(child.wait() for child in children):
            raise SystemExit("a child process failed")
        count, worst, where, failures = judge(tables(work / "parent"), tables(work / "change"))
    for line in failures:
        print(line)
    print(f"{count} comparisons over {len(SEEDS)} seeds a side; largest |z| {worst:.2f} "
          f"at {where}; bound {BOUND}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
