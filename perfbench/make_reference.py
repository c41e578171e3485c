"""Regenerate ``reference.json``: the across-seed spread of every gated statistic.

Runs each workload once per seed in ``REFERENCE_SEEDS`` and records, per grid
cell and statistic, the count, mean, standard deviation, minimum and maximum.
The correctness gate accepts a value inside ``[min - 3 sd, max + 3 sd]``, so a
change that alters random streams but not the answer still passes.  Objective
gaps are recorded as ``log10(max(gap, 1e-14))`` (see ``workloads.gated``).

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from workloads import (REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, cell_key, gated,
                       read_table, require_source)


def collect(workload, seeds, main, scratch: Path) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    for seed in seeds:
        out = scratch / f"{workload.name}-{seed}"
        config = workload.write_config(scratch / f"{workload.name}.yaml", seed)
        rc = main(workload.argv(config, out, seed))
        if rc != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit code {rc}")
        for row in read_table(out / f"{workload.table}.csv"):
            cell = values.setdefault(cell_key(row), {})
            for stat in workload.stats:
                cell.setdefault(stat, []).append(gated(stat, float(row[stat])))
        shutil.rmtree(out)
        print(f"{workload.name} seed {seed} done", file=sys.stderr, flush=True)
    return {
        key: {
            stat: {"n": len(v), "mean": statistics.fmean(v), "sd": statistics.stdev(v),
                   "min": min(v), "max": max(v)}
            for stat, v in stats.items()
        }
        for key, stats in values.items()
    }


def main() -> int:
    require_source()
    from sketchsolve.expcli.cli import main as cli_main

    reference: dict = {"seeds": list(REFERENCE_SEEDS)}
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as scratch:
        for name in sorted(WORKLOADS):
            cells = collect(WORKLOADS[name], REFERENCE_SEEDS, cli_main, Path(scratch))
            reference[name] = {"cells": cells}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
