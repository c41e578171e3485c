"""Across-seed margins of acceptance criteria 05 and 08 at held-out master seeds.

    python3 bench/criteria_margins.py --out CRITERIA_MARGINS.json [--parent-src DIR]

Each criterion in ``tests/test_acceptance.py`` runs at one master seed
(``SEED = 20240901``), so a pass says nothing about how close it came.  This
script recomputes two criteria's statistics with the library calls of their
tests, at the held-out master seeds :data:`SEEDS` in place of ``SEED``:

- criterion 05: the log-log slope of the Gaussian solver rate against k, per
  spectral profile (``test_criterion_05_rate_scaling``);
- criterion 08: the ratio of the larger to the smaller mean final relative
  error of ``gaussian`` and ``less_uniform`` (s = ceil(n log n)) runs, per k
  (``test_criterion_08_sparsity_robustness``).

For each statistic it reports the per-seed values, their range, mean and
standard deviation, and the worst seed's distance from the test's threshold
in standard deviations.  A statistic whose worst seed lies within
:data:`FLAG_SD` standard deviations of its threshold is flagged, and the
script exits 1 when the change tree has one.  Each tree (this checkout's
``src``, and ``DIR``, the ``src`` of another checkout, if given) runs in its
own child process with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONDONTWRITEBYTECODE=1``.  The functions below mirror the two tests;
an edit to either test belongs here too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(101, 107))
FLAG_SD = 2.0
#: statistic -> (threshold, sign): sign +1 needs value >= threshold, -1 value <= threshold
THRESHOLDS = {
    "05 flat": (0.9, 1), "05 lin.01": (0.9, 1), "05 poly1.5": (1.2, 1),
    "08 k=10": (2.0, -1), "08 k=20": (2.0, -1),
}


def criterion_05(seed: int) -> dict[str, float]:
    import numpy as np

    from sketchsolve.matgen import SpectralProfile, gen_spectral_matrix, make_system
    from sketchsolve.rng import child_seed
    from sketchsolve.sketch import SketchSpec
    from sketchsolve.solver import SolverConfig, estimate_rate

    ks = [5, 10, 15, 20, 25]
    profiles = {
        "flat": SpectralProfile.flat(50),
        "lin.01": SpectralProfile.linear(0.01, 50),
        "poly1.5": SpectralProfile.polynomial(1.5, 50),
    }
    slopes = {}
    for name, prof in profiles.items():
        A = gen_spectral_matrix(prof, 1000, seed=child_seed(seed, 11))
        system = make_system(A, seed=child_seed(seed, 12))
        rates = []
        for k in ks:
            spec = SketchSpec("gaussian", k=k, seed_stream=child_seed(seed, 13, k))
            cfg = SolverConfig(sketch=spec, max_iters=1000, stop_tol=1e-5)
            rates.append(estimate_rate(system, cfg, runs=100, tail=50).empirical_rate)
        slopes[f"05 {name}"] = float(np.polyfit(np.log(ks), np.log(rates), 1)[0])
    return slopes


def criterion_08(seed: int) -> dict[str, float]:
    import numpy as np

    from sketchsolve.matgen import gen_gaussian_unit_rows, make_system
    from sketchsolve.rng import child_seed
    from sketchsolve.sketch import SketchSpec
    from sketchsolve.solver import SolverConfig, solve

    A = gen_gaussian_unit_rows(1000, 50, seed=child_seed(seed, 100))  # the gaus_matrix fixture
    n = A.shape[1]
    system = make_system(A, seed=child_seed(seed, 25))
    s_sparse = math.ceil(n * math.log(n))
    ratios = {}
    for k in (10, 20):
        finals = {}
        for family, s in (("gaussian", None), ("less_uniform", s_sparse)):
            spec = SketchSpec(family, k=k, s=s, seed_stream=child_seed(seed, 26, k))
            cfg = SolverConfig(sketch=spec, max_iters=30, stop_tol=1e-300)
            errs = [solve(system, cfg, trial=r)[1].rel_err[-1] for r in range(30)]
            finals[family] = float(np.mean(errs))
        ratios[f"08 k={k}"] = max(finals.values()) / min(finals.values())
    return ratios


def summarize(per_seed: dict[str, dict[str, float]]) -> dict[str, dict]:
    """Range, mean, SD and the worst seed's margin in SDs, per statistic."""
    out = {}
    for name, (threshold, sign) in THRESHOLDS.items():
        values = [per_seed[str(seed)][name] for seed in SEEDS]
        sd = statistics.stdev(values)
        worst = min(values) if sign > 0 else max(values)
        margin = sign * (worst - threshold) / sd if sd > 0 else math.inf
        out[name] = {"values": values, "min": min(values), "max": max(values),
                     "mean": statistics.fmean(values), "sd": sd, "threshold": threshold,
                     "needs": ">=" if sign > 0 else "<=", "worst_margin_sd": margin,
                     "flagged": margin < FLAG_SD}
    return out


def run_child(src: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--parent-src", type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.child.resolve()))
        print(json.dumps({str(seed): {**criterion_05(seed), **criterion_08(seed)}
                          for seed in SEEDS}))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {"change": ROOT / "src"}
    if args.parent_src is not None:
        trees = {"parent": args.parent_src.resolve(), **trees}
    results = {}
    for name, src in trees.items():
        results[name] = summarize(run_child(src))
        for stat, row in results[name].items():
            print(f"{name:6s} {stat:10s} {row['min']:.3f}-{row['max']:.3f} "
                  f"mean {row['mean']:.3f} sd {row['sd']:.3f} "
                  f"worst {row['worst_margin_sd']:.1f} SD{' FLAGGED' if row['flagged'] else ''}")
    report = {
        "command": ("python3 bench/criteria_margins.py --out " + args.out.name
                    + (" --parent-src <parent checkout>/src" if "parent" in trees else "")),
        "seeds": list(SEEDS),
        "flag_sd": FLAG_SD,
        "threads": "OPENBLAS_NUM_THREADS=1",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(row["flagged"] for row in results["change"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
