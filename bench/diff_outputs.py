"""Check that two source trees write the same output files, byte for byte.

    python3 bench/diff_outputs.py PARENT_SRC [CHANGE_SRC]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories (for example of a
``git archive`` copy of the parent commit); ``CHANGE_SRC`` defaults to this
checkout's ``src``.  Each tree runs in its own child process, with
``PYTHONDONTWRITEBYTECODE=1`` so that neither tree gains a ``__pycache__``,
and runs the same invocations at seeds 1 and 4242, each with ``--svg``:

- all seven subcommands on a 60 x 10 ``poly1.5`` matrix with all five sketch
  families, k in {2, 4}, s = 3 and ``with_bounds: true`` (``newton_demo``,
  which rejects ``less``, with the other four families on a 60 x 10 logistic
  problem);
- one small ``rate_sweep`` per matrix source: ``identity``,
  ``gaussian_unit``, a LIBSVM file that the script writes beside its
  configs (read with ``rows`` and ``cols``), the ``flat``, ``exp1.2`` and
  ``step3`` shorthands, and a ``profile`` section of each kind;
- the three ``perfbench`` workload configs, read from
  ``perfbench/workloads.WORKLOADS``.

Every exit code is recorded in ``exit_codes.json`` beside the outputs and
compared too.  Output bytes may depend on the BLAS thread count, so both
trees run everything twice: with ``OPENBLAS_NUM_THREADS=1``, and with the
setting this script inherits, which may be unset.  For each setting the script
prints each file that differs or exists in one tree only, for a differing
CSV each column that moved with its largest relative difference, and a
verdict line.  It exits 0 when every file is byte-identical at both settings
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 4242)
FAMILIES = ["gaussian", "rademacher", "less", "less_uniform", "row_sampling"]
EXPERIMENTS = ("rate_sweep", "convergence_curves", "surrogate_compare", "sparsity_sweep",
               "randsvd_err", "eigendecay", "newton_demo")
GRID = {
    "matrix": {"kind": "profile", "model": "poly1.5", "m": 60, "n": 10},
    "sketch": {"families": FAMILIES, "k": [2, 4], "s": [3]},
    "run": {"runs": 3, "tail": 5, "max_iters": 40, "trials": 16, "err_trials": 4,
            "iters": 10, "with_bounds": True},
}
NEWTON = {
    "sketch": {"families": [f for f in FAMILIES if f != "less"], "k": [2, 4], "s": [3]},
    "newton": {"n_samples": 60, "n_features": 10, "max_iters": 20, "cert_trials": 8},
}
SOURCE_GRID = {
    "experiment": "rate_sweep",
    "sketch": {"families": ["gaussian", "less_uniform"], "k": [2, 4], "s": [3]},
    "run": {"runs": 3, "tail": 5, "max_iters": 40},
}
PROFILES = [
    {"kind": "flat", "sigma_max": 2.0},
    {"kind": "linear", "param": 0.5, "sigma_max": 6.8},
    {"kind": "polynomial", "param": 1.5},
    {"kind": "exponential", "param": 1.2},
    {"kind": "explicit", "values": [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]},
    {"kind": "step", "break_r": 4, "head": {"kind": "linear", "param": 0.01},
     "tail": {"kind": "polynomial", "param": 2}},
]
#: the ``matrix`` section of each source's rate_sweep; ``dataset`` gets its path in ``jobs``
SOURCES = {
    "identity": {"kind": "identity", "n": 10},
    "gaussian_unit": {"kind": "gaussian_unit", "m": 60, "n": 10},
    "dataset": {"kind": "dataset", "rows": 50, "cols": 8},
    **{f"model-{name}": {"kind": "profile", "m": 60, "n": 10, "model": name}
       for name in ("flat", "exp1.2", "step3")},
    **{f"profile-{profile['kind']}": {"kind": "profile", "m": 60, "n": 10, "profile": profile}
       for profile in PROFILES},
}

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, read_table  # noqa: E402


def write_dataset(path: Path) -> None:
    """A 60 x 10 LIBSVM file with full column rank, from a fixed stream."""
    rows = np.random.default_rng(0).standard_normal((60, 10))
    path.write_text("".join(f"{i % 2} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row))
                            + "\n" for i, row in enumerate(rows.tolist())), encoding="utf-8")


def jobs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """``(output subdirectory, CLI argv without --out)`` for every invocation."""
    data = config_dir / "data.libsvm"
    write_dataset(data)
    sources = {**SOURCES, "dataset": {**SOURCES["dataset"], "path": str(data)}}
    configs = {experiment: {**(NEWTON if experiment == "newton_demo" else GRID),
                            "experiment": experiment} for experiment in EXPERIMENTS}
    configs.update({f"source-{name}": {**SOURCE_GRID, "matrix": matrix}
                    for name, matrix in sources.items()})
    out = []
    for seed in SEEDS:
        for name, raw in configs.items():
            path = config_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
            out.append((f"{name}-{seed}", [raw["experiment"].replace("_", "-"), "--config",
                                           str(path), "--seed", str(seed), "--svg"]))
        for name, workload in WORKLOADS.items():
            path = workload.write_config(config_dir / f"{name}-{seed}.yaml", seed)
            argv = workload.argv(path, Path(), seed)
            del argv[argv.index("--out"):argv.index("--out") + 2]
            out.append((f"{name}-{seed}", argv + ["--svg"]))
    return out


def child(src: Path, job_file: Path, out_dir: Path) -> None:
    """Run every job with the sketchsolve under ``src``; record exit codes."""
    sys.path.insert(0, str(src))
    import sketchsolve
    from sketchsolve.expcli.cli import main

    if not Path(sketchsolve.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"sketchsolve imported from {sketchsolve.__file__}, not {src}")
    codes = {sub: main(argv + ["--out", str(out_dir / sub)])
             for sub, argv in json.loads(job_file.read_text(encoding="utf-8"))}
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n",
                                             encoding="utf-8")


def _rel_diff(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) for two numbers (0 when equal); None otherwise."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def describe_csv(parent: Path, change: Path) -> list[str]:
    """One line per column whose cells differ between two CSVs."""
    old, new = read_table(parent), read_table(change)
    if not old or not new or list(old[0]) != list(new[0]) or len(old) != len(new):
        return [f"header or row count differs: {len(old)} vs {len(new)} rows"]
    lines = []
    for column in old[0]:
        pairs = [(a[column], b[column]) for a, b in zip(old, new) if a[column] != b[column]]
        if not pairs:
            continue
        diffs = [_rel_diff(a, b) for a, b in pairs]
        if None in diffs:
            lines.append(f"{column}: {len(pairs)} cells differ (not numeric)")
        else:
            lines.append(f"{column}: {len(pairs)} cells differ, "
                         f"largest relative difference {max(diffs):.3g}")
    return lines or ["only the comment line differs"]


def compare(parent: Path, change: Path, setting: str) -> int:
    """Print every differing file and a verdict for this thread setting;
    return how many differ."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    differ = 0
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            print(f"only in {'parent' if a.is_file() else 'change'}: {name}")
        elif a.read_bytes() != b.read_bytes():
            print(f"differs: {name}")
            if name.endswith(".csv"):
                for line in describe_csv(a, b):
                    print(f"  {line}")
        else:
            continue
        differ += 1
    print(f"{setting}: {len(names) - differ} of {len(names)} files byte-identical")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, nargs="?")
    parser.add_argument("change_src", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--child", nargs=3, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if args.parent_src is None:
        parser.error("PARENT_SRC is required")
    inherited = os.environ.get("OPENBLAS_NUM_THREADS")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        (work / "configs").mkdir()
        job_file = work / "jobs.json"
        job_file.write_text(json.dumps(jobs(work / "configs")), encoding="utf-8")
        for i, threads in enumerate(("1", inherited)):
            env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
            if threads is not None:  # None: unset here, so unset in the children
                env["OPENBLAS_NUM_THREADS"] = threads
            run = work / f"setting-{i}"  # inherited may be "1" too
            for name, src in (("parent", args.parent_src), ("change", args.change_src)):
                (run / name).mkdir(parents=True)
                subprocess.run([sys.executable, __file__, "--child", str(src.resolve()),
                                str(job_file), str(run / name)], env=env, check=True, cwd=work)
            differ += compare(run / "parent", run / "change",
                              f"OPENBLAS_NUM_THREADS={'(unset)' if threads is None else threads}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
