"""The benchmark's workloads and the correctness gate applied to their CSVs.

Each workload is one CLI experiment on a fixed config; only ``master_seed``
changes between runs (it is passed through the CLI's ``--seed``).  The gate
compares every grid cell's statistic with the across-seed band recorded in
``reference.json`` (see ``make_reference.py``), and also checks exit codes,
finiteness and byte-identical outputs between repeats of one seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 1
#: seed kept out of ``reference.json`` and out of tuning, for re-checking claims
HELD_OUT_SEED = 4242
#: seeds whose results define the reference bands
REFERENCE_SEEDS = tuple(range(1000, 1016))
#: half-width added beyond the observed [min, max], in across-seed standard deviations
BAND_SD = 3.0
#: statistics gated as log10(max(x, floor)), with x >= -floor: an objective gap
#: spreads over decades and is roundoff below 1e-14 (tol**2 / ridge is 1e-14)
LOG_FLOORS = {"f_gap_final": 1e-14}
#: columns that identify a grid cell in every result table
CELL_KEY = ("family", "k", "s")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    #: nested overrides that shrink the config for the warm-up invocation
    warmup: dict
    #: result table (CSV stem) whose cells are gated
    table: str
    stats: tuple[str, ...]

    def config_for(self, seed: int, warmup: bool = False) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["master_seed"] = int(seed)
        if warmup:
            for section, values in self.warmup.items():
                cfg.setdefault(section, {}).update(values)
        return cfg

    def write_config(self, path: Path, seed: int, warmup: bool = False) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.config_for(seed, warmup), fh, sort_keys=True)
        return path

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        # --threads is left at its default of 1: one cell at a time
        return [self.subcommand, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate-sweep",
            subcommand="rate-sweep",
            config={
                "experiment": "rate_sweep",
                "matrix": {"kind": "profile", "model": "lin.01", "m": 1000, "n": 50},
                "sketch": {"families": ["gaussian", "less_uniform", "row_sampling"],
                           "k": [5, 10, 20], "s": [32]},
                "run": {"runs": 5, "tail": 50, "max_iters": 1000, "stop_tol": 1e-5},
            },
            warmup={"run": {"runs": 1, "max_iters": 20}},
            table="rate_sweep",
            stats=("rate",),
        ),
        Workload(
            name="surrogate-large",
            subcommand="surrogate-compare",
            config={
                "experiment": "surrogate_compare",
                "matrix": {"kind": "profile", "model": "poly1.5", "m": 4096, "n": 128},
                "sketch": {"families": ["gaussian", "less"], "k": [10, 40], "s": [32]},
                "run": {"trials": 200, "err_trials": 50},
            },
            warmup={"matrix": {"m": 256, "n": 16}, "sketch": {"k": [4, 8]},
                    "run": {"trials": 16, "err_trials": 2}},
            table="surrogate_compare",
            stats=("s_min", "surrogate"),
        ),
        Workload(
            name="newton-logistic",
            subcommand="newton-demo",
            config={
                "experiment": "newton_demo",
                "sketch": {"families": ["gaussian", "less_uniform"],
                           "k": [5, 10, 20], "s": [8]},
                # max_iters 100 (default 500) keeps one invocation near 3 s, so
                # that a run's median is taken over about ten invocations
                "newton": {"n_samples": 2000, "n_features": 100, "ridge": 0.01,
                           "max_iters": 100, "cert_trials": 400},
            },
            warmup={"sketch": {"k": [5]},
                    "newton": {"n_samples": 200, "n_features": 20, "max_iters": 5,
                               "cert_trials": 2}},
            table="newton_demo",
            stats=("f_gap_final", "monotone", "line_search_failures"),
        ),
    )
}


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit 2 if it is absent.

    The benchmark measures the program in its own checkout, never an installed
    copy, so a tree without ``src/sketchsolve`` is an error.
    """
    if not (SRC / "sketchsolve" / "__init__.py").is_file():
        print(f"error: no sketchsolve sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def read_table(path: Path) -> list[dict]:
    """Rows of a result CSV written by the CLI (its ``#`` metadata line skipped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def cell_key(row: dict) -> str:
    return "/".join(f"{k}={row[k]}" for k in CELL_KEY)


def hash_outputs(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file, read in chunks so that this process never
    holds a whole file and its peak memory stays the CLI's."""
    hashes = {}
    for p in sorted(out_dir.iterdir()):
        if p.is_file():
            with open(p, "rb") as fh:
                hashes[p.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return hashes


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gated(stat: str, value: float) -> float:
    """The number a statistic's reference band is about."""
    floor = LOG_FLOORS.get(stat)
    return value if floor is None else math.log10(max(value, floor))


def band(ref: dict) -> tuple[float, float]:
    """Accepted interval for one statistic of one cell."""
    pad = BAND_SD * ref["sd"]
    return ref["min"] - pad, ref["max"] + pad


@dataclass
class Checks:
    """Tally of correctness checks; each failure keeps a one-line reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _finite_fields(path: Path) -> bool:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            for value in line.rstrip("\n").split(","):
                try:
                    number = float(value)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return False
    return True


def check_invocation(checks: Checks, workload: Workload, reference: dict, rc: int,
                     out_dir: Path, label: str) -> None:
    """Exit code, finite values and reference bands for one CLI invocation."""
    if not checks.check(rc == 0, f"{label}: exit code {rc}"):
        return
    for path in sorted(out_dir.glob("*.csv")):
        if path.name != "matrix.csv":
            checks.check(_finite_fields(path), f"{label}: non-finite value in {path.name}")
    table = out_dir / f"{workload.table}.csv"
    if not checks.check(table.is_file(), f"{label}: {table.name} missing"):
        return
    cells = reference[workload.name]["cells"]
    rows = {cell_key(row): row for row in read_table(table)}
    checks.check(set(rows) == set(cells),
                 f"{label}: grid cells {sorted(rows)} != reference {sorted(cells)}")
    for key, stats in cells.items():
        row = rows.get(key)
        for stat in workload.stats:
            if row is None:
                checks.check(False, f"{label}: {key} missing")
                continue
            value = float(row[stat])
            lo, hi = band(stats[stat])
            ok = (math.isfinite(value) and lo <= gated(stat, value) <= hi
                  and value >= -LOG_FLOORS.get(stat, math.inf))
            checks.check(ok, f"{label}: {key} {stat}={value!r} outside [{lo!r}, {hi!r}]")
