"""Experiment configuration: a YAML file of nested key/value sections.

Top-level keys: ``experiment``, ``master_seed``, and the ``matrix``,
``sketch``, ``run`` and ``newton`` sections (the last read by the Newton
demo, checked for every experiment).  See the repository README for the
full schema and defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from ..matgen import (
    SIGMA_MAX,
    LinearSystem,
    SpectralProfile,
    gen_gaussian_unit_rows,
    gen_spectral_matrix,
    make_system,
    parse_libsvm,
)
from ..rng import child_seed
from ..sketch import FAMILIES

EXPERIMENTS = (
    "rate_sweep",
    "convergence_curves",
    "surrogate_compare",
    "sparsity_sweep",
    "randsvd_err",
    "eigendecay",
    "newton_demo",
)

#: model shorthands: a curve name and its parameter, step<break_r>, or flat
_MODEL_RE = re.compile(r"(lin|poly|exp)(\d*\.?\d+)|step(\d+)|flat")
_CURVES = {"lin": "linear", "poly": "polynomial", "exp": "exponential"}


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending field path."""


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


#: keys each section (or each kind of it, besides ``kind``) accepts; anything
#: else is a ConfigError, so a typo cannot silently run a different experiment
_TOP_KEYS = ("experiment", "master_seed", "matrix", "sketch", "run", "newton")
_MATRIX_KEYS = {
    "identity": ("n",),
    "gaussian_unit": ("m", "n"),
    "profile": ("m", "n", "model", "sigma_max", "profile"),
    "dataset": ("path", "n_features", "rows", "cols"),
}
_PROFILE_KEYS = {
    "flat": ("sigma_max",),
    "linear": ("param", "sigma_max"),
    "polynomial": ("param", "sigma_max"),
    "exponential": ("param", "sigma_max"),
    "explicit": ("values",),
    "step": ("break_r", "head", "tail"),
}
_SKETCH_KEYS = ("families", "k", "s")


def _section(value, path: str, allowed) -> dict:
    """``value`` as a mapping whose keys all appear in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown field")
    return value


def _kind(value, path: str, keys: dict) -> str:
    """The ``kind`` of the mapping ``value``, once its other keys are all
    among those ``keys`` lists for that kind."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    kind = _require(value, "kind", path)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    _section(value, path, ("kind", *keys[kind]))
    return kind


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, positive: bool = False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if positive and not number > 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return number


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


#: the keys the ``run`` and ``newton`` sections accept: key -> (parser, default, bound...)
_RUN = {
    "runs": (_as_int, 100, 1),
    "tail": (_as_int, 50, 1),
    "max_iters": (_as_int, 1000, 1),
    "stop_tol": (_as_float, 1e-5, True),
    "trials": (_as_int, 1600, 2),
    "err_trials": (_as_int, 50, 2),
    "iters": (_as_int, 30, 1),
    "with_bounds": (_as_bool, False),
}
_NEWTON = {
    "n_samples": (_as_int, 500, 1),
    "n_features": (_as_int, 50, 1),
    "ridge": (_as_float, 1e-2, True),
    "max_iters": (_as_int, 500, 1),
    "tol": (_as_float, 1e-8, True),
    "cert_trials": (_as_int, 400, 2),
}


def _read(section: dict, path: str, table: dict) -> dict:
    """Every key of ``table`` parsed from ``section``, or its default."""
    return {key: parse(section.get(key, default), f"{path}.{key}", *bound)
            for key, (parse, default, *bound) in table.items()}


def _as_int_list(value, path: str, minimum: int = 1) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return [_as_int(v, f"{path}[{i}]", minimum) for i, v in enumerate(value)]


def _check_unique(values: list, path: str) -> None:
    """Raise ConfigError if ``values`` repeats an entry: it would name one grid cell twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{path}[{i}]: names the same cell as {path}[{values.index(v)}]")


def parse_model_name(name: str, n: int, sigma_max: float = SIGMA_MAX) -> SpectralProfile:
    """Spectral-model shorthand: flat, lin.01, poly1.5, exp1.2, step20, ...

    Each names a ``profile`` section and is parsed as one; ``step<r>``
    splices a lin.01 head with a poly1 tail at index r.
    """
    match = _MODEL_RE.fullmatch(name)
    if match is None:
        raise ConfigError(f"matrix.model: unknown model name {name!r}")
    curve, param, break_r = match.groups()
    if curve:
        section = {"kind": _CURVES[curve], "param": float(param), "sigma_max": sigma_max}
    elif break_r:
        section = {"kind": "step", "break_r": int(break_r),
                   "head": {"kind": "linear", "param": 0.01, "sigma_max": sigma_max},
                   "tail": {"kind": "polynomial", "param": 1.0, "sigma_max": sigma_max}}
    else:
        section = {"kind": "flat", "sigma_max": sigma_max}
    return _parse_profile_section(section, n, "matrix.model")


def _parse_profile_section(section, n: int, path: str) -> SpectralProfile:
    """The n-value profile that a ``profile`` section (or a shorthand) names."""
    kind = _kind(section, path, _PROFILE_KEYS)
    try:
        if kind == "explicit":
            values = _require(section, "values", path)
            if not isinstance(values, list) or len(values) != n:
                raise ConfigError(f"{path}.values: expected a list of matrix.n = {n} "
                                  f"numbers, got {values!r}")
            return SpectralProfile.explicit(
                [_as_float(v, f"{path}.values[{i}]") for i, v in enumerate(values)])
        if kind == "step":
            break_r = _as_int(_require(section, "break_r", path), f"{path}.break_r")
            head = _parse_profile_section(_require(section, "head", path), n, f"{path}.head")
            tail = _parse_profile_section(_require(section, "tail", path), n, f"{path}.tail")
            return SpectralProfile.step(break_r, head, tail)
        sigma_max = _as_float(section.get("sigma_max", SIGMA_MAX), f"{path}.sigma_max", positive=True)
        if kind == "flat":
            return SpectralProfile.flat(n, sigma_max)
        param = _as_float(_require(section, "param", path), f"{path}.param")
        return SpectralProfile(kind, n, sigma_max, param=param)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class MatrixSource:
    """Where A comes from: its label, the rows known before A is built (None
    for a dataset, whose rows are known once the file is read), and
    ``build(seed)``, which builds A."""

    label: str
    rows: int | None
    build: Callable[[int], np.ndarray]


def _parse_matrix(section) -> MatrixSource:
    kind = _kind(section, "matrix", _MATRIX_KEYS)
    if kind == "dataset":
        path = str(_require(section, "path", "matrix"))
        n_features, rows, cols = [
            None if section.get(key) is None else _as_int(section[key], f"matrix.{key}", 1)
            for key in ("n_features", "rows", "cols")]

        def load(_seed: int) -> np.ndarray:  # the first rows x cols block of the file
            if not Path(path).exists():
                raise FileNotFoundError(f"dataset not found: {path}")
            X = parse_libsvm(path, n_features)[0]
            for key, want, have in (("rows", rows, X.shape[0]), ("cols", cols, X.shape[1])):
                if want is not None and want > have:
                    raise ConfigError(f"matrix.{key}: {want} exceeds the {X.shape[0]} x "
                                      f"{X.shape[1]} matrix in {path}")
            return X[:rows, :cols]

        return MatrixSource(Path(path).stem, None, load)
    n = _as_int(_require(section, "n", "matrix"), "matrix.n", 1)
    if kind == "identity":
        return MatrixSource(f"identity{n}", n, lambda _seed: np.eye(n))
    m = _as_int(_require(section, "m", "matrix"), "matrix.m", 1)
    if kind == "gaussian_unit":
        return MatrixSource("gaus", m, lambda seed: gen_gaussian_unit_rows(m, n, seed))
    if m < n:
        raise ConfigError(f"matrix.m: must be >= matrix.n ({m} < {n})")
    if "model" in section:
        if "profile" in section:
            raise ConfigError("matrix: give 'model' or 'profile', not both")
        label = str(section["model"])
        sigma_max = _as_float(section.get("sigma_max", SIGMA_MAX), "matrix.sigma_max", True)
        profile = parse_model_name(label, n, sigma_max)
    elif "profile" in section:
        if "sigma_max" in section:
            raise ConfigError("matrix.sigma_max: read beside 'model' only; "
                              "set matrix.profile.sigma_max")
        profile = _parse_profile_section(section["profile"], n, "matrix.profile")
        label = profile.kind
    else:
        raise ConfigError("matrix: profile source needs 'model' or 'profile'")
    return MatrixSource(label, m, lambda seed: gen_spectral_matrix(profile, m, seed))


@dataclass
class ExperimentConfig:
    experiment: str
    master_seed: int
    matrix: MatrixSource | None  # None for newton_demo, which reads no matrix
    families: list[str]
    k_list: list[int]
    s_list: list[int]
    runs: int
    tail: int
    max_iters: int
    stop_tol: float
    trials: int
    err_trials: int
    iters: int
    with_bounds: bool
    newton: dict
    config_hash: str

    def build_system(self) -> LinearSystem | None:
        """The system A x = b; None for newton_demo, which draws its own data."""
        if self.experiment == "newton_demo":
            return None
        A = self.matrix.build(child_seed(self.master_seed, 0))
        return make_system(A, child_seed(self.master_seed, 1))


def _check_rows(cfg: ExperimentConfig, rows: int) -> None:
    """Raise ConfigError unless every k, and every s that a sparse family
    reads, fits the ``rows`` the sketch acts on (s = 0 means all of them),
    and no two of those s name the same cell."""
    if max(cfg.k_list) > rows:
        raise ConfigError(f"sketch.k: {max(cfg.k_list)} exceeds the {rows} rows the sketch acts on")
    if not {"less", "less_uniform"} & set(cfg.families):
        return
    s_max = max(cfg.s_list, default=0)
    if s_max > rows:
        raise ConfigError(f"sketch.s: {s_max} exceeds the {rows} rows the sketch acts on")
    _check_unique([s if s > 0 else rows for s in cfg.s_list], "sketch.s")


def _hash_config(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def parse_config(raw: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a loaded YAML mapping; raise :class:`ConfigError` on problems."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at top level")
    _section(raw, "", _TOP_KEYS)
    exp = raw.get("experiment", experiment)
    if exp is None:
        raise ConfigError("experiment: missing (not in config nor on command line)")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {exp!r}")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"experiment: config says {exp!r} but command line asked for {experiment!r}")

    master_seed = _as_int(raw.get("master_seed", 0), "master_seed", 0)
    matrix = None  # newton_demo draws its own data; a matrix given is still checked
    if exp != "newton_demo" or "matrix" in raw:
        matrix = _parse_matrix(_require(raw, "matrix", "config"))

    sk = _section(_require(raw, "sketch", "config"), "sketch", _SKETCH_KEYS)
    families = sk.get("families", ["gaussian"])
    if not isinstance(families, list) or not families:
        raise ConfigError("sketch.families: expected a non-empty list")
    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"sketch.families: unknown family {fam!r}")
    _check_unique(families, "sketch.families")
    k_list = _as_int_list(_require(sk, "k", "sketch"), "sketch.k", 1)
    _check_unique(k_list, "sketch.k")
    s_list = _as_int_list(sk["s"], "sketch.s", 0) if "s" in sk else []

    # newton_demo reads the newton section; every experiment checks it
    run = _section(raw.get("run", {}), "run", _RUN)
    newton = _section(raw.get("newton", {}), "newton", _NEWTON)
    run, newton = _read(run, "run", _RUN), _read(newton, "newton", _NEWTON)
    if not run["stop_tol"] < 1:  # a run starts at x0 = 0, at relative error 1
        raise ConfigError(f"run.stop_tol: must be < 1, got {run['stop_tol']}")
    if exp == "newton_demo":
        if "less" in families:
            raise ConfigError(
                "sketch.families: 'less' is not supported by newton_demo "
                "(leverage scores of a full-rank square Hessian root are uniform; "
                "use 'less_uniform')")
        rows = newton["n_features"]  # the sketch acts on the Hessian
    else:
        rows = matrix.rows
    cfg = ExperimentConfig(experiment=exp, master_seed=master_seed, matrix=matrix,
                           families=families, k_list=k_list, s_list=s_list, **run,
                           newton=newton, config_hash=_hash_config(raw))
    if rows is not None:
        _check_rows(cfg, rows)
    return cfg


def load_config(path, experiment: str | None = None,
                seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: YAML parse error: {exc}") from exc
    if seed_override is not None and isinstance(raw, dict):
        raw = {**raw, "master_seed": seed_override}
    return parse_config(raw, experiment)
