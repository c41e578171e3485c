"""Experiment configuration: a YAML file of nested key/value sections.

Top-level keys: ``experiment``, ``master_seed``, and the ``matrix``,
``sketch``, ``run`` and (for the Newton demo) ``newton`` sections.  See the
repository README for the full schema and defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from ..matgen import (
    LinearSystem,
    SpectralProfile,
    gen_gaussian_unit_rows,
    gen_spectral_matrix,
    make_system,
    parse_libsvm,
)
from ..rng import child_seed

EXPERIMENTS = (
    "rate_sweep",
    "convergence_curves",
    "surrogate_compare",
    "sparsity_sweep",
    "randsvd_err",
    "eigendecay",
    "newton_demo",
)

_MODEL_RE = re.compile(r"^(lin|poly|exp)(\d*\.?\d+)$")


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending field path."""


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


#: keys each section accepts; anything else is a ConfigError, so a typo
#: cannot silently run a different experiment
_TOP_KEYS = ("experiment", "master_seed", "matrix", "sketch", "run", "newton")
_MATRIX_KEYS = {
    "identity": ("kind", "n"),
    "gaussian_unit": ("kind", "m", "n"),
    "profile": ("kind", "m", "n", "model", "sigma_max", "profile"),
    "dataset": ("kind", "path", "n_features", "rows", "cols"),
}
_PROFILE_KEYS = ("kind", "sigma_max", "values", "break_r", "head", "tail", "param")
_SKETCH_KEYS = ("families", "k", "s")


def _section(value, path: str, allowed) -> dict:
    """``value`` as a mapping whose keys all appear in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown field")
    return value


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _optional_int(section: dict, key: str) -> int | None:
    value = section.get(key)
    return None if value is None else _as_int(value, f"matrix.{key}", 1)


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


def parse_model_name(name: str, n: int, sigma_max: float = 6.8) -> SpectralProfile:
    """Spectral-model shorthand: flat, lin.01, poly1.5, exp1.2, step20, ...

    ``step<r>`` splices a lin.01 head with a poly1 tail at index r.
    """
    if name == "flat":
        return SpectralProfile.flat(n, sigma_max)
    if name.startswith("step"):
        break_r = int(name[4:])
        head = SpectralProfile.linear(0.01, n, sigma_max)
        tail = SpectralProfile.polynomial(1.0, n, sigma_max)
        return SpectralProfile.step(break_r, head, tail)
    match = _MODEL_RE.match(name)
    if not match:
        raise ConfigError(f"matrix.model: unknown model name {name!r}")
    kind, param = match.group(1), float(match.group(2))
    if kind == "lin":
        return SpectralProfile.linear(param, n, sigma_max)
    if kind == "poly":
        return SpectralProfile.polynomial(param, n, sigma_max)
    return SpectralProfile.exponential(param, n, sigma_max)


@dataclass(frozen=True)
class MatrixSource:
    """Where A comes from: a spectral profile, gaussian rows, identity, or a file."""

    kind: str  # profile | gaussian_unit | identity | dataset
    label: str
    m: int = 0
    n: int = 0
    profile: SpectralProfile | None = None
    path: str | None = None
    n_features: int | None = None
    rows: int | None = None
    cols: int | None = None

    def build(self, seed: int) -> np.ndarray:
        if self.kind == "identity":
            return np.eye(self.n)
        if self.kind == "gaussian_unit":
            return gen_gaussian_unit_rows(self.m, self.n, seed)
        if self.kind == "profile":
            return gen_spectral_matrix(self.profile, self.m, seed)
        if not Path(self.path).exists():
            raise FileNotFoundError(f"dataset not found: {self.path}")
        A, _labels = parse_libsvm(self.path, self.n_features)
        if self.rows is not None:
            A = A[: self.rows]
        if self.cols is not None:
            A = A[:, : self.cols]
        return A


def _parse_profile_section(section: dict, n: int, path: str) -> SpectralProfile:
    section = _section(section, path, _PROFILE_KEYS)
    kind = _require(section, "kind", path)
    sigma_max = _as_float(section.get("sigma_max", 6.8), f"{path}.sigma_max", positive=True)
    try:
        if kind == "flat":
            return SpectralProfile.flat(n, sigma_max)
        if kind == "explicit":
            values = _require(section, "values", path)
            return SpectralProfile.explicit(values)
        if kind == "step":
            break_r = _as_int(_require(section, "break_r", path), f"{path}.break_r", 1)
            head = _parse_profile_section(_require(section, "head", path), n, f"{path}.head")
            tail = _parse_profile_section(_require(section, "tail", path), n, f"{path}.tail")
            return SpectralProfile.step(break_r, head, tail)
        if kind in ("linear", "polynomial", "exponential"):
            param = _as_float(_require(section, "param", path), f"{path}.param")
            return SpectralProfile(kind, n, sigma_max, param=param)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown profile kind {kind!r}")


def _parse_matrix(section: dict) -> MatrixSource:
    if not isinstance(section, dict):
        raise ConfigError("matrix: expected a mapping")
    kind = _require(section, "kind", "matrix")
    if not isinstance(kind, str) or kind not in _MATRIX_KEYS:
        raise ConfigError(f"matrix.kind: unknown kind {kind!r}")
    _section(section, "matrix", _MATRIX_KEYS[kind])
    if kind == "identity":
        n = _as_int(_require(section, "n", "matrix"), "matrix.n", 1)
        return MatrixSource(kind=kind, label=f"identity{n}", m=n, n=n)
    if kind == "gaussian_unit":
        m = _as_int(_require(section, "m", "matrix"), "matrix.m", 1)
        n = _as_int(_require(section, "n", "matrix"), "matrix.n", 1)
        return MatrixSource(kind=kind, label="gaus", m=m, n=n)
    if kind == "profile":
        m = _as_int(_require(section, "m", "matrix"), "matrix.m", 1)
        n = _as_int(_require(section, "n", "matrix"), "matrix.n", 1)
        if m < n:
            raise ConfigError(f"matrix.m: must be >= matrix.n ({m} < {n})")
        if "model" in section:
            label = str(section["model"])
            sigma_max = _as_float(section.get("sigma_max", 6.8), "matrix.sigma_max", True)
            try:
                profile = parse_model_name(label, n, sigma_max)
            except ValueError as exc:
                raise ConfigError(f"matrix.model: {exc}") from exc
        elif "profile" in section:
            profile = _parse_profile_section(section["profile"], n, "matrix.profile")
            label = profile.kind
        else:
            raise ConfigError("matrix: profile source needs 'model' or 'profile'")
        return MatrixSource(kind=kind, label=label, m=m, n=n, profile=profile)
    path = str(_require(section, "path", "matrix"))  # kind == "dataset"
    return MatrixSource(
        kind=kind,
        label=Path(path).stem,
        path=path,
        n_features=_optional_int(section, "n_features"),
        rows=_optional_int(section, "rows"),
        cols=_optional_int(section, "cols"),
    )


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
    from ..sketch import FAMILIES

    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"sketch.families: unknown family {fam!r}")
    _check_unique(families, "sketch.families")
    k_list = _as_int_list(_require(sk, "k", "sketch"), "sketch.k", 1)
    _check_unique(k_list, "sketch.k")
    s_list = _as_int_list(sk["s"], "sketch.s", 0) if "s" in sk else []

    run = _section(raw.get("run", {}), "run", _RUN)
    newton = _section(raw.get("newton", {}), "newton", _NEWTON)
    run = _read(run, "run", _RUN)
    if exp == "newton_demo":
        if "less" in families:
            raise ConfigError(
                "sketch.families: 'less' is not supported by newton_demo "
                "(leverage scores of a full-rank square Hessian root are uniform; "
                "use 'less_uniform')")
        newton = _read(newton, "newton", _NEWTON)
        rows = newton["n_features"]  # the sketch acts on the Hessian
    else:
        # a dataset's row count is only known once the file is read
        rows = None if matrix.kind == "dataset" else matrix.m
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
    if seed_override is not None:
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a mapping at top level")
        raw = dict(raw)
        raw["master_seed"] = seed_override
    return parse_config(raw, experiment)
