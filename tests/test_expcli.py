import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import sketchsolve
from sketchsolve.expcli import ConfigError, emit_plot_data, load_config, run_experiment
from sketchsolve.expcli.cli import main
from sketchsolve.expcli.config import parse_config, parse_model_name
from sketchsolve.expcli.runner import ResultTable


def _base_config(**overrides):
    cfg = {
        "experiment": "rate_sweep",
        "master_seed": 99,
        "matrix": {"kind": "identity", "n": 30},
        "sketch": {"families": ["gaussian"], "k": [3, 6]},
        "run": {"runs": 8, "tail": 15, "max_iters": 50, "stop_tol": 1e-8},
    }
    cfg.update(overrides)
    return cfg


#: (section, misspelt or retired key, field path the error names)
UNKNOWN_KEYS = [
    ("sketch", "familes", "sketch.familes"),
    ("run", "rnus", "run.rnus"),
    (None, "matrx", "matrx"),
    ("sketch", "leverage_C", "sketch.leverage_C"),
]


def _k_too_large(experiment):
    """A config whose largest k exceeds the rows the sketch acts on."""
    if experiment == "newton_demo":
        cfg = _base_config(experiment=experiment, sketch={"families": ["gaussian"], "k": [4, 7]},
                           newton={"n_features": 6})
        del cfg["matrix"], cfg["run"]
        return cfg
    return _base_config(matrix={"kind": "profile", "m": 30, "n": 10, "model": "lin.01"},
                        sketch={"families": ["gaussian"], "k": [5, 40]})


def _s_too_large(case, tmp_path):
    """A config with a sparse family whose largest s exceeds the rows the
    sketch acts on: 30 profile rows, 20 Hessian rows, or 5 dataset rows."""
    sketch = {"families": ["gaussian", "less_uniform"], "k": [2], "s": [4, 50]}
    if case == "newton_demo":
        return {"experiment": case, "sketch": sketch, "newton": {"n_features": 20}}
    if case == "dataset":
        data = tmp_path / "tiny.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{i % 3}.0\n" for i in range(5)))
        return _base_config(matrix={"kind": "dataset", "path": str(data)}, sketch=sketch)
    return _base_config(matrix={"kind": "profile", "m": 30, "n": 10, "model": "lin.01"},
                        sketch=sketch)


#: (section, key, bad value, the whole ConfigError message)
BAD_SECTION_VALUES = [
    ("run", "runs", 0, "run.runs: must be >= 1, got 0"),
    ("run", "tail", "x", "run.tail: expected integer, got 'x'"),
    ("run", "max_iters", 1.5, "run.max_iters: expected integer, got 1.5"),
    ("run", "stop_tol", 0, "run.stop_tol: must be positive, got 0"),
    ("run", "stop_tol", 2.5, "run.stop_tol: must be < 1, got 2.5"),
    ("run", "trials", 1, "run.trials: must be >= 2, got 1"),
    ("run", "err_trials", True, "run.err_trials: expected integer, got True"),
    ("run", "iters", -3, "run.iters: must be >= 1, got -3"),
    ("run", "with_bounds", "false", "run.with_bounds: expected true or false, got 'false'"),
    ("run", "with_bounds", "off", "run.with_bounds: expected true or false, got 'off'"),
    ("run", "with_bounds", 0, "run.with_bounds: expected true or false, got 0"),
    ("run", "with_bounds", None, "run.with_bounds: expected true or false, got None"),
    ("newton", "n_samples", 0, "newton.n_samples: must be >= 1, got 0"),
    ("newton", "n_features", 2.5, "newton.n_features: expected integer, got 2.5"),
    ("newton", "ridge", -1.0, "newton.ridge: must be positive, got -1.0"),
    ("newton", "max_iters", "5", "newton.max_iters: expected integer, got '5'"),
    ("newton", "tol", "1e-8", "newton.tol: expected number, got '1e-8'"),
    ("newton", "cert_trials", 1, "newton.cert_trials: must be >= 2, got 1"),
]


def _profile_source(m=20, n=6, **keys):
    """Config overrides for an m x n profile source with ``keys``."""
    return {"matrix": {"kind": "profile", "m": m, "n": n, **keys}}


#: (id, config overrides, the whole ConfigError message): inputs that once
#: parsed and were then ignored, or failed only once A was built
IGNORED_INPUTS = [
    ("explicit_fewer_than_n", _profile_source(profile={"kind": "explicit", "values": [3, 2, 1]}),
     "matrix.profile.values: expected a list of matrix.n = 6 numbers, got [3, 2, 1]"),
    ("explicit_more_than_m",
     _profile_source(m=8, profile={"kind": "explicit", "values": [9, 8, 7, 6, 5, 4, 3, 2, 1]}),
     "matrix.profile.values: expected a list of matrix.n = 6 numbers, "
     "got [9, 8, 7, 6, 5, 4, 3, 2, 1]"),
    ("model_and_profile", _profile_source(model="flat", profile={"kind": "flat"}),
     "matrix: give 'model' or 'profile', not both"),
    ("sigma_max_beside_profile", _profile_source(sigma_max=2.0, profile={"kind": "flat"}),
     "matrix.sigma_max: read beside 'model' only; set matrix.profile.sigma_max"),
    ("flat_param", _profile_source(profile={"kind": "flat", "param": 1.0}),
     "matrix.profile.param: unknown field"),
    ("explicit_sigma_max",
     _profile_source(profile={"kind": "explicit", "values": [6, 5, 4, 3, 2, 1], "sigma_max": 3}),
     "matrix.profile.sigma_max: unknown field"),
    ("step_sigma_max", _profile_source(profile={"kind": "step", "break_r": 2, "sigma_max": 3,
                                                "head": {"kind": "flat"},
                                                "tail": {"kind": "flat"}}),
     "matrix.profile.sigma_max: unknown field"),
    ("unknown_model", _profile_source(model="fancy2"), "matrix.model: unknown model name 'fancy2'"),
    ("step_model_not_integer", _profile_source(model="stepx"),
     "matrix.model: unknown model name 'stepx'"),
    ("newton_in_rate_sweep", {"newton": {"ridge": "abc", "tol": -1}},
     "newton.ridge: expected number, got 'abc'"),
    ("stop_tol_one", {"run": {"runs": 2, "stop_tol": 1.0}}, "run.stop_tol: must be < 1, got 1.0"),
]


def _readme_config_block():
    """The YAML example of the README's "Config file" section, as text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"### Config file\n\n```yaml\n(.*?)```", readme, re.S).group(1)


#: kind -> each commented ``profile:`` alternative in the README's config example
README_PROFILES = {kind: line for line, kind in
                   re.findall(r"# (profile: \{kind: (\w+).*)", _readme_config_block())}


def _with_unknown_key(section, key):
    cfg = _base_config()
    (cfg if section is None else cfg[section])[key] = 3
    return cfg


def _write(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestModelNames:
    def test_linear_and_polynomial(self):
        assert parse_model_name("lin.01", 150).values()[-1] == pytest.approx(5.3)
        assert parse_model_name("poly1.5", 50).values()[0] == pytest.approx(6.8)

    def test_step_presets(self):
        vals = parse_model_name("step20", 150).values()
        assert vals[19] == pytest.approx(6.6)
        assert vals[20] == pytest.approx(6.8 / 21)

    def test_flat(self):
        assert np.all(parse_model_name("flat", 10).values() == 6.8)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_name("fancy2", 10)


class TestConfigValidation:
    def test_missing_matrix(self):
        cfg = _base_config()
        del cfg["matrix"]
        with pytest.raises(ConfigError, match="matrix"):
            parse_config(cfg)

    def test_unknown_family_field_path(self):
        cfg = _base_config()
        cfg["sketch"]["families"] = ["fourier"]
        with pytest.raises(ConfigError, match="sketch.families"):
            parse_config(cfg)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(_base_config(experiment="magic"))

    def test_subcommand_mismatch(self):
        with pytest.raises(ConfigError, match="command line"):
            parse_config(_base_config(), experiment="sparsity_sweep")

    def test_bad_run_values(self):
        cfg = _base_config()
        cfg["run"]["tail"] = 0
        with pytest.raises(ConfigError, match="run.tail"):
            parse_config(cfg)

    def test_m_less_than_n_rejected(self):
        cfg = _base_config()
        cfg["matrix"] = {"kind": "profile", "model": "flat", "m": 5, "n": 10}
        with pytest.raises(ConfigError, match="matrix.m"):
            parse_config(cfg)

    @pytest.mark.parametrize("section,key,path", UNKNOWN_KEYS)
    def test_unknown_key_rejected(self, section, key, path):
        cfg = _with_unknown_key(section, key)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown field"):
            parse_config(cfg)

    def test_unknown_key_in_nested_profile(self):
        cfg = _base_config(matrix={"kind": "profile", "m": 40, "n": 10,
                                   "profile": {"kind": "linear", "parm": 0.01}})
        with pytest.raises(ConfigError, match="matrix.profile.parm"):
            parse_config(cfg)

    def test_key_of_another_matrix_kind_rejected(self):
        cfg = _base_config(matrix={"kind": "identity", "n": 10, "m": 10})
        with pytest.raises(ConfigError, match="matrix.m: unknown field"):
            parse_config(cfg)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="^run: expected a mapping"):
            parse_config(_base_config(run=[1, 2]))

    @pytest.mark.parametrize("experiment", ["rate_sweep", "newton_demo"])
    def test_k_above_rows_rejected(self, experiment):
        with pytest.raises(ConfigError, match="^sketch.k: "):
            parse_config(_k_too_large(experiment))

    def test_k_up_to_rows_accepted(self):
        parse_config(_base_config(sketch={"families": ["gaussian"], "k": [30]}))
        parse_config({"experiment": "newton_demo", "sketch": {"k": [6]},
                      "newton": {"n_features": 6}})
        # a dataset's row count is unknown until the file is read
        parse_config(_base_config(matrix={"kind": "dataset", "path": "x.libsvm"},
                                  sketch={"k": [10**6]}))

    def test_s_up_to_rows_accepted(self, tmp_path):
        parse_config(_base_config(sketch={"families": ["less_uniform"], "k": [2], "s": [30]}))
        parse_config({"experiment": "newton_demo", "newton": {"n_features": 6},
                      "sketch": {"families": ["less_uniform"], "k": [2], "s": [6]}})
        # only the sparse families read s
        parse_config(_base_config(sketch={"families": ["gaussian"], "k": [2], "s": [10**6]}))
        data = tmp_path / "tiny.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{i % 3}.0\n" for i in range(5)))
        raw = _base_config(experiment="randsvd_err", matrix={"kind": "dataset", "path": str(data)},
                           sketch={"families": ["less_uniform"], "k": [2], "s": [5]},
                           run={"err_trials": 2})
        assert run_experiment(parse_config(raw), tmp_path / "o").rows[0]["s"] == 5

    def test_repeated_s_of_dense_family_accepted(self):
        # only the sparse families read s, so a repeat names no cell twice
        cfg = parse_config(_base_config(sketch={"families": ["gaussian"], "k": [2], "s": [4, 4]}))
        assert cfg.s_list == [4, 4]

    def test_readme_config_parses(self):
        cfg = parse_config(yaml.safe_load(_readme_config_block()))
        assert cfg.experiment == "rate_sweep" and cfg.runs == 100

    @pytest.mark.parametrize("line", README_PROFILES.values(), ids=README_PROFILES.keys())
    def test_readme_profile_alternatives_parse(self, line):
        # each commented alternative replaces model and sigma_max, never joins them
        raw = yaml.safe_load(_readme_config_block())
        raw["matrix"].update(yaml.safe_load(line))
        with pytest.raises(ConfigError, match="^matrix: give 'model' or 'profile', not both$"):
            parse_config(raw)
        del raw["matrix"]["model"], raw["matrix"]["sigma_max"]
        assert parse_config(raw).matrix.rows == 1000

    def test_readme_profile_keys(self):
        # the README's table of profile kinds lists exactly the keys each reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (.*) \|$",
                           readme.split("keys besides `kind`", 1)[1].split("\n\n")[0], re.M)
        sample = {"sigma_max": 6.8, "param": 1.5, "values": [4.0, 3.0, 2.0, 1.0], "break_r": 2,
                  "head": {"kind": "flat"}, "tail": {"kind": "flat", "sigma_max": 1.0}}
        listed = set()
        for kinds, keys in table:
            keys = re.findall(r"`(\w+)`", keys)
            for kind in re.findall(r"`(\w+)`", kinds):
                listed.add(kind)
                profile = {"kind": kind, **{key: sample[key] for key in keys}}
                parse_config(_base_config(**_profile_source(m=10, n=4, profile=profile)))
                for other in sorted(set(sample) - set(keys)):
                    bad = _base_config(**_profile_source(
                        m=10, n=4, profile={**profile, other: sample[other]}))
                    with pytest.raises(ConfigError,
                                       match=f"^matrix.profile.{other}: unknown field$"):
                        parse_config(bad)
        assert listed == {"flat", "linear", "polynomial", "exponential", "explicit", "step"}

    @pytest.mark.parametrize("key,value,message",
                             [c[1:] for c in BAD_SECTION_VALUES if c[0] == "newton"],
                             ids=[c[1] for c in BAD_SECTION_VALUES if c[0] == "newton"])
    def test_newton_checked_for_rate_sweep(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(_base_config(newton={key: value}))

    def test_run_and_newton_defaults(self):
        cfg = parse_config({"experiment": "rate_sweep", "matrix": {"kind": "identity", "n": 4},
                            "sketch": {"k": [2]}})
        assert (cfg.runs, cfg.tail, cfg.max_iters, cfg.stop_tol, cfg.trials, cfg.err_trials,
                cfg.iters, cfg.with_bounds) == (100, 50, 1000, 1e-5, 1600, 50, 30, False)
        cfg = parse_config({"experiment": "newton_demo", "sketch": {"k": [2]}})
        assert cfg.newton == {"n_samples": 500, "n_features": 50, "ridge": 1e-2,
                              "max_iters": 500, "tol": 1e-8, "cert_trials": 400}

    @pytest.mark.parametrize("section,key,value,message", BAD_SECTION_VALUES,
                             ids=[f"{c[0]}.{c[1]}={c[2]!r}" for c in BAD_SECTION_VALUES])
    def test_bad_section_value_message(self, section, key, value, message):
        cfg = {"experiment": "newton_demo", "sketch": {"k": [2]}, section: {key: value}}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(cfg)

    @pytest.mark.parametrize("text,expected", [("false", False), ("no", False),
                                               ("true", True), ("on", True)])
    def test_with_bounds_yaml_boolean(self, text, expected):
        raw = _base_config()
        raw["run"]["with_bounds"] = yaml.safe_load(text)
        assert parse_config(raw).with_bounds is expected

    def test_newton_demo_without_matrix_has_none(self):
        cfg = parse_config({"experiment": "newton_demo", "sketch": {"k": [2]}})
        assert cfg.matrix is None and cfg.build_system() is None

    def test_newton_demo_matrix_still_checked(self):
        raw = {"experiment": "newton_demo", "sketch": {"k": [2]}, "matrix": {"kind": "nope"}}
        with pytest.raises(ConfigError, match="^matrix.kind: unknown kind"):
            parse_config(raw)
        raw["matrix"] = {"kind": "identity", "n": 3}
        assert parse_config(raw).matrix.label == "identity3"

    def test_seed_override(self, tmp_path):
        path = _write(tmp_path, _base_config())
        cfg = load_config(path, seed_override=123)
        assert cfg.master_seed == 123
        assert cfg.config_hash != load_config(path).config_hash


class TestRateSweep:
    def test_identity_rates_match_symmetry_oracle(self, tmp_path):
        raw = _base_config(
            matrix={"kind": "identity", "n": 100},
            sketch={"families": ["gaussian"], "k": [10, 20]},
            run={"runs": 60, "tail": 40, "max_iters": 400, "stop_tol": 1e-5},
        )
        cfg = parse_config(raw)
        table = run_experiment(cfg, tmp_path)
        rows = table.rows
        assert rows[0]["rate"] == pytest.approx(0.1, abs=0.02)
        assert rows[1]["rate"] == pytest.approx(0.2, abs=0.02)

    def test_csv_has_metadata_line(self, tmp_path):
        cfg = parse_config(_base_config())
        run_experiment(cfg, tmp_path)
        first = (tmp_path / "rate_sweep.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        assert "master_seed=99" in first and "version=" in first

    def test_package_version_is_pyproject_version(self):
        # the meta line's version= comes from the package; the two must not drift
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
        assert version == sketchsolve.__version__


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        raw = _base_config(
            sketch={"families": ["gaussian", "less_uniform"], "k": [2, 4], "s": [5]},
        )
        cfg = parse_config(raw)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        table = run_experiment(cfg, out1)
        run_experiment(parse_config(raw), out2)
        emit_plot_data(table, out1, svg=True)
        emit_plot_data(table, out2, svg=True)
        for name in ("rate_sweep.csv", "rate_sweep_plot.csv", "rate_sweep.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_build_system_rebuilds_matrix(self):
        # A is not written with the results; the config and seed rebuild it
        raw = _base_config(matrix={"kind": "profile", "model": "poly1.5", "m": 40, "n": 6})
        first, second = parse_config(raw).build_system(), parse_config(raw).build_system()
        assert first.A.tobytes() == second.A.tobytes()
        assert first.b.tobytes() == second.b.tobytes()


class TestOtherExperiments:
    def test_sparsity_sweep_schema(self, tmp_path):
        raw = _base_config(
            experiment="sparsity_sweep",
            matrix={"kind": "gaussian_unit", "m": 120, "n": 12},
            sketch={"families": ["gaussian", "less_uniform"], "k": [4], "s": [2, 6, 0]},
            run={"runs": 5, "iters": 10},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        rows = table.rows
        # dense reference + one row per sparsity level (0 maps to s=m)
        assert [r["s"] for r in rows] == [None, 2, 6, 120]
        assert all(r["rel_err_min"] <= r["rel_err_mean"] <= r["rel_err_max"] for r in rows)

    def test_surrogate_compare_small(self, tmp_path):
        raw = _base_config(
            experiment="surrogate_compare",
            matrix={"kind": "identity", "n": 40},
            sketch={"families": ["gaussian"], "k": [4]},
            run={"trials": 300, "err_trials": 20},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        row = table.rows[0]
        assert 0.0 < row["s_min"] < 1.0 and 0.0 < row["surrogate"] < 1.0

    def test_convergence_curves_padding(self, tmp_path):
        raw = _base_config(
            experiment="convergence_curves",
            matrix={"kind": "identity", "n": 10},
            sketch={"families": ["gaussian"], "k": [10]},  # converges in 1 step
            run={"runs": 3, "max_iters": 5, "stop_tol": 1e-9},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        rows = table.rows
        assert len(rows) == 6  # t = 0..5 with converged value carried forward
        assert rows[-1]["rel_err_mean"] <= 1e-9

    def test_randsvd_err_columns(self, tmp_path):
        raw = _base_config(
            experiment="randsvd_err",
            matrix={"kind": "profile", "model": "poly1", "m": 80, "n": 16},
            sketch={"families": ["gaussian"], "k": [2, 6]},
            run={"err_trials": 20},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        rows = table.rows
        assert rows[0]["rf_bound"] is None  # k=2 has no admissible p
        assert rows[1]["rf_bound"] > 0 and rows[1]["rf_bound_p"] >= 2
        assert rows[1]["err_mean"] <= rows[1]["rf_bound"] + 3 * rows[1]["err_stderr"]

    def test_eigendecay_schema(self, tmp_path):
        raw = _base_config(
            experiment="eigendecay",
            matrix={"kind": "identity", "n": 12},
            sketch={"families": ["gaussian"], "k": [3]},
            run={"runs": 10, "max_iters": 30, "trials": 200, "stop_tol": 1e-9},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        rows = table.rows
        assert len(rows) == 12
        for row in rows:
            assert row["contraction"] == pytest.approx(1.0 - 3 / 12, abs=0.15)

    def test_newton_demo_summary(self, tmp_path):
        raw = {
            "experiment": "newton_demo",
            "master_seed": 7,
            "sketch": {"families": ["gaussian"], "k": [4]},
            "newton": {"n_samples": 80, "n_features": 10, "ridge": 1e-2,
                       "max_iters": 300, "tol": 1e-8, "cert_trials": 60},
        }
        table = run_experiment(parse_config(raw), tmp_path)
        row = table.rows[0]
        assert row["monotone"]
        assert row["f_gap_final"] <= 1e-6
        assert row["crude_bound"] <= row["rho_hat"] + 3 / np.sqrt(60)

    def test_dataset_source(self, tmp_path):
        data = tmp_path / "tiny.libsvm"
        lines = []
        rng = np.random.default_rng(0)
        for i in range(40):
            vals = rng.standard_normal(6)
            lines.append("1 " + " ".join(f"{j+1}:{float(v)!r}" for j, v in enumerate(vals)))
        data.write_text("\n".join(lines) + "\n")
        raw = _base_config(
            experiment="randsvd_err",
            matrix={"kind": "dataset", "path": str(data), "rows": 30, "cols": 5},
            sketch={"families": ["gaussian"], "k": [2]},
            run={"err_trials": 10},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        assert table.rows[0]["matrix"] == "tiny"


#: every result table: one per experiment, and rate_sweep with ``with_bounds``
SCHEMA_CASES = ["rate_sweep", "rate_sweep+bounds", "convergence_curves", "surrogate_compare",
                "sparsity_sweep", "randsvd_err", "eigendecay", "newton_demo"]


def _readme_schemas():
    """Header line of each table in the README "Output CSVs" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Output CSVs", 1)[1]
    schemas = {}
    for name, columns, bounds in re.findall(
            r"^\| `(\w+)` \| `([\w,]+)`(?: \(\+ `([\w,]+)` with `with_bounds`)?",
            section, re.M):
        schemas[name] = columns
        if bounds:
            schemas[f"{name}+bounds"] = f"{columns},{bounds}"
    return schemas


class TestSchemas:
    def test_readme_lists_every_table(self):
        assert sorted(_readme_schemas()) == sorted(SCHEMA_CASES)

    @pytest.mark.parametrize("case", SCHEMA_CASES)
    def test_header_matches_readme(self, tmp_path, case):
        experiment = case.split("+")[0]
        raw = _base_config(
            experiment=experiment,
            matrix={"kind": "profile", "model": "poly1.5", "m": 30, "n": 6},
            sketch={"families": ["gaussian"], "k": [2]},
            run={"runs": 2, "tail": 2, "max_iters": 4, "trials": 4, "err_trials": 2,
                 "iters": 3, "with_bounds": case.endswith("+bounds")},
        )
        if experiment == "newton_demo":
            del raw["matrix"], raw["run"]
            raw["newton"] = {"n_samples": 20, "n_features": 4, "max_iters": 3,
                             "cert_trials": 2}
        run_experiment(parse_config(raw), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{experiment}.csv"]
        header = (tmp_path / f"{experiment}.csv").read_text().splitlines()[1]
        assert header == _readme_schemas()[case]


class TestResultTable:
    @pytest.mark.parametrize("second", [{"matrix": "b"}, {"matrix": "b", "x": 2, "y": 3},
                                        {"x": 2, "matrix": "b"}],
                             ids=["missing_column", "extra_column", "reordered"])
    def test_row_unlike_header_rejected_without_file(self, tmp_path, second):
        table = ResultTable("t", ["matrix"], rows=[{"matrix": "a", "x": 1}, second])
        with pytest.raises(RuntimeError, match="columns"):
            table.write_csv(tmp_path / "t.csv", "meta")
        assert not (tmp_path / "t.csv").exists()

    def test_no_rows_rejected_without_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="no rows"):
            ResultTable("t", ["matrix"]).write_csv(tmp_path / "t.csv", "meta")
        assert not (tmp_path / "t.csv").exists()

    def test_header_is_first_row_keys(self, tmp_path):
        table = ResultTable("t", ["matrix"], rows=[{"matrix": "a", "x": 1, "flag": True},
                                                   {"matrix": "b", "x": None, "flag": False}],
                            meta_note="note")
        table.write_csv(tmp_path / "t.csv", "meta")
        assert (tmp_path / "t.csv").read_text() == "# meta note\nmatrix,x,flag\na,1,1\nb,,0\n"


#: (experiment, its run or newton section, the columns that repeat the config)
COUNT_CASES = [
    ("rate_sweep", {"runs": 3, "tail": 4, "max_iters": 6}, {"runs": "3", "tail": "4"}),
    ("surrogate_compare", {"trials": 6, "err_trials": 3},
     {"trials": "6", "err_trials": "3", "gamma_mode": "monte_carlo_gamma"}),
    ("randsvd_err", {"err_trials": 3}, {"trials": "3"}),
    ("newton_demo", {"n_samples": 20, "n_features": 4, "max_iters": 3, "cert_trials": 5},
     {"cert_trials": "5"}),
]


@pytest.mark.parametrize("experiment, section, expected", COUNT_CASES,
                         ids=[case[0] for case in COUNT_CASES])
def test_count_columns_equal_config(tmp_path, experiment, section, expected):
    raw = _base_config(
        experiment=experiment,
        matrix={"kind": "profile", "model": "poly1.5", "m": 30, "n": 6},
        sketch={"families": ["gaussian", "less_uniform"], "k": [2, 3], "s": [2]},
        run=section,
    )
    if experiment == "newton_demo":
        del raw["matrix"], raw["run"]
        raw["newton"] = section
    run_experiment(parse_config(raw), tmp_path)
    lines = (tmp_path / f"{experiment}.csv").read_text().splitlines()[1:]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 4
    for row in rows:
        assert {col: row[col] for col in expected} == expected


class TestPlotData:
    def test_long_format_columns(self, tmp_path):
        cfg = parse_config(_base_config())
        table = run_experiment(cfg, tmp_path)
        path = emit_plot_data(table, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "series,x,y,ylo,yhi"
        assert lines[1].startswith("identity30/gaussian,3,")

    def test_shaded_band_for_sparsity(self, tmp_path):
        raw = _base_config(
            experiment="sparsity_sweep",
            matrix={"kind": "gaussian_unit", "m": 60, "n": 8},
            sketch={"families": ["less_uniform"], "k": [3], "s": [2, 4]},
            run={"runs": 4, "iters": 5},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        path = emit_plot_data(table, tmp_path)
        lines = path.read_text().splitlines()[1:]
        assert all(len(line.split(",")) == 5 for line in lines)
        assert all(line.split(",")[3] != "" for line in lines)  # ylo populated

    def test_surrogate_compare_plot_rows(self, tmp_path):
        raw = _base_config(
            experiment="surrogate_compare",
            matrix={"kind": "profile", "model": "poly1.5", "m": 30, "n": 6},
            sketch={"families": ["gaussian", "less_uniform"], "k": [2, 3], "s": [2]},
            run={"trials": 4, "err_trials": 2},
        )
        table = run_experiment(parse_config(raw), tmp_path)
        lines = emit_plot_data(table, tmp_path).read_text().splitlines()
        expected = [f"poly1.5/{row['family']}/{metric},{row['k']},{row[metric]!r},,"
                    for metric in ("s_min", "surrogate") for row in table.rows]
        assert len(expected) == 8
        assert lines == ["series,x,y,ylo,yhi"] + expected

    def test_empty_table_rejected_without_file(self, tmp_path):
        table = ResultTable("rate_sweep", ["matrix"])
        with pytest.raises(ValueError):
            emit_plot_data(table, tmp_path)
        assert not (tmp_path / "rate_sweep_plot.csv").exists()

    def test_unknown_experiment_rejected(self, tmp_path):
        table = ResultTable("mystery", ["matrix"], rows=[{"matrix": "a"}])
        with pytest.raises(ValueError, match="unknown experiment"):
            emit_plot_data(table, tmp_path)


class TestCli:
    def test_success_exit_code(self, tmp_path):
        path = _write(tmp_path, _base_config())
        code = main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "rate_sweep.csv").exists()
        assert (tmp_path / "o" / "rate_sweep_plot.csv").exists()

    def test_svg_flag(self, tmp_path):
        path = _write(tmp_path, _base_config())
        code = main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--svg"])
        assert code == 0
        svg = (tmp_path / "o" / "rate_sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["sketch"]["k"] = []
        path = _write(tmp_path, cfg)
        assert main(["rate-sweep", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,path", UNKNOWN_KEYS)
    def test_unknown_key_exit_code(self, tmp_path, capsys, section, key, path):
        cfg_path = _write(tmp_path, _with_unknown_key(section, key))
        assert main(["rate-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["rate_sweep", "newton_demo"])
    def test_k_above_rows_exit_code(self, tmp_path, capsys, experiment):
        cfg_path = _write(tmp_path, _k_too_large(experiment))
        argv = [experiment.replace("_", "-"), "--config", str(cfg_path),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "sketch.k: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,run", [
        ("randsvd_err", {}),
        ("rate_sweep", {"with_bounds": True}),
    ], ids=["randsvd_err", "rate_sweep_with_bounds"])
    def test_k_above_singular_values_exit_code(self, tmp_path, capsys, experiment, run):
        cfg = _base_config(experiment=experiment,
                           matrix={"kind": "profile", "m": 60, "n": 8, "model": "lin.01"},
                           sketch={"families": ["gaussian"], "k": [10]},
                           run={"runs": 2, "tail": 3, "max_iters": 5, "err_trials": 2, **run})
        argv = [experiment.replace("_", "-"), "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "sketch.k: 10 exceeds the 8 singular values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("experiment,k,run,error", [
        ("rate_sweep", [3], {"with_bounds": True}, "sketch.k: the bounds need k - 1 < rank(A) = 2"),
        ("eigendecay", [1, 2], {"trials": 4},
         "matrix: eigendecay needs rank(A) = min(m, n), got 2 < 3"),
        ("surrogate_compare", [2], {"trials": 4},
         "matrix: surrogate-compare needs rank(A) = n, got 2 < 3"),
    ], ids=["rate_sweep_with_bounds", "eigendecay", "surrogate_compare"])
    def test_rank_deficient_exit_code(self, tmp_path, capsys, experiment, k, run, error, seed):
        # column 2 is twice column 1: rank(A) = 2 < n = 3
        data = tmp_path / "rank2.libsvm"
        data.write_text("".join(f"1 1:{i % 7 + 1}.0 2:{2 * (i % 7 + 1)}.0 3:{i % 5 - 2}.0\n"
                                for i in range(30)))
        cfg = _base_config(experiment=experiment, master_seed=seed,
                           matrix={"kind": "dataset", "path": str(data)},
                           sketch={"families": ["gaussian"], "k": k},
                           run={"runs": 2, "tail": 3, "max_iters": 5, "err_trials": 2, **run})
        argv = [experiment.replace("_", "-"), "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eigendecay_wide_full_row_rank(self, tmp_path, seed):
        # m < n: rank(A) = m, every error stays in the row space, so no
        # component is dead and the run succeeds
        cfg = _base_config(experiment="eigendecay", master_seed=seed,
                           matrix={"kind": "gaussian_unit", "m": 8, "n": 20},
                           sketch={"families": ["gaussian"], "k": [2]},
                           run={"runs": 2, "max_iters": 5, "trials": 4})
        argv = ["eigendecay", "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert (tmp_path / "o" / "eigendecay.csv").exists()

    @pytest.mark.parametrize("seed", [1, 4242])
    def test_surrogate_compare_wide_exit_code(self, tmp_path, capsys, seed):
        # m < n: rank(A) <= m < n, so E[P] is singular and s_min reads 0
        cfg = _base_config(experiment="surrogate_compare", master_seed=seed,
                           matrix={"kind": "gaussian_unit", "m": 8, "n": 20},
                           sketch={"families": ["gaussian"], "k": [2, 4]},
                           run={"trials": 4, "err_trials": 2})
        argv = ["surrogate-compare", "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "matrix: surrogate-compare needs rank(A) = n, got 8 < 20" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_less_wide_full_row_rank(self, tmp_path, seed):
        # m < n with rank(A) = m: every leverage score is 1, so less samples uniformly
        cfg = _base_config(master_seed=seed,
                           matrix={"kind": "gaussian_unit", "m": 8, "n": 20},
                           sketch={"families": ["gaussian", "less"], "k": [2], "s": [3]},
                           run={"runs": 2, "tail": 3, "max_iters": 10})
        argv = ["rate-sweep", "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert (tmp_path / "o" / "rate_sweep.csv").exists()

    @pytest.mark.parametrize("case", ["profile", "newton_demo", "dataset"])
    def test_s_above_rows_exit_code(self, tmp_path, capsys, case):
        cfg = _s_too_large(case, tmp_path)
        path = _write(tmp_path, cfg)
        argv = [cfg["experiment"].replace("_", "-"), "--config", str(path),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "sketch.s: 50 exceeds the" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sketch,error", [
        ({"families": ["gaussian", "gaussian"], "k": [2]}, "sketch.families[1]"),
        ({"families": ["gaussian"], "k": [2, 3, 2]}, "sketch.k[2]"),
        ({"families": ["less_uniform"], "k": [2], "s": [4, 4]}, "sketch.s[1]"),
        ({"families": ["less_uniform"], "k": [2], "s": [0, 60]}, "sketch.s[1]"),  # 0 means m
        ({"families": ["less_uniform"], "k": [2], "s": [60, 0]}, "sketch.s[1]"),
    ])
    def test_duplicate_grid_entry_exit_code(self, tmp_path, capsys, sketch, error):
        cfg = _base_config(matrix={"kind": "profile", "m": 60, "n": 8, "model": "lin.01"},
                           sketch=sketch)
        path = _write(tmp_path, cfg)
        assert main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{error}: names the same cell as" in err
        assert not (tmp_path / "o").exists()

    def test_dataset_s_zero_repeats_rows_exit_code(self, tmp_path, capsys):
        # a dataset's row count, and so what s = 0 means, is known only once read
        data = tmp_path / "tiny.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{i % 3}.0\n" for i in range(5)))
        cfg = _base_config(experiment="randsvd_err",
                           matrix={"kind": "dataset", "path": str(data)},
                           sketch={"families": ["less_uniform"], "k": [2], "s": [0, 5]},
                           run={"err_trials": 2})
        path = _write(tmp_path, cfg)
        assert main(["randsvd-err", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "sketch.s[1]: names the same cell as sketch.s[0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,section,key,value", [
        ("newton_demo", "newton", "ridge", ".inf"),
        ("rate_sweep", "run", "stop_tol", ".inf"),
        ("newton_demo", "newton", "tol", ".nan"),
        ("rate_sweep", "run", "stop_tol", "1" + "0" * 400),  # an int beyond float range
    ])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, experiment, section, key,
                                        value):
        cfg = _base_config(experiment=experiment)
        if experiment == "newton_demo":
            del cfg["matrix"], cfg["run"]
            cfg["newton"] = {"n_samples": 40, "n_features": 6, "max_iters": 20,
                             "cert_trials": 10}
        cfg[section][key] = 1.0
        text = yaml.safe_dump(cfg).replace(f"{key}: 1.0", f"{key}: {value}")
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        argv = [experiment.replace("_", "-"), "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{section}.{key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,rows", [("rate_sweep", 30), ("newton_demo", 10)])
    def test_default_s_capped_at_rows(self, tmp_path, experiment, rows):
        # without sketch.s, ceil(n ln n) exceeds the rows of a square problem
        cfg = _base_config(experiment=experiment, sketch={"families": ["less_uniform"], "k": [3]})
        if experiment == "newton_demo":
            del cfg["matrix"], cfg["run"]
            cfg["newton"] = {"n_samples": 40, "n_features": rows, "max_iters": 20,
                             "cert_trials": 10}
        argv = [experiment.replace("_", "-"), "--config", str(_write(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        lines = (tmp_path / "o" / f"{experiment}.csv").read_text().splitlines()[1:]
        s_col = lines[0].split(",").index("s")
        assert [line.split(",")[s_col] for line in lines[1:]] == [str(rows)]

    @pytest.mark.parametrize("families", [["gaussian", "less_uniform"], ["gaussian"]])
    def test_sparsity_sweep_svg_with_dense_family(self, tmp_path, families):
        # a dense cell has no s, so it has no point on the chart
        cfg = _base_config(experiment="sparsity_sweep",
                           matrix={"kind": "gaussian_unit", "m": 40, "n": 6},
                           sketch={"families": families, "k": [3], "s": [2, 4]},
                           run={"runs": 2, "iters": 3})
        argv = ["sparsity-sweep", "--config", str(_write(tmp_path, cfg)), "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        assert main(argv + [str(tmp_path / "o"), "--svg"]) == 0
        assert (tmp_path / "o" / "sparsity_sweep.svg").read_text().startswith("<svg")
        plot = "sparsity_sweep_plot.csv"
        assert (tmp_path / "o" / plot).read_bytes() == (tmp_path / "plain" / plot).read_bytes()

    def test_dataset_k_above_rows_exit_code(self, tmp_path, capsys):
        # a dataset's row count is only known once the file is read
        data = tmp_path / "tiny.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{i % 3}.0\n" for i in range(5)))
        cfg = _base_config(
            experiment="randsvd_err",
            matrix={"kind": "dataset", "path": str(data)},
            sketch={"families": ["gaussian"], "k": [2, 7]},
            run={"err_trials": 2},
        )
        path = _write(tmp_path, cfg)
        assert main(["randsvd-err", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "sketch.k: 7 exceeds the 5 rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eigendecay_k_at_rank_exit_code(self, tmp_path, capsys):
        # the surrogate's gamma exists only for k < rank(A)
        cfg = _base_config(
            experiment="eigendecay",
            matrix={"kind": "profile", "m": 60, "n": 8, "model": "poly1.5"},
            sketch={"families": ["gaussian"], "k": [2, 8]},
            run={"runs": 2, "max_iters": 5, "trials": 4},
        )
        path = _write(tmp_path, cfg)
        assert main(["eigendecay", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "sketch.k: k=8 outside [1, rank) with rank=8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_less_rank_deficient_exit_code(self, tmp_path, capsys):
        # column 3 repeats column 1, so leverage scores are undefined
        data = tmp_path / "dup.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{(i * i) % 7}.0 3:{i + 1}.0\n"
                                for i in range(20)))
        cfg = _base_config(
            matrix={"kind": "dataset", "path": str(data)},
            sketch={"families": ["gaussian", "less"], "k": [2], "s": [4]},
            run={"runs": 2, "tail": 2, "max_iters": 5},
        )
        path = _write(tmp_path, cfg)
        assert main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "sketch.families: less needs a full-column-rank A" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_import_loads_no_scipy(self):
        # the package is numpy-only; a fresh interpreter shows what it imports
        code = ("import sys, sketchsolve, sketchsolve.expcli.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(sketchsolve.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_with_bounds_string_exit_code(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["run"]["with_bounds"] = "false"
        path = _write(tmp_path, cfg)
        assert main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error: run.with_bounds: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides,message", [c[1:] for c in IGNORED_INPUTS],
                             ids=[c[0] for c in IGNORED_INPUTS])
    def test_ignored_input_exit_code(self, tmp_path, capsys, overrides, message):
        path = _write(tmp_path, _base_config(**overrides))
        assert main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["rate-sweep", "--config", str(tmp_path / "nope.yaml")]) == 1

    @pytest.mark.parametrize("field,value", [("rows", -1), ("rows", "abc"),
                                             ("cols", 0), ("n_features", 2.5),
                                             ("rows", 7), ("cols", 3)])
    def test_bad_dataset_field_exit_code(self, tmp_path, capsys, field, value):
        data = tmp_path / "tiny.libsvm"
        data.write_text("".join(f"1 1:{i + 1}.0 2:{i % 3}.0\n" for i in range(6)))
        cfg = _base_config(
            experiment="randsvd_err",
            matrix={"kind": "dataset", "path": str(data), field: value},
            sketch={"families": ["gaussian"], "k": [1]},
            run={"err_trials": 2},
        )
        path = _write(tmp_path, cfg)
        assert main(["randsvd-err", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"matrix.{field}" in capsys.readouterr().err

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        cfg = _base_config(
            experiment="randsvd_err",
            matrix={"kind": "dataset", "path": str(tmp_path / "gone.libsvm")},
        )
        path = _write(tmp_path, cfg)
        assert main(["randsvd-err", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
