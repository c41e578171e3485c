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
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(yaml.safe_load(block))
        assert cfg.experiment == "rate_sweep" and cfg.runs == 100

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

    def test_empty_table_rejected_without_file(self, tmp_path):
        table = ResultTable("rate_sweep", ["matrix"], ["matrix"])
        with pytest.raises(ValueError):
            emit_plot_data(table, tmp_path)
        assert not (tmp_path / "rate_sweep_plot.csv").exists()

    def test_unknown_experiment_rejected(self, tmp_path):
        table = ResultTable("mystery", ["matrix"], ["matrix"], rows=[{"matrix": "a"}])
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

    def test_missing_config_file(self, tmp_path):
        assert main(["rate-sweep", "--config", str(tmp_path / "nope.yaml")]) == 1

    @pytest.mark.parametrize("field,value", [("rows", -1), ("rows", "abc"),
                                             ("cols", 0), ("n_features", 2.5)])
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
