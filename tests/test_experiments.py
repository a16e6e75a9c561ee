import dataclasses
import json
import math
import os

import numpy as np
import pytest

from irsuplink import (
    ExperimentSpec,
    SpecError,
    emit_csv,
    read_csv,
    run_experiment,
    scenario_default,
)
from irsuplink.cli import main as cli_main
from irsuplink.experiments import METRICS, ExperimentTable, _build_config
from irsuplink import sample_channel_set


def tiny_spec(**overrides):
    base = dict(name="tiny", sweep_variable="N", grid=(8,), trials=1, seed=5,
                solvers=("none",), output=None,
                base={"M": 8, "N_az": 4, "N_el": 2, "rho_b": 1.0})
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_json_round_trip(self):
        spec = tiny_spec(trials=3, solvers=("ccmo", "none"))
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec

    def test_validation_catches_problems(self):
        with pytest.raises(SpecError):
            tiny_spec(sweep_variable="bandwidth").validate()
        with pytest.raises(SpecError):
            tiny_spec(grid=()).validate()
        with pytest.raises(SpecError):
            tiny_spec(trials=0).validate()
        with pytest.raises(SpecError):
            tiny_spec(solvers=("sdr",)).validate()
        with pytest.raises(SpecError):
            tiny_spec(base={"bogus": 1}).validate()

    def test_malformed_json_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_json("{not json")
        with pytest.raises(SpecError):
            ExperimentSpec.from_json(json.dumps({"name": "x"}))


class TestPresets:
    def test_reference_presets_pin_scenarios(self):
        presets = scenario_default()
        olos = presets["fig4-olos"]
        assert olos.sweep_variable == "N" and olos.base["rho_b"] == 1.0
        fig5 = presets["fig5"]
        assert fig5.sweep_variable == "d_x1"
        assert min(fig5.grid) == 10 and max(fig5.grid) == 70
        fig8 = presets["fig8"]
        assert fig8.sweep_variable == "rho_b"
        assert min(fig8.grid) == 0.0 and max(fig8.grid) == 1.0
        for spec in presets.values():
            spec.validate()

    def test_base_defaults_match_reference_setup(self):
        cfg, d_spec = _build_config({}, "N", 40)
        assert cfg.M == 32 and cfg.N_az == 5 and cfg.N == 40
        assert cfg.W == 500e6 and cfg.T == 50e-3
        assert cfg.noise_power == pytest.approx(10 ** -11.5)
        assert cfg.gain.nu == 15.0 and cfg.L == 3
        assert cfg.ap_xy == (0.0, 0.0) and cfg.irs_xy == (80.0, 0.0)
        assert cfg.user_xy == ((40.0, 40.0),)
        assert tuple(d_spec) == (5000.0, 8000.0)

    def test_n_sweep_factorisation(self):
        cfg, _ = _build_config({}, "N", 45)
        assert (cfg.N_az, cfg.N_el) == (5, 9)
        cfg, _ = _build_config({}, "N", 8)
        assert (cfg.N_az, cfg.N_el) == (8, 1)


class TestRunExperiment:
    def test_builds_each_grid_config_once(self, monkeypatch):
        from irsuplink import experiments

        calls = []

        def counting(base, variable, value):
            calls.append(value)
            return _build_config(base, variable, value)

        monkeypatch.setattr(experiments, "_build_config", counting)
        run_experiment(tiny_spec(grid=(8, 16), solvers=("none", "fixed-random")))
        assert calls == [8, 16]

    def test_single_trial_single_point(self):
        table = run_experiment(tiny_spec())
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.solver == "none" and row.sweep_value == 8.0
        assert len(table.aggregates) == 1

    def test_paired_channel_draws_across_solvers(self):
        # both solvers must see the identical realization: the draw only
        # depends on (seed, trial), never on the solver
        spec = tiny_spec(solvers=("ccmo", "none"))
        cfg, _ = _build_config(spec.base, "N", 8)
        a = sample_channel_set(cfg, np.random.default_rng([spec.seed, 0, 0]))
        b = sample_channel_set(cfg, np.random.default_rng([spec.seed, 0, 0]))
        assert a.h_direct.tobytes() == b.h_direct.tobytes()
        assert a.G.tobytes() == b.G.tobytes()

    def test_converged_rows_respect_deadline(self):
        spec = tiny_spec(trials=2, solvers=("ccmo", "none"), grid=(8, 16))
        table = run_experiment(spec)
        cfg, _ = _build_config(spec.base, "N", 8)
        for row in table.rows:
            if row.converged:
                assert max(row.latencies_s) <= cfg.T * (1 + 1e-6)

    def test_infeasible_trials_recorded_not_fatal(self):
        # zero NLoS paths and full blockage leave no usable direct channel
        spec = tiny_spec(solvers=("none",),
                         base={"M": 8, "N_az": 4, "N_el": 2, "rho_b": 1.0, "L": 0})
        table = run_experiment(spec)
        assert len(table.rows) == 1
        assert not table.rows[0].feasible
        assert math.isnan(table.rows[0].sum_power_dbm)
        _, _, metrics = table.aggregates[0]
        assert metrics["feasible"]["mean"] == 0.0

    def test_multi_antenna_preset_without_irs(self):
        spec = dataclasses.replace(scenario_default()["multi-antenna"], trials=1,
                                   grid=(2,), solvers=("none",))
        table = run_experiment(spec)
        assert len(table.rows) == 1 and table.rows[0].solver == "none"


class TestSweepVariables:
    @pytest.mark.parametrize("variable,grid", [
        ("N", (8,)),
        ("d_x1", (25.0,)),
        ("D", (6000.0,)),
        ("nu", (12.0,)),
        ("rho_b", (0.5,)),
        ("N_u", (2,)),
        ("T", (0.04,)),
    ])
    def test_every_sweep_variable_runs(self, variable, grid):
        spec = tiny_spec(name=f"sv-{variable}", sweep_variable=variable, grid=grid,
                         solvers=("ccmo",))
        table = run_experiment(spec)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.sweep_value == float(grid[0])
        if row.feasible:
            assert np.isfinite(row.sum_power_dbm)

    def test_fixed_data_size_applies_to_all_users(self):
        spec = tiny_spec(name="sv-D2", sweep_variable="D", grid=(6000.0,),
                         solvers=("none",),
                         base={"M": 8, "N_az": 4, "N_el": 2, "K": 2})
        cfg, d_spec = _build_config(spec.base, "D", 6000.0)
        assert d_spec == 6000.0
        table = run_experiment(spec)
        # equal data sizes -> equal protection ratios for both users
        row = table.rows[0]
        assert len(row.powers_dbm) == 2


class TestCsv:
    def test_round_trip_and_schema(self, tmp_path):
        spec = tiny_spec(trials=2, solvers=("ccmo", "none"), grid=(8, 16))
        table = run_experiment(spec)
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        rows = read_csv(path)
        assert len(rows) == 4  # 2 points x 2 solvers
        assert len(rows[0]) == 2 + 4 * len(METRICS)
        for row, (value, solver, metrics) in zip(rows, table.aggregates):
            assert row["sweep_value"] == value and row["solver"] == solver
            for m in METRICS:
                assert row[f"{m}_mean"] == pytest.approx(metrics[m]["mean"],
                                                         rel=1e-9, abs=1e-12, nan_ok=True)

    def test_rows_sorted_by_value_then_solver(self, tmp_path):
        spec = tiny_spec(trials=1, solvers=("none", "ccmo"), grid=(16, 8))
        table = run_experiment(spec)
        path = tmp_path / "sorted.csv"
        emit_csv(table, path)
        rows = read_csv(path)
        keys = [(r["sweep_value"], r["solver"]) for r in rows]
        assert keys == sorted(keys)

    def test_empty_table_refused(self, tmp_path):
        empty = ExperimentTable(spec=tiny_spec(), rows=(), aggregates=())
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_csv(empty, path)
        assert not path.exists()

    def test_rerun_byte_identical(self, tmp_path):
        spec = tiny_spec(trials=2, solvers=("ccmo", "none"))
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_experiment(spec), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestCli:
    def test_run_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "quick.csv"
        code = cli_main(["run", "--preset", "quick", "--trials", "1", "--seed", "3",
                         "--out", str(out), "--emit-plot-script"])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "quick.csv.plot.py").exists()
        text = capsys.readouterr().out
        assert "quick" in text

    def test_run_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(output=str(tmp_path / "t.csv")).to_json())
        assert cli_main(["run", "--spec", str(spec_path)]) == 0
        assert (tmp_path / "t.csv").exists()

    def test_validate_good_and_bad(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(tiny_spec().to_json())
        assert cli_main(["validate", "--spec", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "sweep_variable": "nope", "grid": [1]}))
        assert cli_main(["validate", "--spec", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("variable, value, base", [
        ("rho_b", 1.5, {}),
        ("N", 0, {}),
        ("N", 8, {"D_nats": [5000, 6000, 7000]}),
        ("N", 8, {"D_nats": [8000, 5000]}),
        ("N", 8, {"D_nats": "abc"}),
        ("N", 8, {"D_nats": -5}),
        ("D", -5, {}),
    ], ids=["rho_b-1.5", "N-0", "D_nats-triple", "D_nats-reversed", "D_nats-text",
            "D_nats-negative", "D--5"])
    def test_out_of_range_grid_value_is_spec_error(self, tmp_path, capsys, command,
                                                   variable, value, base):
        out = tmp_path / "x.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "sweep_variable": variable, "grid": [value],
                                    "trials": 1, "solvers": ["none"], "output": str(out),
                                    "base": base}))
        assert cli_main([command, "--spec", str(spec)]) == 1
        assert "spec error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_is_spec_error(self):
        assert cli_main(["run", "--preset", "does-not-exist"]) == 1

    def test_unwritable_output_is_io_error(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = cli_main(["run", "--preset", "quick", "--trials", "1",
                         "--out", str(out)])
        assert code == 2

    def test_missing_spec_file_is_io_error(self):
        assert cli_main(["validate", "--spec", "/nonexistent/spec.json"]) == 2

    def test_presets_listing(self, capsys):
        assert cli_main(["presets"]) == 0
        text = capsys.readouterr().out
        for name in ("fig4-olos", "fig5", "fig8", "quick"):
            assert name in text
