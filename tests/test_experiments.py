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

    @pytest.mark.parametrize("field, value", [("trials", 1.5), ("seed", 2.5),
                                              ("trials", "3"), ("trials", True),
                                              ("base", {"M": "8", "L": "2"}),
                                              ("base", {"K": "2"}), ("base", {"L": True})])
    def test_validation_rejects_a_count_that_is_not_whole(self, field, value):
        # a spec built in code does not pass through from_dict; strings and
        # booleans are not whole numbers
        spec = ExperimentSpec(name="x", sweep_variable="N", grid=(8,), trials=1,
                              solvers=("none",))
        name = next(iter(value)) if field == "base" else field
        with pytest.raises(SpecError, match=f"{name} must be a whole number"):
            dataclasses.replace(spec, **{field: value}).validate()

    def test_whole_float_counts_run_as_integers(self):
        floats = run_experiment(tiny_spec(trials=2.0, seed=3.0)).rows
        ints = run_experiment(tiny_spec(trials=2, seed=3)).rows
        assert len(floats) == 2
        assert [r.powers_dbm for r in floats] == [r.powers_dbm for r in ints]

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
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()

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

    def test_multi_antenna_preset_no_irs(self):
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
        assert d_spec == (6000.0, 6000.0)
        table = run_experiment(spec)
        # equal data sizes -> equal protection ratios for both users
        row = table.rows[0]
        assert len(row.powers_dbm) == 2

    def test_base_n_u_solves_multi_antenna(self):
        # a base N_u above 1 takes the multi-antenna path at every grid point
        from irsuplink import (LatencyProfile, sample_multi_antenna_channels,
                               solve_multi_antenna, watts_to_dbm)
        from irsuplink.experiments import _SOLVER_INDEX

        spec = tiny_spec(name="base-nu", grid=(8, 16), trials=2, solvers=("fixed-random",),
                         base={"M": 8, "K": 2, "rho_b": 1.0, "N_u": 2})
        table = run_experiment(spec)
        for i, row in enumerate(table.rows):  # sorted by value; trials in draw order
            trial = i % spec.trials
            cfg, d_spec = _build_config(spec.base, "N", row.sweep_value)
            mu = sample_multi_antenna_channels(cfg, np.random.default_rng([spec.seed, trial, 0]))
            D = np.random.default_rng([spec.seed, trial, 1]).uniform(*d_spec, size=cfg.K)
            _, st, _ = solve_multi_antenna(
                cfg, mu, LatencyProfile.from_data(D, cfg.W, cfg.T), "fixed-random",
                np.random.default_rng([spec.seed, trial, 2, _SOLVER_INDEX["fixed-random"]]))
            assert row.powers_dbm == tuple(float(x) for x in watts_to_dbm(st.p))


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
    @pytest.mark.parametrize("variable, value, base, top", [
        ("rho_b", 1.5, {}, {}),
        ("N", 0, {}, {}),
        ("N", 8, {"D_nats": [5000, 6000, 7000]}, {}),
        ("N", 8, {"D_nats": [8000, 5000]}, {}),
        ("N", 8, {"D_nats": "abc"}, {}),
        ("N", 8, {"D_nats": -5}, {}),
        ("D", -5, {}, {}),
        # counts are never truncated: 1.5 antennas is not one
        ("N", 8.5, {}, {}),
        ("N_u", 1.5, {}, {}),
        *[("rho_b", 0.5, {name: 1.6}, {}) for name in ("M", "N_az", "N_el", "K", "L", "N_u")],
        ("N", 8, {}, {"trials": 1.9}),
        ("N", 8, {}, {"seed": 3.7}),
        # positions are (x, y) pairs of numbers
        ("N", 8, {"ap_xy": [0.0]}, {}),
        ("N", 8, {"irs_xy": [80.0, 0.0, 1.0]}, {}),
        ("N", 8, {"d_x1": [40.0, 1.0]}, {}),
        # a spec's top-level keys are exactly its fields
        ("N", 8, {}, {"trails": 2}),
        # the N grid sets N_az x N_el, but a base N_el is still a count
        ("N", 8, {"N_el": 1.6}, {}),
        # a grid point is a number, never a (lo, hi) data-size pair
        ("D", [5000.0, 6000.0], {}, {}),
        # grid points and data sizes are finite
        ("d_x1", math.nan, {}, {}),
        ("N", 8, {"D_nats": math.inf}, {}),
        # base numbers are finite and never booleans
        ("N", 8, {"W_hz": math.inf}, {}),
        ("N", 8, {"noise_dbm": math.nan}, {}),
        ("N", 8, {"nu_db": math.nan}, {}),
        ("N", 8, {"d_x1": math.nan}, {}),
        ("N", 8, {"ap_xy": [math.nan, 0.0]}, {}),
        ("N", 8, {"rho_U_dbi": math.inf}, {}),
        ("N", 8, {"d_y1": math.inf}, {}),
        ("N", 8, {"noise_dbm": True}, {}),
        ("rho_b", True, {}, {}),
        ("N", 8, {"D_nats": True}, {}),
        # the sampler draws path loss over every AP-IRS, user-AP and user-IRS link
        ("N", 8, {"d_x1": 0.0, "d_y1": 0.0}, {}),
        ("N", 8, {"irs_xy": [0.0, 0.0]}, {}),
        # an integer too large for a float is out of range, not a crash
        ("rho_b", 0.5, {"M": 10**400}, {}),
        ("rho_b", 10**400, {}, {}),
    ], ids=["rho_b-1.5", "N-0", "D_nats-triple", "D_nats-reversed", "D_nats-text",
            "D_nats-negative", "D--5", "N-8.5", "N_u-1.5", "M-1.6", "N_az-1.6", "N_el-1.6",
            "K-1.6", "L-1.6", "base-N_u-1.6", "trials-1.9", "seed-3.7", "ap_xy-single",
            "irs_xy-triple", "user_xy-list", "top-trails", "N-sweep-N_el-1.6", "D-pair", "d_x1-nan",
            "D_nats-inf", "W_hz-inf", "noise_dbm-nan", "nu_db-nan", "base-d_x1-nan", "ap_xy-nan",
            "rho_U_dbi-inf", "d_y1-inf", "noise_dbm-true", "rho_b-true", "D_nats-true",
            "user-at-ap", "irs-at-ap", "M-401-digits", "rho_b-401-digits"])
    def test_out_of_range_grid_value_is_spec_error(self, tmp_path, capsys, command,
                                                   variable, value, base, top):
        out = tmp_path / "x.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "sweep_variable": variable, "grid": [value],
                                    "trials": 1, "solvers": ["none"], "output": str(out),
                                    "base": base, **top}))
        assert cli_main([command, "--spec", str(spec)]) == 1
        assert "spec error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "--spec", "{spec}"],
        ["run", "--spec", "{spec}"],
        ["run", "--preset", "quick", "--seed", "-1", "--out", "{out}"],
    ], ids=["validate", "run-spec", "run-preset"])
    def test_negative_seed_is_spec_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "sweep_variable": "N", "grid": [8],
                                    "trials": 1, "seed": -3, "solvers": ["none"],
                                    "output": str(out)}))
        argv = [a.format(spec=spec, out=out) for a in argv]
        assert cli_main(argv) == 1
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
