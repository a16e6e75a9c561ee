"""Tests of the sweep benchmark itself, on tiny problem sizes."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from irsuplink import experiments, framework, power_detect  # noqa: E402

TINY = {"M": 8, "N_az": 4, "N_el": 2}
# the K=3 entry raises SpecError inside run_experiment: a trial that always errors
TINY_WORKLOAD = ("tiny problems for the benchmark's own tests", 1, [
    ("N=8", "ccmo", "N", 8, {"K": 2, "rho_b": 1.0, **TINY}),
    ("N=8", "none", "N", 8, {"K": 2, "rho_b": 1.0, **TINY}),
    ("K=3", "none", "N", 8, {"K": 3, **TINY}),
])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY_WORKLOAD)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    return tmp_path


def bench(capsys, trace=0):
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def declared(kind):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, trace, kind):
    code, _, result = bench(capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(kind)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_a_raising_trial_is_counted_and_not_fatal(tiny, capsys):
    code, report, result = bench(capsys)
    assert code == 0 and result["correct"] is True
    rounds = report["rounds"]
    assert result["attempted"] == 3 * rounds
    assert result["failed"] == rounds
    assert report["status_counts"]["K=3|none"] == {"error:SpecError": rounds}
    assert report["error_rate"] == pytest.approx(1 / 3)
    assert result["metrics"]["completed_share"]["value"] == pytest.approx(2 / 3)
    trials = json.loads((tiny / "tiny_seed3_trace0.json").read_text())["trials"]
    assert {t["status"] for t in trials} == {"ok", "error:SpecError"}
    assert all("seed" in t and "point" in t for t in trials)


def test_the_gate_trips_on_a_tampered_result(tiny, capsys, monkeypatch):
    honest = experiments.run_experiment

    def late(spec):
        table = honest(spec)
        rows = tuple(replace(r, latencies_s=(run.DEADLINE_S * 1.01,) * len(r.latencies_s))
                     for r in table.rows)
        return replace(table, rows=rows)

    monkeypatch.setattr(experiments, "run_experiment", late)
    code, report, result = bench(capsys)
    assert code == 1 and result["correct"] is False
    assert "over deadline" in report["gate_violations"][0]["gate"][0]


def test_the_gate_rejects_non_finite_power():
    row = experiments.TrialResult(0.0, "none", (float("nan"),), float("nan"), (1.0,),
                                  (0.01,), True, True, 1, 1.0)
    assert run.gate_violations(row) == ["non-finite power"]


def test_the_digest_reads_sum_power_at_the_csv_precision():
    recs = [{"round": 0, "point": "N=8", "solver": "none", "seed": 1, "status": "ok",
             "sum_power_dbm": -20.123456789012}]
    same = [dict(recs[0], sum_power_dbm=-20.1234567890)]  # equal in %.10g
    moved = [dict(recs[0], sum_power_dbm=-20.12345)]
    assert run.digest("w", recs) == run.digest("w", same) != run.digest("w", moved)


def test_tracer_wraps_every_lookup_site_and_restores_them():
    original = power_detect.spectral_radius
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert framework.spectral_radius is power_detect.spectral_radius
        assert framework.spectral_radius is not original
        assert framework.spectral_radius.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert framework.spectral_radius is original and power_detect.spectral_radius is original


def test_layer_self_times_add_up_to_the_trial_wall_time(tiny):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run.run_round(experiments, run.build_specs("tiny"), seed=11, round_index=0)
    finally:
        tracer.uninstall()
    wall_s = sum(r["wall_ms"] for r in records) / 1e3
    self_s = sum(c["self_s"] for c in tracer.counts.values())
    assert tracer.counts["experiments.trial"]["calls"] == len(records)
    assert tracer.counts["beamform_ccmo.run"]["calls"] > 0
    assert self_s <= wall_s
    assert self_s == pytest.approx(wall_s, rel=0.05, abs=2e-3)


def test_the_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 1001)]) == (950.0, 95.0)
    assert run.tail([float(x) for x in range(1, 100)]) == (75.0, 75.0)
    assert run.tail([float(x) for x in range(1, 20)]) == (19.0, 100.0)
