"""Monte-Carlo sweep harness: scenario presets, trial execution, CSV output.

Seeding layout: channel draws come from default_rng([seed, trial, 0]) and
data sizes from default_rng([seed, trial, 1]), so a given trial index sees
the same fading, shadowing and blockage variates at every grid point and
for every solver (paired comparisons); each solver gets its own stream
default_rng([seed, trial, 2, solver_index]) for its internal randomness.
Specs are plain JSON and round-trip losslessly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .channel import GainParams, sample_channel_set, sample_multi_antenna_channels
from .framework import FrameworkConfig, solve, solve_multi_antenna
from .power_detect import InfeasibleError
from .system import LatencyProfile, SystemConfig, latency, sinr, watts_to_dbm

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "TrialResult",
    "ExperimentTable",
    "scenario_default",
    "run_experiment",
    "emit_csv",
    "read_csv",
    "write_plot_script",
]

SWEEP_VARIABLES = ("N", "d_x1", "D", "nu", "rho_b", "N_u", "T")
SOLVERS = ("admm", "ccmo", "fixed-random", "none")
_SOLVER_INDEX = {name: i for i, name in enumerate(SOLVERS)}

METRICS = ("sum_power_dbm", "worst_latency_ms", "feasible", "iterations")
_STATS = ("mean", "std", "min", "max")

BASE_DEFAULTS = {
    "M": 32,
    "N_az": 5,
    "N_el": 8,
    "K": 1,
    "W_hz": 500e6,
    "T_s": 50e-3,
    "noise_dbm": -85.0,
    "nu_db": 15.0,
    "rho_U_dbi": 0.0,
    "rho_B_dbi": 9.82,
    "L": 3,
    "rho_b": 0.0,
    "N_u": 1,
    "carrier_hz": 28e9,
    "ap_xy": (0.0, 0.0),
    "irs_xy": (80.0, 0.0),
    "d_x1": 40.0,
    "d_y1": 40.0,
    "d_x2": 50.0,
    "d_y2": 20.0,
    "D_nats": (5000.0, 8000.0),  # scalar pins D_k; a pair samples uniformly per trial
}


class SpecError(ValueError):
    """An experiment spec failed validation."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    sweep_variable: str
    grid: tuple
    trials: int = 50
    seed: int = 2024
    solvers: tuple = ("ccmo", "admm", "none", "fixed-random")
    output: str | None = None
    base: dict = field(default_factory=dict)

    def validate(self) -> list:
        """Raise SpecError on any problem, else return each grid point's config."""
        problems = []
        if self.sweep_variable not in SWEEP_VARIABLES:
            problems.append(f"sweep variable {self.sweep_variable!r} not in {SWEEP_VARIABLES}")
        if len(self.grid) == 0:
            problems.append("grid is empty")
        if self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if len(self.solvers) == 0:
            problems.append("no solvers selected")
        for s in self.solvers:
            if s not in SOLVERS:
                problems.append(f"unknown solver {s!r}, pick from {SOLVERS}")
        for key in self.base:
            if key not in BASE_DEFAULTS:
                problems.append(f"unknown base parameter {key!r}")
        if problems:
            raise SpecError("; ".join(problems))
        try:
            return [_build_config(self.base, self.sweep_variable, v) for v in self.grid]
        except (TypeError, ValueError) as exc:
            raise SpecError(f"grid point: {exc}") from exc

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = list(self.grid)
        d["solvers"] = list(self.solvers)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        try:
            spec = cls(
                name=d["name"],
                sweep_variable=d["sweep_variable"],
                grid=tuple(d["grid"]),
                trials=int(d.get("trials", 50)),
                seed=int(d.get("seed", 2024)),
                solvers=tuple(d.get("solvers", ("ccmo", "admm", "none", "fixed-random"))),
                output=d.get("output"),
                base=dict(d.get("base", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed spec: {exc}") from exc
        spec.validate()
        return spec

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class TrialResult:
    sweep_value: float
    solver: str
    powers_dbm: tuple
    sum_power_dbm: float
    sinrs: tuple
    latencies_s: tuple
    converged: bool
    feasible: bool
    iterations: int
    wall_ms: float


@dataclass(frozen=True)
class ExperimentTable:
    spec: ExperimentSpec
    rows: tuple  # TrialResult, trial-level
    aggregates: tuple  # (sweep_value, solver, {metric: {stat: value}})


def _factor_elements(n: int, n_az: int) -> tuple[int, int]:
    if n % n_az == 0:
        return n_az, n // n_az
    return n, 1


def _build_config(base: dict, variable: str, value) -> tuple[SystemConfig, object]:
    """SystemConfig for one grid point, plus the data-size spec (scalar or range)."""
    params = dict(BASE_DEFAULTS)
    params.update(base)
    if variable == "N":
        params["N_az"], params["N_el"] = _factor_elements(int(value), int(params["N_az"]))
    elif variable == "d_x1":
        params["d_x1"] = float(value)
    elif variable == "D":
        params["D_nats"] = float(value)
    elif variable == "nu":
        params["nu_db"] = float(value)
    elif variable == "rho_b":
        params["rho_b"] = float(value)
    elif variable == "N_u":
        params["N_u"] = int(value)
    elif variable == "T":
        params["T_s"] = float(value)

    users = ((params["d_x1"], params["d_y1"]), (params["d_x2"], -params["d_y2"]))
    k = int(params["K"])
    if k > 2:
        raise SpecError(f"base geometry defines positions for up to 2 users, got K={k}")
    return SystemConfig(
        M=int(params["M"]),
        N_az=int(params["N_az"]),
        N_el=int(params["N_el"]),
        K=k,
        W=float(params["W_hz"]),
        T=float(params["T_s"]),
        noise_power=10.0 ** ((params["noise_dbm"] - 30.0) / 10.0),
        gain=GainParams(rho_U=float(params["rho_U_dbi"]), rho_B=float(params["rho_B_dbi"]),
                        nu=float(params["nu_db"])),
        L=int(params["L"]),
        rho_b=float(params["rho_b"]),
        N_u=int(params["N_u"]),
        carrier_hz=float(params["carrier_hz"]),
        ap_xy=tuple(params["ap_xy"]),
        irs_xy=tuple(params["irs_xy"]),
        user_xy=users[:k],
    ), _data_size_spec(params["D_nats"])


def _data_size_spec(d):
    """D_nats as a size >= 0 for every user, or a pair 0 <= lo <= hi to draw from."""
    spec = tuple(float(x) for x in d) if isinstance(d, (list, tuple)) else float(d)
    bounds = spec if isinstance(spec, tuple) else (spec, spec)
    if len(bounds) != 2 or not 0.0 <= bounds[0] <= bounds[1]:
        raise ValueError(f"D_nats must be a size >= 0 or a pair 0 <= lo <= hi, got {d!r}")
    return spec


def _draw_data_sizes(d_spec, k: int, rng: np.random.Generator) -> np.ndarray:
    if np.isscalar(d_spec):
        rng.uniform(size=k)  # keep the stream aligned with the sampled case
        return np.full(k, float(d_spec))
    lo, hi = d_spec
    return rng.uniform(float(lo), float(hi), size=k)


def _run_trial(cfg: SystemConfig, d_spec, solver: str, sweep_variable: str,
               value, seed: int, trial: int) -> TrialResult:
    rng_channel = np.random.default_rng([seed, trial, 0])
    rng_data = np.random.default_rng([seed, trial, 1])
    rng_solver = np.random.default_rng([seed, trial, 2, _SOLVER_INDEX[solver]])
    D = _draw_data_sizes(d_spec, cfg.K, rng_data)
    profile = LatencyProfile.from_data(D, cfg.W, cfg.T)
    fw = FrameworkConfig(beamformer=solver)
    start = time.perf_counter()
    try:
        if sweep_variable == "N_u":
            channels = sample_multi_antenna_channels(cfg, rng_channel)
            _, state, trace = solve_multi_antenna(cfg, channels, profile, fw, rng_solver)
        else:
            channels = sample_channel_set(cfg, rng_channel)
            state, trace = solve(cfg, channels, profile, fw, rng_solver)
    except InfeasibleError:
        wall = (time.perf_counter() - start) * 1e3
        nan_k = (math.nan,) * cfg.K
        return TrialResult(float(value), solver, nan_k, math.nan, nan_k, nan_k,
                           converged=False, feasible=False, iterations=0, wall_ms=wall)
    wall = (time.perf_counter() - start) * 1e3
    powers_dbm = tuple(float(x) for x in watts_to_dbm(state.p))
    sinrs = tuple(sinr(state, cfg.noise_power, k) for k in range(cfg.K))
    lats = tuple(latency(state, cfg, profile, k) for k in range(cfg.K))
    return TrialResult(
        sweep_value=float(value), solver=solver, powers_dbm=powers_dbm,
        sum_power_dbm=float(watts_to_dbm(np.sum(state.p))), sinrs=sinrs,
        latencies_s=lats, converged=trace.converged, feasible=True,
        iterations=trace.outer_iterations, wall_ms=wall,
    )


def _aggregate(rows) -> tuple:
    points = sorted({(r.sweep_value, r.solver) for r in rows})
    out = []
    for value, solver in points:
        sel = [r for r in rows if r.sweep_value == value and r.solver == solver]
        ok = [r for r in sel if r.feasible]
        metrics = {}
        series = {
            "sum_power_dbm": [r.sum_power_dbm for r in ok],
            "worst_latency_ms": [max(r.latencies_s) * 1e3 for r in ok],
            "feasible": [1.0 if r.feasible else 0.0 for r in sel],
            "iterations": [float(r.iterations) for r in ok],
        }
        for name in METRICS:
            vals = np.asarray(series[name], dtype=float)
            if vals.size == 0:
                metrics[name] = {s: math.nan for s in _STATS}
            else:
                metrics[name] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals)),
                    "min": float(np.min(vals)),
                    "max": float(np.max(vals)),
                }
        out.append((value, solver, metrics))
    return tuple(out)


def run_experiment(spec: ExperimentSpec) -> ExperimentTable:
    """Execute the sweep: each grid point x trial draws one channel shared
    by all solvers; per-trial infeasibility is recorded, not fatal."""
    rows = []
    for value, (cfg, d_spec) in zip(spec.grid, spec.validate()):
        for trial in range(spec.trials):
            for solver in spec.solvers:
                rows.append(_run_trial(cfg, d_spec, solver, spec.sweep_variable,
                                       value, spec.seed, trial))
    rows.sort(key=lambda r: (r.sweep_value, r.solver))
    return ExperimentTable(spec=spec, rows=tuple(rows), aggregates=_aggregate(rows))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def emit_csv(table: ExperimentTable, path) -> None:
    """One row per (sweep value, solver), sorted, with mean/std/min/max per
    metric. Wall-clock is deliberately excluded so reruns are byte-identical."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    header = ["sweep_value", "solver"]
    for m in METRICS:
        header += [f"{m}_{s}" for s in _STATS]
    lines = [",".join(header)]
    for value, solver, metrics in table.aggregates:
        cells = [_fmt(value), solver]
        for m in METRICS:
            cells += [_fmt(metrics[m][s]) for s in _STATS]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list[dict]:
    """Parse an emitted CSV back into dicts (floats except the solver column)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = {}
        for key, cell in zip(header, cells):
            row[key] = cell if key == "solver" else float(cell)
        out.append(row)
    return out


def scenario_default() -> dict[str, ExperimentSpec]:
    """Built-in presets mirroring the reference sweeps at desk scale."""
    def make(name, variable, grid, trials=50, seed=2024,
             solvers=("ccmo", "admm", "none", "fixed-random"), **base):
        return ExperimentSpec(name=name, sweep_variable=variable, grid=tuple(grid),
                              trials=trials, seed=seed, solvers=solvers,
                              output=f"{name.replace('-', '_')}.csv", base=base)

    return {
        "quick": make("quick", "N", (8, 16), trials=2, seed=7,
                      solvers=("ccmo", "none"), rho_b=1.0),
        "fig4-los": make("fig4-los", "N", (8, 16, 32, 64), rho_b=0.0),
        "fig4-olos": make("fig4-olos", "N", (8, 16, 32, 64), rho_b=1.0),
        "fig5": make("fig5", "d_x1", (10, 20, 30, 40, 50, 60, 70), rho_b=0.0),
        "fig5-olos": make("fig5-olos", "d_x1", (10, 20, 30, 40, 50, 60, 70), rho_b=1.0),
        "fig6": make("fig6", "D", (4000, 5000, 6000, 7000, 8000), rho_b=0.0),
        "fig6-olos": make("fig6-olos", "D", (4000, 5000, 6000, 7000, 8000), rho_b=1.0),
        "fig7": make("fig7", "nu", (10.0, 12.5, 15.0, 17.5, 20.0), rho_b=1.0),
        "fig8": make("fig8", "rho_b", (0.0, 0.25, 0.5, 0.75, 1.0)),
        "fig9-two-user": make("fig9-two-user", "N", (16, 32, 64), K=2, rho_b=1.0),
        "multi-antenna": make("multi-antenna", "N_u", (1, 2, 4), K=2, rho_b=1.0,
                              trials=20, solvers=("ccmo", "none")),
    }


_PLOT_TEMPLATE = '''"""Plot mean total power (dBm) per solver from {csv_name}."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_name!r}, newline="") as fh:
    for row in csv.DictReader(fh):
        series[row["solver"]].append(
            (float(row["sweep_value"]), float(row["sum_power_dbm_mean"]),
             float(row["sum_power_dbm_std"]))
        )

fig, ax = plt.subplots()
for solver, pts in sorted(series.items()):
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    es = [p[2] for p in pts]
    ax.errorbar(xs, ys, yerr=es, marker="o", capsize=3, label=solver)
ax.set_xlabel({xlabel!r})
ax.set_ylabel("mean total transmit power [dBm]")
ax.grid(True)
ax.legend()
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''


def write_plot_script(csv_path: str, sweep_variable: str, script_path: str) -> None:
    text = _PLOT_TEMPLATE.format(csv_name=str(csv_path), xlabel=sweep_variable,
                                 png_name=str(csv_path) + ".png")
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(text)
