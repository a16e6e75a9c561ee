"""Monte-Carlo sweep harness: scenario presets, trial execution, CSV output.

Seeding layout: channel draws come from default_rng([seed, trial, 0]) and
data sizes from default_rng([seed, trial, 1]), so a given trial index sees
the same fading, shadowing and blockage variates at every grid point and
for every solver (paired comparisons); each solver gets its own stream
default_rng([seed, trial, 2, solver_index]) for its internal randomness.
Specs are plain JSON and round-trip losslessly.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .channel import GainParams, sample_channel_set, sample_multi_antenna_channels
from .framework import SOLVERS, solve, solve_multi_antenna
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

# sweep variable -> the base key its grid value sets; the N grid instead sets
# N_az x N_el from the base N_az (see _factor_elements)
SWEEP_KEYS = {"d_x1": "d_x1", "D": "D_nats", "nu": "nu_db", "rho_b": "rho_b", "N_u": "N_u",
              "T": "T_s"}
SWEEP_VARIABLES = ("N", *SWEEP_KEYS)
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
    "ap_xy": (0.0, 0.0),
    "irs_xy": (80.0, 0.0),
    "d_x1": 40.0,
    "d_y1": 40.0,
    "d_x2": 50.0,
    "d_y2": 20.0,
    "D_nats": (5000.0, 8000.0),  # a pair samples D_k uniformly per trial; a scalar pins it
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
        for key, low in (("trials", 1), ("seed", 0)):
            try:
                _integer(getattr(self, key), key, low)
            except SpecError as exc:
                problems.append(str(exc))
        if len(self.solvers) == 0:
            problems.append("no solvers selected")
        for s in self.solvers:
            if s not in SOLVERS:
                problems.append(f"unknown solver {s!r}, pick from {SOLVERS}")
        for key in self.base:
            if key not in BASE_DEFAULTS:
                problems.append(f"unknown base parameter {key!r}")
        for value in self.grid:
            try:
                _real(value, "grid value")
            except SpecError as exc:
                problems.append(str(exc))
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
        """Parse a spec; its keys are exactly the fields. validate() checks the values."""
        try:
            spec = cls(**d)
            return replace(spec, grid=tuple(spec.grid), solvers=tuple(spec.solvers),
                           base=dict(spec.base))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed spec: {exc}") from exc

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


def _integer(value, name: str, low: int = 0) -> int:
    """value as an int, or SpecError unless it is a whole number >= low (not 1.5, "8", True)."""
    # int and float, listed first, pass without numbers.Real's slower ABC check
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real))
              and float(value).is_integer() and value >= low)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise SpecError(f"{name} must be a whole number >= {low}, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a float, or SpecError unless it is a finite real number (not inf, "8", True)."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real))
              and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise SpecError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _factor_elements(n: int, n_az: int) -> tuple[int, int]:
    if n % n_az == 0:
        return n_az, n // n_az
    return n, 1


def _build_config(base: dict, variable: str, value) -> tuple[SystemConfig, tuple]:
    """SystemConfig for one grid point, plus the data-size range (lo, hi)."""
    params = {**BASE_DEFAULTS, **base}
    if variable in SWEEP_KEYS:
        params[SWEEP_KEYS[variable]] = value
    reals = {key: _real(params[key], key) for key in (
        "W_hz", "T_s", "noise_dbm", "nu_db", "rho_U_dbi", "rho_B_dbi", "rho_b",
        "d_x1", "d_y1", "d_x2", "d_y2")}
    users = ((reals["d_x1"], reals["d_y1"]), (reals["d_x2"], -reals["d_y2"]))
    counts = {key: _integer(params[key], key) for key in ("M", "N_az", "N_el", "K", "L", "N_u")}
    if variable == "N":  # after the base counts are checked, so a base N_el of 1.6 is an error
        counts["N_az"], counts["N_el"] = _factor_elements(_integer(value, "N"), counts["N_az"])
    if counts["K"] > 2:
        raise SpecError(f"base geometry defines positions for up to 2 users, got K={counts['K']}")
    return SystemConfig(
        **counts,
        W=reals["W_hz"],
        T=reals["T_s"],
        noise_power=10.0 ** ((reals["noise_dbm"] - 30.0) / 10.0),
        gain=GainParams(rho_U=reals["rho_U_dbi"], rho_B=reals["rho_B_dbi"], nu=reals["nu_db"]),
        rho_b=reals["rho_b"],
        ap_xy=tuple(_real(x, "ap_xy") for x in params["ap_xy"]),
        irs_xy=tuple(_real(x, "irs_xy") for x in params["irs_xy"]),
        user_xy=users[:counts["K"]],
    ), _data_size_range(params["D_nats"])


def _data_size_range(d) -> tuple[float, float]:
    """D_nats as a pair 0 <= lo <= hi to draw each user's size from; a scalar d is (d, d),
    which draws d exactly from as many variates as a range, so the streams stay paired."""
    bounds = tuple(_real(x, "D_nats") for x in (d if isinstance(d, (list, tuple)) else (d, d)))
    if len(bounds) != 2 or not 0.0 <= bounds[0] <= bounds[1]:
        raise ValueError(f"D_nats must be a finite size >= 0 or a pair 0 <= lo <= hi, got {d!r}")
    return bounds


def _run_trial(cfg: SystemConfig, d_spec, solver: str, sweep_variable: str,
               value, seed: int, trial: int) -> TrialResult:
    rng_channel = np.random.default_rng([seed, trial, 0])
    rng_data = np.random.default_rng([seed, trial, 1])
    rng_solver = np.random.default_rng([seed, trial, 2, _SOLVER_INDEX[solver]])
    D = rng_data.uniform(*d_spec, size=cfg.K)
    profile = LatencyProfile.from_data(D, cfg.W, cfg.T)
    start = time.perf_counter()
    try:
        if sweep_variable == "N_u" or cfg.N_u > 1:
            channels = sample_multi_antenna_channels(cfg, rng_channel)
            _, state, trace = solve_multi_antenna(cfg, channels, profile, solver, rng_solver)
        else:
            channels = sample_channel_set(cfg, rng_channel)
            state, trace = solve(cfg, channels, profile, solver, rng_solver)
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
    """Statistics per (sweep value, solver) over rows sorted by that pair."""
    out = []
    for (value, solver), group in itertools.groupby(rows, lambda r: (r.sweep_value, r.solver)):
        sel = list(group)
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
            # each statistic is the numpy function of its name
            metrics[name] = {s: float(getattr(np, s)(vals)) if vals.size else math.nan
                             for s in _STATS}
        out.append((value, solver, metrics))
    return tuple(out)


def run_experiment(spec: ExperimentSpec) -> ExperimentTable:
    """Execute the sweep: each grid point x trial draws one channel shared
    by all solvers; per-trial infeasibility is recorded, not fatal."""
    rows = []
    for value, (cfg, d_spec) in zip(spec.grid, spec.validate()):
        for trial in range(int(spec.trials)):
            for solver in spec.solvers:
                rows.append(_run_trial(cfg, d_spec, solver, spec.sweep_variable,
                                       value, int(spec.seed), trial))
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
    def make(name, variable, grid, base, **fields):
        return ExperimentSpec(name=name, sweep_variable=variable, grid=grid,
                              output=f"{name.replace('-', '_')}.csv", base=base, **fields)

    specs = (
        make("quick", "N", (8, 16), {"rho_b": 1.0}, trials=2, seed=7, solvers=("ccmo", "none")),
        make("fig4-los", "N", (8, 16, 32, 64), {"rho_b": 0.0}),
        make("fig4-olos", "N", (8, 16, 32, 64), {"rho_b": 1.0}),
        make("fig5", "d_x1", (10, 20, 30, 40, 50, 60, 70), {"rho_b": 0.0}),
        make("fig5-olos", "d_x1", (10, 20, 30, 40, 50, 60, 70), {"rho_b": 1.0}),
        make("fig6", "D", (4000, 5000, 6000, 7000, 8000), {"rho_b": 0.0}),
        make("fig6-olos", "D", (4000, 5000, 6000, 7000, 8000), {"rho_b": 1.0}),
        make("fig7", "nu", (10.0, 12.5, 15.0, 17.5, 20.0), {"rho_b": 1.0}),
        make("fig8", "rho_b", (0.0, 0.25, 0.5, 0.75, 1.0), {}),
        make("fig9-two-user", "N", (16, 32, 64), {"K": 2, "rho_b": 1.0}),
        make("multi-antenna", "N_u", (1, 2, 4), {"K": 2, "rho_b": 1.0}, trials=20,
             solvers=("ccmo", "none")),
    )
    return {spec.name: spec for spec in specs}


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
