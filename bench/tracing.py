"""Span tracing around the public functions of each irsuplink layer.

The wrappers live only here. ``Tracer.install`` replaces a function at
every module attribute that currently holds it (``framework.spectral_radius``
and ``power_detect.spectral_radius`` alike), so calls are caught whichever
module name the caller looks the function up through; ``uninstall`` puts
the originals back.

A span's self time is its duration minus the durations of the spans it
directly contains, so the self times of all spans inside one
``experiments.trial`` span add up to that span's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from irsuplink.power_detect import DegenerateDetectorError


def _gate(result, counts):
    counts["rejects"] += result >= 1.0


def _fixed_point(report, counts):
    counts["iterations"] += report.iterations
    counts["not_converged"] += not report.converged


def _ccmo_run(result, counts):
    counts["iterations"] += result.iterations
    counts["converged"] += result.converged


def _q_step(report, counts):
    counts["converged"] += report.converged


def _admm_run(result, counts):
    counts["outer_iterations"] += result.outer_iterations
    counts["converged"] += result.converged


def _solve(result, counts):
    trace = result[1]
    counts["outer_iterations"] += trace.outer_iterations
    counts["converged"] += trace.converged


def _interference_error(exc, counts):
    counts["degenerate"] += isinstance(exc, DegenerateDetectorError)


# (layer name, module, function, hook on the result, hook on an exception)
SPANS = (
    ("channel.sample", "channel", "sample_channel_set", None, None),
    ("channel.sample_multi", "channel", "sample_multi_antenna_channels", None, None),
    ("system.effective_channel", "system", "effective_channel", None, None),
    ("system.effective_coeffs", "system", "effective_coeffs", None, None),
    ("power_detect.gate", "power_detect", "spectral_radius", _gate, None),
    ("power_detect.interference", "power_detect", "build_interference", None,
     _interference_error),
    ("power_detect.fixed_point", "power_detect", "solve_power_fixed_point", _fixed_point, None),
    ("power_detect.mvdr", "power_detect", "mvdr_bank", None, None),
    ("beamform_ccmo.eig", "beamform_ccmo", "largest_eigen_magnitude", None, None),
    ("beamform_ccmo.assemble", "beamform_ccmo", "assemble_quadratic", None, None),
    ("beamform_ccmo.run", "beamform_ccmo", "run_ccmo", _ccmo_run, None),
    ("beamform_admm.theta_step", "beamform_admm", "admm_theta_step", None, None),
    ("beamform_admm.q_step", "beamform_admm", "admm_q_step", _q_step, None),
    ("beamform_admm.run", "beamform_admm", "run_admm", _admm_run, None),
    ("framework.solve", "framework", "solve", _solve, None),
    ("framework.solve_multi_antenna", "framework", "solve_multi_antenna", None, None),
    ("experiments.trial", "experiments", "run_experiment", None, None),
)

# layer -> (metric, counter, denominator) beyond calls and self_ms. A count
# is divided by the number of attempted trials, a share by the layer's calls.
EXTRA_METRICS = {
    "power_detect.gate": (("reject_share", "rejects", "calls"),),
    "power_detect.interference": (("degenerate", "degenerate", "trials"),),
    "power_detect.fixed_point": (("iterations", "iterations", "trials"),
                                 ("not_converged", "not_converged", "trials")),
    "beamform_ccmo.run": (("iterations", "iterations", "trials"),
                          ("converged_share", "converged", "calls")),
    "beamform_admm.q_step": (("converged_share", "converged", "calls"),),
    "beamform_admm.run": (("outer_iterations", "outer_iterations", "trials"),
                          ("converged_share", "converged", "calls")),
    "framework.solve": (("outer_iterations", "outer_iterations", "trials"),
                        ("converged_share", "converged", "calls")),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    out = {}
    for layer, *_ in SPANS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_ms"] = "ms"
        for metric, _, denominator in EXTRA_METRICS.get(layer, ()):
            out[f"{layer}.{metric}"] = "share" if denominator == "calls" else "count"
    return out


class Tracer:
    """Per-layer call counts, self times and result counters, kept in memory."""

    def __init__(self):
        self.counts = {layer: defaultdict(float) for layer, *_ in SPANS}
        self._open = []  # child time accumulated by each open span, innermost last
        self._installed = []  # (module, attribute, original)

    def _wrap(self, layer, fn, on_result, on_error):
        counts = self.counts[layer]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, counts)
                raise
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                counts["calls"] += 1
                counts["self_s"] += duration - frame[0]
            if on_result is not None:
                on_result(result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every lookup site of each traced function for its wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "irsuplink" or name.startswith("irsuplink."))]
        for layer, module_name, attr, on_result, on_error in SPANS:
            original = getattr(sys.modules[f"irsuplink.{module_name}"], attr)
            wrapper = self._wrap(layer, original, on_result, on_error)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._installed.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed = []

    def layer_metrics(self, trials: int) -> dict[str, float]:
        """Per-layer metrics per attempted trial (shares per call)."""
        out = {}
        for layer, *_ in SPANS:
            c = self.counts[layer]
            out[f"{layer}.calls"] = c["calls"] / trials
            out[f"{layer}.self_ms"] = c["self_s"] * 1e3 / trials
            for metric, counter, denominator in EXTRA_METRICS.get(layer, ()):
                base = trials if denominator == "trials" else c["calls"]
                out[f"{layer}.{metric}"] = c[counter] / base if base else 0.0
        return out
