"""Alternating optimization over powers, detectors and IRS phases.

One outer iteration refreshes the powers at the current (F, theta), then
block-coordinate sweeps: MVDR detectors, a passive-beamforming update,
and an inner power refresh, until the total power settles. Every phase
(and transmit-beamformer) candidate is acceptance-gated: it is kept only
if the re-solved fixed-point total power does not increase and the
spectral-radius condition still holds, which makes the recorded total
power nonincreasing across outer iterations by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .beamform_admm import FractionalObjective, run_admm
from .beamform_ccmo import aligned_phases, assemble_quadratic, optimize_phases
from .channel import ChannelSet, MultiAntennaChannels
from .power_detect import (
    DegenerateDetectorError,
    InfeasibleError,
    build_interference,
    mvdr_bank,
    solve_power_fixed_point,
    # never called here (solve_power_fixed_point is the gate); bench/test_bench.py reads it
    spectral_radius,  # noqa: F401
)
from .system import (
    LatencyProfile,
    SolverState,
    SystemConfig,
    effective_channel,
    effective_coeffs,
    sinr,
)

__all__ = [
    "FrameworkConfig",
    "ConvergenceTrace",
    "PowerCapResult",
    "solve",
    "solve_multi_antenna",
    "solve_with_power_caps",
]

BEAMFORMERS = ("ccmo", "admm", "none", "fixed-random")

OUTER_TOL = 1e-6  # relative change of the total power that ends the outer loop
INNER_TOL = 1e-5  # same for the inner sweeps, and a negligible phase-update gain
MAX_OUTER = 100
MAX_INNER = 50
RESTARTS = 3  # random CCMO starts on the first phase update
CCMO_MAX_ITER = 2000
CCMO_TOL = 1e-8
ADMM_MAX_OUTER = 6
ADMM_MAX_INNER = 60
ADMM_TOL_CONSENSUS = 1e-3


@dataclass(frozen=True)
class FrameworkConfig:
    beamformer: str = "ccmo"

    def __post_init__(self):
        if self.beamformer not in BEAMFORMERS:
            raise ValueError(f"unknown beamformer {self.beamformer!r}, pick one of {BEAMFORMERS}")


@dataclass
class ConvergenceTrace:
    """Per-outer-iteration records."""

    sum_power: list = field(default_factory=list)
    powers: list = field(default_factory=list)
    sinrs: list = field(default_factory=list)
    beamformer_objective: list = field(default_factory=list)
    wall_clock_s: list = field(default_factory=list)
    power_residuals: list = field(default_factory=list)  # (outer refresh, last inner refresh)
    converged: bool = False
    outer_iterations: int = 0


def _matched_filters(h_eff: np.ndarray) -> np.ndarray:
    norms = np.sum(np.abs(h_eff) ** 2, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateDetectorError("a user has a zero effective channel")
    return h_eff / norms[:, None]


def _initial_theta_candidates(beamformer: str, n: int, rng: np.random.Generator):
    if beamformer == "fixed-random":
        return [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))]
    cands = [np.ones(n, dtype=complex)]
    for _ in range(3):
        cands.append(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
    return cands


def _resolve(ch, Ttilde, F, theta, noise, p_warm):
    """Fixed-point powers for a candidate theta at the current detectors,
    or None when the candidate is infeasible/degenerate/not converged."""
    h_eff = effective_channel(ch, theta)
    try:
        im = build_interference(Ttilde, F, h_eff, noise)
        rep = solve_power_fixed_point(im.Q, im.tau, p0=p_warm)
    except (DegenerateDetectorError, InfeasibleError):
        return None
    if not rep.converged:
        return None
    return rep.p, h_eff, im


def _converged(rep):
    """The fixed-point powers; a non-converged fixed point is never passed on."""
    if not rep.converged:
        raise InfeasibleError(f"power fixed point did not converge in {rep.iterations} iterations")
    return rep.p


def solve(cfg: SystemConfig, channels: ChannelSet, profile: LatencyProfile,
          fw: FrameworkConfig | None = None, rng: np.random.Generator | None = None,
          weights: np.ndarray | None = None):
    """Minimize the total uplink power subject to per-user deadlines.

    Returns (SolverState, ConvergenceTrace). Raises InfeasibleError when no
    initial phase candidate passes the spectral-radius gate, or when a power
    fixed point of the current iterate does not converge. ``weights``
    scale the per-user terms of the beamformer objectives (power-cap loop).
    """
    fw = fw or FrameworkConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    noise = cfg.noise_power
    Ttilde = profile.Ttilde
    ch = channels.without_irs() if fw.beamformer == "none" else channels
    n = ch.num_irs_elements
    t0 = time.perf_counter()

    # the first candidate whose fixed point passes its spectral-radius gate;
    # that fixed point is the first outer power refresh
    theta = None
    for cand in _initial_theta_candidates(fw.beamformer, n, rng):
        h_eff = effective_channel(ch, cand)
        try:
            F = _matched_filters(h_eff)
            im = build_interference(Ttilde, F, h_eff, noise)
            rep = solve_power_fixed_point(im.Q, im.tau)
        except (DegenerateDetectorError, InfeasibleError):
            continue
        theta = cand
        break
    if theta is None:
        raise InfeasibleError("no initial phase candidate passes the spectral-radius gate")

    trace = ConvergenceTrace()
    prev_outer_sum = np.inf
    first_beam_call = True
    beam_stale = 0  # consecutive negligible theta updates; 2 freezes the beamformer
    beam_obj = float("nan")
    for t in range(1, MAX_OUTER + 1):
        if t > 1:
            rep = solve_power_fixed_point(im.Q, im.tau, p0=p)
        p = _converged(rep)
        outer_resid = float(np.max(np.abs(p - (im.Q @ p + im.tau))))
        inner_resid = outer_resid
        prev_inner_sum = float(np.sum(p))
        for _ in range(MAX_INNER):
            F = mvdr_bank(p, h_eff, noise)
            if fw.beamformer in ("ccmo", "admm") and n > 0 and beam_stale < 2:
                coeffs = effective_coeffs(ch, F)
                cand, beam_obj = _beamformer_candidate(
                    fw, coeffs, p, Ttilde, noise, weights, theta, first_beam_call, rng
                )
                first_beam_call = False
                base = _resolve(ch, Ttilde, F, theta, noise, p)
                trial = _resolve(ch, Ttilde, F, cand, noise, p)
                if base is None:
                    raise InfeasibleError("current iterate became infeasible")
                base_sum = float(np.sum(base[0]))
                if trial is not None and float(np.sum(trial[0])) <= base_sum:
                    theta = cand
                    p, h_eff, im = trial
                    gain = base_sum - float(np.sum(p))
                    beam_stale = beam_stale + 1 if gain <= INNER_TOL * base_sum else 0
                else:
                    p, h_eff, im = base
                    beam_stale += 1
            else:
                h_eff = effective_channel(ch, theta)
                im = build_interference(Ttilde, F, h_eff, noise)
                p = _converged(solve_power_fixed_point(im.Q, im.tau, p0=p))
            inner_resid = float(np.max(np.abs(p - (im.Q @ p + im.tau))))
            s = float(np.sum(p))
            if abs(s - prev_inner_sum) <= INNER_TOL * max(prev_inner_sum, s, 1e-300):
                break
            prev_inner_sum = s
        s = float(np.sum(p))
        state = SolverState(p=p, F=F, theta=theta, h_eff=h_eff)
        trace.sum_power.append(s)
        trace.powers.append(p.copy())
        trace.sinrs.append(np.array([sinr(state, noise, k) for k in range(cfg.K)]))
        trace.beamformer_objective.append(beam_obj)
        trace.wall_clock_s.append(time.perf_counter() - t0)
        trace.power_residuals.append((outer_resid, inner_resid))
        trace.outer_iterations = t
        if np.isfinite(prev_outer_sum) and \
                abs(s - prev_outer_sum) <= OUTER_TOL * max(prev_outer_sum, s, 1e-300):
            trace.converged = True
            break
        prev_outer_sum = s
    return SolverState(p=p, F=F, theta=theta, h_eff=h_eff), trace


def _beamformer_candidate(fw, coeffs, p, Ttilde, noise, weights, theta, first_call, rng):
    """One passive-beamforming update; returns (candidate theta, objective value)."""
    if fw.beamformer == "ccmo":
        form = assemble_quadratic(coeffs, p, Ttilde, noise, weights)
        starts = [theta, aligned_phases(coeffs)] if first_call and p.shape[0] == 1 else theta
        best = optimize_phases(form, starts, restarts=RESTARTS if first_call else 0, rng=rng,
                               max_iter=CCMO_MAX_ITER, tol=CCMO_TOL)
        return best.theta, best.residual_value
    objective = FractionalObjective(coeffs, p, Ttilde, noise, weights)
    res = run_admm(objective, theta, max_outer=ADMM_MAX_OUTER,
                   max_inner=ADMM_MAX_INNER, tol_consensus=ADMM_TOL_CONSENSUS)
    return res.theta, res.value


@dataclass(frozen=True)
class PowerCapResult:
    state: SolverState
    trace: ConvergenceTrace
    feasible: bool
    rounds: int
    weights: np.ndarray
    reason: str


def solve_with_power_caps(cfg: SystemConfig, channels: ChannelSet, profile: LatencyProfile,
                          p_max: float, fw: FrameworkConfig | None = None,
                          rng: np.random.Generator | None = None,
                          max_rounds: int = 20) -> PowerCapResult:
    """Per-user power limits via penalizing weights w_k = max(p_k, P)/P on
    the beamformer objectives, re-solving until all p_k <= P or the round
    cap is hit."""
    if p_max <= 0:
        raise ValueError(f"power cap must be positive, got {p_max}")
    fw = fw or FrameworkConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    w = np.ones(cfg.K)
    state = trace = None
    for rounds in range(1, max_rounds + 1):
        state, trace = solve(cfg, channels, profile, fw, rng, weights=w)
        if np.all(state.p <= p_max * (1.0 + 1e-6)):
            return PowerCapResult(state, trace, True, rounds, w, "all users within the cap")
        w_new = np.maximum(state.p, p_max) / p_max
        if np.allclose(w_new, w, rtol=1e-12, atol=0.0):
            return PowerCapResult(state, trace, False, rounds, w,
                                  "weights stopped changing with caps still violated")
        w = w_new
    return PowerCapResult(state, trace, False, max_rounds, w, "round cap reached")


def solve_multi_antenna(cfg: SystemConfig, mu_channels: MultiAntennaChannels,
                        profile: LatencyProfile, fw: FrameworkConfig | None = None,
                        rng: np.random.Generator | None = None,
                        max_rounds: int = 6, tol: float = 1e-4):
    """Multi-antenna users: alternate the single-antenna machinery on the
    reduced channels H q_bar with gated transmit-beamformer updates.

    Returns (q_bar (K, N_u), SolverState, ConvergenceTrace). At N_u = 1 the
    transmit beamformers are fixed to 1 and the result is exactly the
    single-antenna solve on the column channels.
    """
    fw = fw or FrameworkConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    k_users = mu_channels.H_direct.shape[0]
    n_u = mu_channels.num_user_antennas
    qbar = np.zeros((k_users, n_u), dtype=complex)
    qbar[:, 0] = 1.0
    state, trace = solve(cfg, mu_channels.reduce(qbar), profile, fw, rng)
    best_sum = float(np.sum(state.p))
    if n_u == 1:
        return qbar, state, trace

    noise = cfg.noise_power
    for _ in range(max_rounds):
        cand = np.empty_like(qbar)
        theta = state.theta
        h_eff_mats = [  # theta is empty when solved without the IRS
            mu_channels.H_direct[k] + mu_channels.G @ (theta[:, None] * mu_channels.H_irs[k])
            if theta.size else mu_channels.H_direct[k]
            for k in range(k_users)
        ]
        # w[j, k] = (H_eff,k)^H f_j: user k's channel seen by detector j
        w = np.array([[h_eff_mats[k].conj().T @ state.F[j] for k in range(k_users)]
                      for j in range(k_users)])
        for k in range(k_users):
            R = noise * np.eye(n_u, dtype=complex)
            for j in range(k_users):
                if j != k:
                    R += state.p[j] * np.outer(w[j, k], w[j, k].conj())
            x = np.linalg.solve(R, w[k, k])
            cand[k] = x / np.linalg.norm(x)
        try:
            state_c, trace_c = solve(cfg, mu_channels.reduce(cand), profile, fw, rng)
        except InfeasibleError:
            break
        cand_sum = float(np.sum(state_c.p))
        if cand_sum <= best_sum:
            improved = best_sum - cand_sum > tol * best_sum
            qbar, state, trace, best_sum = cand, state_c, trace_c, cand_sum
            if not improved:
                break
        else:
            break
    return qbar, state, trace
