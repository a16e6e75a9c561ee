"""Alternating optimization over powers, detectors and IRS phases.

One loop optimizes the three blocks in turn until the total power settles:
each iteration runs the MVDR detectors, a passive-beamforming candidate
(for ccmo and admm), and one exact power solve shared by every solver.
Every phase (and transmit-beamformer) candidate is acceptance-gated: it is
kept only if the re-solved total power does not increase and the
spectral-radius condition still holds, which makes the recorded total
power nonincreasing across iterations by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamform_admm import FractionalObjective, run_admm
from .beamform_ccmo import aligned_phases, assemble_quadratic, optimize_phases
from .channel import ChannelSet, MultiAntennaChannels
from .power_detect import (
    DegenerateDetectorError,
    InfeasibleError,
    build_interference,
    detectors,
    gram,
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
)

__all__ = [
    "FrameworkConfig",
    "ConvergenceTrace",
    "solve",
    "solve_multi_antenna",
]

BEAMFORMERS = ("ccmo", "admm", "none", "fixed-random")

OUTER_TOL = 1e-6  # relative change of the total power that ends the loop
INNER_TOL = 1e-5  # relative power gain below which a phase update is negligible
MAX_OUTER = 5000  # cap on AO iterations
RESTARTS = 3  # random CCMO starts on the first phase update
CCMO_MAX_ITER = 2000
CCMO_TOL = 1e-8
ADMM_MAX_OUTER = 6
ADMM_MAX_INNER = 60
ADMM_TOL_CONSENSUS = 1e-3
TX_MAX_ROUNDS = 6  # transmit-beamformer rounds of solve_multi_antenna
TX_TOL = 1e-4  # relative power gain below which those rounds stop


@dataclass(frozen=True)
class FrameworkConfig:
    beamformer: str = "ccmo"

    def __post_init__(self):
        if self.beamformer not in BEAMFORMERS:
            raise ValueError(f"unknown beamformer {self.beamformer!r}, pick one of {BEAMFORMERS}")


@dataclass
class ConvergenceTrace:
    """Per-AO-iteration records: the total power after each iteration;
    outer_iterations counts the AO iterations."""

    sum_power: list = field(default_factory=list)
    converged: bool = False
    outer_iterations: int = 0


def _initial_theta_candidates(beamformer: str, n: int, rng: np.random.Generator):
    if beamformer == "fixed-random":
        return [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))]
    cands = [np.ones(n, dtype=complex)]
    for _ in range(3):
        cands.append(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
    return cands


def _powers(Ttilde, C, A, noise, X=None):
    """Powers of the detectors C facing cross-Gram X (default A), or None
    if infeasible or a detector is degenerate."""
    try:
        im = build_interference(Ttilde, C, A, noise, X)
        return solve_power_fixed_point(im.Q, im.tau).p
    except (DegenerateDetectorError, InfeasibleError):
        return None


def solve(cfg: SystemConfig, channels: ChannelSet, profile: LatencyProfile,
          fw: FrameworkConfig | None = None, rng: np.random.Generator | None = None):
    """Minimize the total uplink power subject to per-user deadlines.

    Returns (SolverState, ConvergenceTrace). Raises InfeasibleError when no
    initial phase candidate passes the spectral-radius gate, or when the
    power step fails it (or meets a degenerate detector) after a detector
    update. The loop stops the first time the total power changes by at most
    OUTER_TOL relative between two AO iterations. It carries the Gram matrix
    A of h_eff and the detectors' coefficient rows C (F = C h_eff).
    """
    fw = fw or FrameworkConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    noise = cfg.noise_power
    Ttilde = profile.Ttilde.tolist()
    ch = channels.without_irs() if fw.beamformer == "none" else channels
    n = ch.num_irs_elements

    # the first candidate whose matched-filter power solve passes its
    # spectral-radius gate; those powers start the loop
    theta = None
    for cand in _initial_theta_candidates(fw.beamformer, n, rng):
        h_eff = effective_channel(ch, cand)
        A = gram(h_eff)
        # f_k = h_k / ||h_k||^2; a zero channel leaves a zero, degenerate detector
        C = [[1.0 / a[i].real if j == i and a[i].real else 0.0 for j in range(len(A))]
             for i, a in enumerate(A)]
        p = _powers(Ttilde, C, A, noise)
        if p is not None:
            theta = cand
            break
    if theta is None:
        raise InfeasibleError("no initial phase candidate passes the spectral-radius gate")

    trace = ConvergenceTrace()
    first_beam_call = True
    beam_stale = 0  # consecutive negligible theta updates; 2 freezes the beamformer
    for t in range(1, MAX_OUTER + 1):
        # p is the exact solve at the current (C, theta)
        C, basis = mvdr_bank(p, A, noise), h_eff
        optimize = fw.beamformer in ("ccmo", "admm") and n > 0 and beam_stale < 2
        if optimize:
            coeffs = effective_coeffs(ch, detectors(C, h_eff))
            cand = _beamformer_candidate(fw, coeffs, p, Ttilde, noise, theta,
                                         first_beam_call, rng)
            first_beam_call = False
        p = _powers(Ttilde, C, A, noise)
        if p is None:
            raise InfeasibleError("current iterate became infeasible")
        if optimize:
            # the candidate's channels face the detectors F = C h_eff held
            # fixed in M-space, through the cross-Gram h_cand^* h_eff^T
            h_cand = effective_channel(ch, cand)
            trial = _powers(Ttilde, C, A, noise, gram(h_cand, h_eff))
            base_sum = sum(p.tolist())
            if trial is not None and sum(trial.tolist()) <= base_sum:
                theta, h_eff, A, p = cand, h_cand, gram(h_cand), trial
                gain = base_sum - sum(p.tolist())
                beam_stale = beam_stale + 1 if gain <= INNER_TOL * base_sum else 0
            else:
                beam_stale += 1
        s = sum(p.tolist())
        trace.sum_power.append(s)
        trace.outer_iterations = t
        # the start powers come from matched filters, not from an AO
        # iteration, so the first iteration has nothing to be compared with
        if t > 1 and abs(s - prev_sum) <= OUTER_TOL * max(prev_sum, s, 1e-300):
            trace.converged = True
            break
        prev_sum = s
    return SolverState(p=p, F=detectors(C, basis), theta=theta, h_eff=h_eff), trace


def _beamformer_candidate(fw, coeffs, p, Ttilde, noise, theta, first_call, rng):
    """One passive-beamforming update; returns the candidate theta."""
    if fw.beamformer == "ccmo":
        form = assemble_quadratic(coeffs, p, Ttilde, noise)
        starts = [theta, aligned_phases(coeffs)] if first_call and p.shape[0] == 1 else theta
        return optimize_phases(form, starts, restarts=RESTARTS if first_call else 0, rng=rng,
                               max_iter=CCMO_MAX_ITER, tol=CCMO_TOL).theta
    objective = FractionalObjective(coeffs, p, Ttilde, noise)
    return run_admm(objective, theta, max_outer=ADMM_MAX_OUTER,
                    max_inner=ADMM_MAX_INNER, tol_consensus=ADMM_TOL_CONSENSUS).theta


def solve_multi_antenna(cfg: SystemConfig, mu_channels: MultiAntennaChannels,
                        profile: LatencyProfile, fw: FrameworkConfig | None = None,
                        rng: np.random.Generator | None = None):
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
    best_sum = sum(state.p.tolist())
    if n_u == 1:
        return qbar, state, trace

    noise = cfg.noise_power
    for _ in range(TX_MAX_ROUNDS):
        theta = state.theta
        # theta is empty when solved without the IRS
        H_eff = mu_channels.effective_channels(theta) if theta.size else mu_channels.H_direct
        # w[k, j] = (H_eff,k)^H f_j: user k's channel seen by detector j
        w = np.einsum("kmu,jm->kju", H_eff.conj(), state.F)
        # row k of the bank over w[k] is parallel to R_k^{-1} w[k, k] (Sherman-Morrison)
        cand = np.array([detectors(mvdr_bank(state.p, gram(w[k]), noise), w[k])[k]
                         for k in range(k_users)])
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        try:
            state_c, trace_c = solve(cfg, mu_channels.reduce(cand), profile, fw, rng)
        except InfeasibleError:
            break
        cand_sum = sum(state_c.p.tolist())
        if cand_sum <= best_sum:
            improved = best_sum - cand_sum > TX_TOL * best_sum
            qbar, state, trace, best_sum = cand, state_c, trace_c, cand_sum
            if not improved:
                break
        else:
            break
    return qbar, state, trace
