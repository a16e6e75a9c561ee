"""Alternating optimization over powers, detectors, IRS phases and transmit beamformers.

One loop optimizes the blocks in turn until the total power settles: each
iteration runs the MVDR detectors, a passive-beamforming candidate (for
ccmo and admm), one exact power solve shared by every solver and, for
multi-antenna users, a transmit-beamformer candidate. A candidate is judged
as the start is, by its own MVDR bank and that bank's exact powers, and is
kept only if those pass the positive-pivot test without raising the total
power, which makes the recorded total power nonincreasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamform_admm import FractionalObjective, run_admm
from .beamform_ccmo import aligned_phases, assemble_quadratic, optimize_phases
from .channel import ChannelSet, MultiAntennaChannels
from .power_detect import (
    InfeasibleError,
    detectors,
    gram,
    mvdr_bank,
    power_step,
    # never called here (the power step is the gate); bench/test_bench.py reads it
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
    "ConvergenceTrace",
    "solve",
    "solve_multi_antenna",
]

SOLVERS = ("admm", "ccmo", "fixed-random", "none")  # experiments seeds rng streams by index

OUTER_TOL = 1e-6  # relative change of the total power that ends the loop
INNER_TOL = 1e-5  # relative power gain below which a phase or transmit update is negligible
MAX_OUTER = 5000  # cap on AO iterations
RESTARTS = 3  # random CCMO starts on the first phase update
ADMM_MAX_OUTER = 6
ADMM_MAX_INNER = 60
ADMM_TOL_CONSENSUS = 1e-3


@dataclass
class ConvergenceTrace:
    """Per-AO-iteration records: the total power after each iteration;
    outer_iterations counts the AO iterations."""

    sum_power: list = field(default_factory=list)
    converged: bool = False
    outer_iterations: int = 0


def _phase_starts(beamformer: str, n: int, rng: np.random.Generator):
    """(start candidates, CCMO restarts), every random phase vector of a solve in draw
    order: fixed-random's one start or the 3 that ccmo and admm try after all ones, then
    ccmo's RESTARTS. none starts with the surface off: theta = 0, so h_eff = h_d exactly."""
    if beamformer == "none":
        return [np.zeros(n, dtype=complex)], []
    draws = [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
             for _ in range({"fixed-random": 1, "admm": 3, "ccmo": 3 + RESTARTS}[beamformer])]
    ones = [] if beamformer == "fixed-random" else [np.ones(n, dtype=complex)]
    return ones + draws[:3], draws[3:]


def solve(cfg: SystemConfig, channels: ChannelSet, profile: LatencyProfile,
          beamformer: str, rng: np.random.Generator):
    """Minimize the total uplink power under per-user deadlines with beamformer, one of SOLVERS.

    Returns (SolverState, ConvergenceTrace). Raises InfeasibleError when no
    initial phase candidate (drawn from rng) passes the gate, or when the
    power step fails it (or meets a degenerate detector) after a detector
    update. The loop stops the first time the total power changes by at
    most OUTER_TOL relative between two AO iterations.
    """
    return _solve(cfg, channels, profile, beamformer, rng)[1:]


def _solve(cfg, ch, profile, beamformer, rng, mu=None, qbar=None):
    """The AO loop of solve and, on ch = mu reduced through qbar, of
    solve_multi_antenna; returns (qbar, SolverState, ConvergenceTrace). It
    carries the Gram matrix A of h_eff, the detectors' rows C (F = C h_eff)
    and mu's channels H_eff at theta, rebuilt only when theta changes.
    """
    if beamformer not in SOLVERS:
        raise ValueError(f"unknown beamformer {beamformer!r}, pick one of {SOLVERS}")
    noise = cfg.noise_power
    Ttilde = profile.Ttilde.tolist()
    starts, restarts = _phase_starts(beamformer, ch.num_irs_elements, rng)

    # the first candidate whose matched-filter (MVDR at zero power) power
    # solve passes its gate; those powers start the loop. A zero channel
    # leaves a zero, degenerate detector.
    for theta in starts:
        h_eff, A, C, p = _evaluate(effective_channel(ch, theta), [0.0] * len(Ttilde), Ttilde,
                                   noise)
        if p is not None:
            break
    else:
        raise InfeasibleError("no initial phase candidate passes the positive-pivot gate")

    trace = ConvergenceTrace()
    # negligible theta / qbar updates in a row: 2 freeze a block; one that cannot run starts at 2
    beam_stale = 0 if beamformer in ("ccmo", "admm") else 2
    tx_stale = 0 if mu is not None and mu.num_user_antennas > 1 else 2
    H_eff = None
    for t in range(1, MAX_OUTER + 1):
        # p is the exact solve at the current (C, theta), also after an accepted candidate
        C = mvdr_bank(p, A, noise)
        if beam_stale < 2:
            coeffs = effective_coeffs(ch, detectors(C, h_eff))
            # a phase block that runs at all runs first at t = 1
            cand = _beamformer_candidate(beamformer, coeffs, p, Ttilde, noise, theta,
                                         restarts if t == 1 else [])
        p = power_step(Ttilde, C, A, noise)
        if p is None:
            raise InfeasibleError("current iterate became infeasible")
        if beam_stale < 2:
            trial = _evaluate(effective_channel(ch, cand), p, Ttilde, noise)
            accept, beam_stale = _gate(trial[3], p, beam_stale)
            if accept:
                theta, (h_eff, A, C, p), H_eff = cand, trial, None
        if tx_stale < 2:
            if H_eff is None:
                H_eff = mu.effective_channels(theta)
            q = _transmit_candidate(H_eff, detectors(C, h_eff), p, noise)
            trial = _evaluate(np.einsum("kmu,ku->km", H_eff, q), p, Ttilde, noise)
            accept, tx_stale = _gate(trial[3], p, tx_stale)
            if accept:
                ch, qbar, (h_eff, A, C, p) = mu.reduce(q), q, trial
        s = sum(p.tolist())
        trace.sum_power.append(s)
        trace.outer_iterations = t
        # the start powers come from matched filters, not from an AO
        # iteration, so the first iteration has nothing to be compared with
        if t > 1 and abs(s - prev_sum) <= OUTER_TOL * max(prev_sum, s, 1e-300):
            trace.converged = True
            break
        prev_sum = s
    return qbar, SolverState(p=p, F=detectors(C, h_eff), theta=theta, h_eff=h_eff), trace


def _evaluate(h_eff, p, Ttilde, noise):
    """(h_eff, A, C, powers) of the effective channels h_eff: their Gram matrix, the MVDR
    bank at the powers p and that bank's exact powers (None if it fails the gate)."""
    A = gram(h_eff)
    C = mvdr_bank(p, A, noise)
    return h_eff, A, C, power_step(Ttilde, C, A, noise)


def _gate(trial, p, stale):
    """(accept, stale): accept the powers trial if they exist and their total is at most
    p's; a rejection or a gain of at most INNER_TOL relative is one more stale update."""
    base = sum(p.tolist())
    if trial is None or sum(trial.tolist()) > base:
        return False, stale + 1
    return True, stale + 1 if base - sum(trial.tolist()) <= INNER_TOL * base else 0


def _beamformer_candidate(beamformer, coeffs, p, Ttilde, noise, theta, restarts):
    """One passive-beamforming update; returns the candidate theta. restarts (non-empty
    only on the first call) are extra CCMO starts, after aligned_phases when K = 1."""
    if beamformer == "ccmo":
        form = assemble_quadratic(coeffs, p, Ttilde, noise)
        aligned = [aligned_phases(coeffs)] if restarts and p.shape[0] == 1 else []
        return optimize_phases(form, [theta, *aligned, *restarts]).theta
    objective = FractionalObjective(coeffs, p, Ttilde, noise)
    return run_admm(objective, theta, max_outer=ADMM_MAX_OUTER,
                    max_inner=ADMM_MAX_INNER, tol_consensus=ADMM_TOL_CONSENSUS).theta


def solve_multi_antenna(cfg: SystemConfig, mu_channels: MultiAntennaChannels,
                        profile: LatencyProfile, beamformer: str, rng: np.random.Generator):
    """Multi-antenna users: the single-antenna AO loop on the reduced
    channels H q_bar, with the transmit beamformers q_bar as one more
    gated block.

    Returns (q_bar (K, N_u), SolverState, ConvergenceTrace). The beamformers
    start at the first antenna; at N_u = 1 the block never runs and the
    result is exactly the single-antenna solve on the column channels.
    """
    qbar = np.zeros_like(mu_channels.H_direct[:, 0])  # (K, N_u)
    qbar[:, 0] = 1.0
    first = ChannelSet(mu_channels.H_direct[..., 0], mu_channels.H_irs[..., 0], mu_channels.u,
                       mu_channels.v, mu_channels.blockage)
    return _solve(cfg, first, profile, beamformer, rng, mu_channels, qbar)


def _transmit_candidate(H_eff, F, p, noise):
    """Unit transmit beamformers q (K, N_u) at the detectors F and powers p on mu's H_eff(theta).

    q_k is parallel to R_k^{-1} w[k, k], where w[k, j] = (H_eff,k)^H f_j is
    user k's channel seen by detector j: row k of the MVDR bank over w[k]
    (Sherman-Morrison), read off the Gram matrices of all w[k] at once.
    """
    w = np.einsum("kmu,jm->kju", H_eff.conj(), F)
    grams = np.einsum("kiu,kju->kij", w.conj(), w).tolist()
    rows = [mvdr_bank(p, g, noise)[k] for k, g in enumerate(grams)]
    q = np.einsum("kj,kju->ku", rows, w)
    return q / np.linalg.norm(q, axis=1, keepdims=True)
