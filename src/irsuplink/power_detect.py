"""Closed-form inner loop: exact power control and MVDR detection.

With detectors and phases held fixed, the latency constraints read
(I - Q) p >= tau with Q[i, j] = T~_i |f_i^H h_j|^2 / |f_i^H h_i|^2 (zero
diagonal) and tau_i = sigma^2 T~_i ||f_i||^2 / |f_i^H h_i|^2. When the
spectral radius of Q is below one, the unique componentwise-minimal
feasible power vector is (I - Q)^{-1} tau, found by one K x K solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasibleError",
    "DegenerateDetectorError",
    "InterferenceMatrix",
    "PowerSolveReport",
    "build_interference",
    "spectral_radius",
    "solve_power_fixed_point",
    "mvdr_bank",
]


class InfeasibleError(Exception):
    """The SINR targets cannot all be met (spectral radius of Q >= 1)."""


class DegenerateDetectorError(ValueError):
    """A detector has zero projection onto its own user's channel."""


@dataclass(frozen=True)
class InterferenceMatrix:
    """Normalized cross gains Q (zero diagonal) and noise loads tau."""

    Q: np.ndarray
    tau: np.ndarray


@dataclass(frozen=True)
class PowerSolveReport:
    p: np.ndarray
    # the solve is exact; both stay only for the bench/tracing.py fixed-point span
    iterations: int = 1
    converged: bool = True


def build_interference(Ttilde, F: np.ndarray, h_eff: np.ndarray, noise_power: float) -> InterferenceMatrix:
    """Assemble (Q, tau) from the current detectors and effective channels."""
    Ttilde = np.asarray(Ttilde, dtype=float)
    cross = np.abs(F.conj() @ h_eff.T) ** 2  # |f_i^H h_j|^2
    own = np.diag(cross).copy()
    if np.any(own <= 0.0):
        bad = int(np.argmin(own))
        raise DegenerateDetectorError(f"detector {bad} has zero gain on its own channel")
    Q = Ttilde[:, None] * cross / own[:, None]
    np.fill_diagonal(Q, 0.0)
    f_norm_sq = np.sum(np.abs(F) ** 2, axis=1)
    tau = noise_power * Ttilde * f_norm_sq / own
    return InterferenceMatrix(Q=Q, tau=tau)


def spectral_radius(Q: np.ndarray) -> float:
    """Exact dominant eigenvalue magnitude of the K x K coupling matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def solve_power_fixed_point(Q: np.ndarray, tau: np.ndarray) -> PowerSolveReport:
    """The minimal feasible power vector (I - Q)^{-1} tau, the fixed point
    of p <- Q p + tau.

    Raises InfeasibleError when rho(Q), computed exactly, is not below one.
    """
    tau = np.asarray(tau, dtype=float)
    rho = spectral_radius(Q)
    if rho >= 1.0:
        raise InfeasibleError(f"spectral radius {rho:.6f} >= 1")
    return PowerSolveReport(p=np.linalg.solve(np.eye(tau.size) - Q, tau))


def mvdr_bank(p, h_eff: np.ndarray, noise_power: float) -> np.ndarray:
    """All K MVDR detectors f_k = R_k^{-1} h_k / (h_k^H R_k^{-1} h_k), stacked
    as rows, from one linear solve. R_k sums the interferers' weighted outer
    products plus the noise loading; each row satisfies f_k^H h_k = 1.

    The full covariance R = sigma^2 I + sum_j p_j h_j h_j^H differs from
    user k's interference-plus-noise covariance R_k by p_k h_k h_k^H, so by
    Sherman-Morrison R^{-1} h_k is parallel to R_k^{-1} h_k. Normalizing
    each column of R^{-1} H^T to f_k^H h_k = 1 therefore gives the same
    detectors as K separate solves.
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    p = np.asarray(p, dtype=float)
    m = h_eff.shape[1]
    R = noise_power * np.eye(m, dtype=complex) + (h_eff.T * p) @ h_eff.conj()
    X = np.linalg.solve(R, h_eff.T)
    # h_k^H R^{-1} h_k; complex division makes f^H h = 1 exact
    denom = np.sum(h_eff.conj() * X.T, axis=1)
    return (X / denom).T
