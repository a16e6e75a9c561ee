"""Closed-form inner loop: exact power control and MVDR detection.

With detectors and phases held fixed, the latency constraints read
(I - Q) p >= tau with Q[i, j] = T~_i |f_i^H h_j|^2 / |f_i^H h_i|^2 (zero
diagonal) and tau_i = sigma^2 T~_i ||f_i||^2 / |f_i^H h_i|^2. When the
spectral radius of Q is below one, the unique componentwise-minimal
feasible power vector is (I - Q)^{-1} tau. Every step costs O(K^2 M):
no M x M matrix is built and no eigen-decomposition is taken.
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
    """Exact dominant eigenvalue magnitude of the K x K coupling matrix: the
    reference for the power solve's pivot gate in tests, not on the solve path."""
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def solve_power_fixed_point(Q: np.ndarray, tau: np.ndarray) -> PowerSolveReport:
    """The minimal feasible power vector (I - Q)^{-1} tau, the fixed point
    of p <- Q p + tau.

    I - Q is a Z-matrix, and it is a nonsingular M-matrix (for I - Q:
    rho(Q) < 1) exactly when its leading principal minors, and so the
    pivots of elimination without pivoting, are all positive. The solve is
    therefore the exact gate: it raises InfeasibleError at the first pivot
    that is not positive.
    """
    a = (-np.asarray(Q, dtype=float)).tolist()  # rows of I - Q once the diagonal gets +1
    b = np.asarray(tau, dtype=float).tolist()
    k = len(b)
    for i in range(k):
        a[i][i] += 1.0
    for i in range(k):
        pivot = a[i][i]
        if not pivot > 0.0:
            raise InfeasibleError(f"pivot {i} of I - Q is {pivot:.6g}: spectral radius >= 1")
        for r in range(i + 1, k):
            ratio = a[r][i] / pivot
            for c in range(i + 1, k):
                a[r][c] -= ratio * a[i][c]
            b[r] -= ratio * b[i]
    p = [0.0] * k
    for i in reversed(range(k)):
        p[i] = (b[i] - sum(a[i][c] * p[c] for c in range(i + 1, k))) / a[i][i]
    return PowerSolveReport(p=np.array(p))


def mvdr_bank(p, h_eff: np.ndarray, noise_power: float) -> np.ndarray:
    """All K MVDR detectors f_k = R_k^{-1} h_k / (h_k^H R_k^{-1} h_k), stacked
    as rows. R_k sums the interferers' weighted outer products plus the
    noise loading; each row satisfies f_k^H h_k = 1.

    The full covariance R = sigma^2 I + sum_j p_j h_j h_j^H differs from
    user k's interference-plus-noise covariance R_k by p_k h_k h_k^H, so by
    Sherman-Morrison R^{-1} h_k is parallel to R_k^{-1} h_k. Normalizing
    each column of R^{-1} H^T to f_k^H h_k = 1 therefore gives the same
    detectors as K separate solves. With A = H^* H^T the K x K Gram matrix
    of the rows h_k, Woodbury gives R^{-1} H^T = H^T (sigma^2 I + diag(p) A)^{-1}:
    one K x K solve, nonsingular also when A is (M < K).
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    p = np.asarray(p, dtype=float)
    # (sigma^2 I + diag(p) A)^T, as A^T = H H^H
    system_t = (h_eff @ h_eff.conj().T) * p + noise_power * np.eye(p.size)
    X = np.linalg.solve(system_t, h_eff)  # row k is R^{-1} h_k
    # h_k^H R^{-1} h_k; complex division makes f^H h = 1 exact
    denom = np.sum(h_eff.conj() * X, axis=1)
    return X / denom[:, None]
