"""Closed-form inner loop: exact power control and MVDR detection.

With detectors and phases held fixed, the latency constraints read
(I - Q) p >= tau with Q[i, j] = T~_i |f_i^H h_j|^2 / |f_i^H h_i|^2 (zero
diagonal) and tau_i = sigma^2 T~_i ||f_i||^2 / |f_i^H h_i|^2. When the
spectral radius of Q is below one, the unique componentwise-minimal
feasible power vector is (I - Q)^{-1} tau. Detector banks are carried as
K x K coefficient rows C (F = C H), and every step reads the channels
only through their K x K Gram matrix A = H^* H^T: O(K^2 M) once per phase
vector, then O(K^3) on Python scalars per detector or power step. F is
built only where it is read. No M x M matrix and no eigen-decomposition:
one elimination without pivoting solves both the power system and the
MVDR bank, and its positive-pivot test is the exact feasibility gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

__all__ = [
    "InfeasibleError",
    "DegenerateDetectorError",
    "PowerSolveReport",
    "gram",
    "detectors",
    "build_interference",
    "spectral_radius",
    "solve_power_fixed_point",
    "power_step",
    "mvdr_bank",
]


class InfeasibleError(Exception):
    """The SINR targets cannot all be met (spectral radius of Q >= 1)."""


class DegenerateDetectorError(ValueError):
    """A detector has zero projection onto its own user's channel."""


@dataclass(frozen=True)
class PowerSolveReport:
    p: np.ndarray
    # the solve is exact; both stay only for the bench/tracing.py fixed-point span
    iterations: int = 1
    converged: bool = True


def gram(H: np.ndarray) -> list:
    """Gram matrix H^* H^T (entry [i][j] = h_i^H h_j), as lists."""
    return (H.conj() @ H.T).tolist()


def detectors(C, H: np.ndarray) -> np.ndarray:
    """Rows F = C H renormalized to f_k^H h_k = 1, which moves no power (SINR is scale-free)."""
    F = np.array(C) @ H
    # h_k^H f_k; complex division makes f^H h = 1 exact
    return F / (H.conj() * F).sum(axis=1)[:, None]


def build_interference(Ttilde, C, A, noise_power: float) -> tuple[list, list]:
    """Normalized cross gains Q (zero diagonal) and noise loads tau, as lists,
    for the detectors F = C H from the Gram matrix A of H.

    The gains are h_j^H f_i = sum_l C[i][l] A[j][l], and ||f_i||^2 reads them too.
    """
    Q, tau = [], []
    for i, c in enumerate(C):
        gains = [sum(map(mul, c, a)) for a in A]  # h_j^H f_i
        own = abs(gains[i]) ** 2
        if not own > 0.0:
            raise DegenerateDetectorError(f"detector {i} has zero gain on its own channel")
        Q.append([0.0 if j == i else Ttilde[i] * abs(z) ** 2 / own for j, z in enumerate(gains)])
        f_norm_sq = sum([x * z.conjugate() for x, z in zip(c, gains)]).real  # f_i^H f_i
        tau.append(noise_power * Ttilde[i] * f_norm_sq / own)
    return Q, tau


def spectral_radius(Q) -> float:
    """Exact dominant eigenvalue magnitude of the K x K coupling matrix: the
    reference for the power solve's pivot gate in tests, not on the solve path."""
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def _eliminate(rows) -> list:
    """Gauss-Jordan without pivoting on the K augmented rows [S | B], in
    place; returns the rows of S^{-1} B.

    Both callers' S have positive leading principal minors exactly when
    their problem is well posed, so every pivot (a ratio of two such
    minors) must have a positive real part: InfeasibleError at the first
    that does not.
    """
    k = len(rows)
    for i, pivot_row in enumerate(rows):
        pivot = pivot_row[i]
        if not pivot.real > 0.0:
            raise InfeasibleError(f"pivot {i} is {pivot:.6g}, not positive "
                                  "(for I - Q: spectral radius >= 1)")
        pivot_row[:] = [x / pivot for x in pivot_row]
        for r, row in enumerate(rows):
            if r != i:
                ratio = row[i]
                row[:] = [x - ratio * y for x, y in zip(row, pivot_row)]
    return [row[k:] for row in rows]


def solve_power_fixed_point(Q, tau) -> PowerSolveReport:
    """The minimal feasible power vector (I - Q)^{-1} tau, the fixed point
    of p <- Q p + tau.

    I - Q is a Z-matrix, and it is a nonsingular M-matrix (for I - Q:
    rho(Q) < 1) exactly when its leading principal minors, and so the
    pivots of elimination without pivoting, are all positive. The solve is
    therefore the exact gate: it raises InfeasibleError at the first pivot
    that is not positive.
    """
    rows = [[-q for q in row] + [t] for row, t in zip(Q, tau)]  # [I - Q | tau] once
    for i, row in enumerate(rows):  # the diagonal gets +1
        row[i] += 1.0
    return PowerSolveReport(p=np.array([x[0] for x in _eliminate(rows)]))


def power_step(Ttilde, C, A, noise_power: float) -> np.ndarray | None:
    """The exact powers of the detectors F = C H on the channels H with Gram
    matrix A, or None if a detector is degenerate or the targets are infeasible."""
    try:
        return solve_power_fixed_point(*build_interference(Ttilde, C, A, noise_power)).p
    except (DegenerateDetectorError, InfeasibleError):
        return None


def mvdr_bank(p, A, noise_power: float) -> list:
    """Coefficient rows C (F = C H) of all K MVDR detectors, each parallel
    to R_k^{-1} h_k, from the Gram matrix A of the channels H. R_k sums the
    interferers' weighted outer products plus the noise loading.

    R = sigma^2 I + sum_j p_j h_j h_j^H differs from R_k by p_k h_k h_k^H, so
    by Sherman-Morrison R^{-1} h_k is parallel to R_k^{-1} h_k; Woodbury
    gives R^{-1} H^T = H^T S^{-1} with S = sigma^2 I + diag(p) A, so C = S^{-T},
    nonsingular also when A is (M < K). The leading minors of S,
    det(sigma^2 I + D A) = det(sigma^2 I + D^{1/2} A D^{1/2}) with D = diag(p),
    are positive for p >= 0. At p = 0 the rows are the matched filters
    h_k / sigma^2, parallel to h_k / ||h_k||^2.
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    p = np.asarray(p, dtype=float).tolist()
    k = len(p)
    # [S^T | I] with S^T[i][j] = sigma^2 delta_ij + A[j][i] p_j
    rows = [[a * q for a, q in zip(col, p)] + [0.0] * k for col in zip(*A)]
    for i, row in enumerate(rows):
        row[i] += noise_power
        row[k + i] = 1.0
    return _eliminate(rows)
