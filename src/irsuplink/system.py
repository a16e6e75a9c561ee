"""Problem instance definition and the evaluators shared by all solvers.

Data sizes are in nats, so rates use the natural logarithm: the uplink
latency of user k is D_k / (W ln(1 + SINR_k)) and the minimum protection
ratio exp(D_k/(W T)) - 1 is the SINR at which it equals the deadline T.
Powers are kept in watts internally; dBm appears only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, GainParams, PathLossParams

__all__ = [
    "SystemConfig",
    "LatencyProfile",
    "SolverState",
    "EffectiveCoeffs",
    "protection_ratios",
    "effective_channel",
    "effective_coeffs",
    "sinr",
    "latency",
    "dbm_to_watts",
    "watts_to_dbm",
]

# 28 GHz measurement fits (LoS / NLoS)
LOS_PATH_LOSS = PathLossParams(chi_a=61.4, chi_b=2.0, sigma_kappa=5.8)
NLOS_PATH_LOSS = PathLossParams(chi_a=72.0, chi_b=2.92, sigma_kappa=8.7)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts) -> float | np.ndarray:
    return 10.0 * np.log10(np.asarray(watts) * 1e3)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters: array sizes, users, radio constants, geometry."""

    M: int = 32
    N_az: int = 5
    N_el: int = 8
    K: int = 1
    W: float = 500e6
    T: float = 50e-3
    noise_power: float = dbm_to_watts(-85.0)
    gain: GainParams = field(default_factory=lambda: GainParams(nu=15.0))
    path_loss_los: PathLossParams = LOS_PATH_LOSS
    path_loss_nlos: PathLossParams = NLOS_PATH_LOSS
    L: int = 3
    rho_b: float = 0.0
    N_u: int = 1
    ap_xy: tuple[float, float] = (0.0, 0.0)
    irs_xy: tuple[float, float] = (80.0, 0.0)
    user_xy: tuple[tuple[float, float], ...] = ((40.0, 40.0),)

    def __post_init__(self):
        if min(self.M, self.N_az, self.N_el, self.K, self.N_u) < 1:
            raise ValueError("array/user counts must be at least 1")
        if self.L < 0:
            raise ValueError(f"NLoS path count must be nonnegative, got {self.L}")
        if min(self.W, self.T, self.noise_power) <= 0:
            raise ValueError("W, T and noise_power must be positive")
        if not 0.0 <= self.rho_b <= 1.0:
            raise ValueError(f"blockage probability must be in [0, 1], got {self.rho_b}")
        if len(self.user_xy) != self.K:
            raise ValueError(f"expected {self.K} user positions, got {len(self.user_xy)}")
        positions = (self.ap_xy, self.irs_xy, *self.user_xy)
        if any(len(xy) != 2 for xy in positions):
            raise ValueError(f"positions must be (x, y) pairs, got {positions}")
        # the sampler draws path loss over the AP-IRS link and each user's links to both
        ends = (self.ap_xy, self.irs_xy)
        if math.dist(*ends) == 0 or any(math.dist(xy, e) == 0 for xy in self.user_xy for e in ends):
            raise ValueError(f"the AP and the IRS must be apart and no user may sit on either, "
                             f"got {positions}")

    @property
    def N(self) -> int:
        return self.N_az * self.N_el


def protection_ratios(D, W: float, T: float) -> np.ndarray:
    """Minimum SINR targets: exp(D_k/(W T)) - 1, with D in nats."""
    if W <= 0 or T <= 0:
        raise ValueError(f"bandwidth and deadline must be positive, got W={W}, T={T}")
    D = np.asarray(D, dtype=float)
    if np.any(D < 0):
        raise ValueError("data sizes must be nonnegative")
    return np.expm1(D / (W * T))


@dataclass(frozen=True)
class LatencyProfile:
    """Per-user data sizes and the derived protection ratios."""

    D: np.ndarray
    Ttilde: np.ndarray

    @classmethod
    def from_data(cls, D, W: float, T: float) -> "LatencyProfile":
        D = np.asarray(D, dtype=float)
        return cls(D=D, Ttilde=protection_ratios(D, W, T))


def effective_channel(ch: ChannelSet, theta: np.ndarray) -> np.ndarray:
    """Composite channels h_k = h_d,k + G diag(h_r,k) theta = h_d,k + z_k u,
    z_k = v^H diag(h_r,k) theta, as a (K, M) array."""
    theta = np.asarray(theta)
    if theta.shape != (ch.num_irs_elements,):
        raise ValueError(
            f"theta has length {theta.shape}, expected ({ch.num_irs_elements},)"
        )
    return ch.h_direct + np.outer((ch.h_irs * theta) @ ch.v.conj(), ch.u)


@dataclass(frozen=True)
class SolverState:
    """Current (p, F, theta) with the cached effective channels.

    p: (K,) watts. F: (K, M) detector rows f_k. theta: (N,) unit modulus, or
    all zero for the `none` solver (the surface switched off). h_eff: (K, M).
    """

    p: np.ndarray
    F: np.ndarray
    theta: np.ndarray
    h_eff: np.ndarray


@dataclass(frozen=True)
class EffectiveCoeffs:
    """Per-pair scalars b[k, j] = f_k^H h_d,j and vectors g[k, j] with
    g[k, j]^H theta = f_k^H G diag(h_r,j) theta, plus ||f_k||^2."""

    b: np.ndarray  # (K, K)
    g: np.ndarray  # (K, K, N)
    f_norm_sq: np.ndarray  # (K,)

    def signal_matrix(self, theta: np.ndarray) -> np.ndarray:
        """s[k, j] = b[k, j] + g[k, j]^H theta."""
        return self.b + np.einsum("kjn,n->kj", self.g.conj(), theta)


def effective_coeffs(ch: ChannelSet, F: np.ndarray) -> EffectiveCoeffs:
    b = F.conj() @ ch.h_direct.T
    fg = np.outer(F.conj() @ ch.u, ch.v.conj())  # (K, N) rows f_k^H G = (f_k^H u) v^H
    g = (fg[:, None, :] * ch.h_irs[None, :, :]).conj()
    return EffectiveCoeffs(b=b, g=g, f_norm_sq=np.sum(np.abs(F) ** 2, axis=1))


def sinr(state: SolverState, noise_power: float, k: int) -> float:
    """SINR of user k under the current powers, detectors and phases."""
    f = state.F[k]
    fn = float(np.vdot(f, f).real)
    if fn == 0.0:
        raise ValueError(f"detector {k} is zero")
    gains = np.abs(state.h_eff @ f.conj()) ** 2  # |f_k^H h_j|^2 over j
    desired = state.p[k] * gains[k]
    interf = float(np.dot(state.p, gains)) - desired
    return float(desired / (interf + noise_power * fn))


def latency(state: SolverState, cfg: SystemConfig, profile: LatencyProfile, k: int) -> float:
    """Uplink air-time of user k in seconds; inf when the SINR is zero."""
    gamma = sinr(state, cfg.noise_power, k)
    if gamma <= 0.0:
        return math.inf
    return float(profile.D[k] / (cfg.W * math.log1p(gamma)))
