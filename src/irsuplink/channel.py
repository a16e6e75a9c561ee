"""Synthetic mmWave channel generation.

Links are built from normalized array steering vectors, per-path complex
gains with distance-dependent path loss and lognormal shadowing, and a
rank-one AP-IRS matrix. All randomness goes through an explicit
``numpy.random.Generator`` so realizations are reproducible, and the draw
order is fixed so that a given seed yields the same fading/shadowing
variates regardless of array sizes (this is what makes sweeps over N,
gains, distances, or blockage probability paired across grid points).

Angle convention: arrays live in the (x, y) plane. The AP ULA broadside
points along +y, the IRS URA faces -x (toward the AP). A link direction is
the directional sine sin(bearing - broadside). Elevation sines are 0 for
this planar geometry. Antenna element spacing is half a wavelength.

Gains in dBi enter the channel amplitudes as 10^(dBi/20).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelSet",
    "MultiAntennaChannels",
    "PathLossParams",
    "GainParams",
    "ula_steering",
    "ura_steering",
    "path_loss_db",
    "sample_direct_channel",
    "sample_irs_links",
    "sample_channel_set",
    "sample_multi_antenna_channels",
]


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss: PL(R) = chi_a + 10 chi_b log10(R) + kappa,
    kappa ~ N(0, sigma_kappa^2), everything in dB."""

    chi_a: float
    chi_b: float
    sigma_kappa: float

    def __post_init__(self):
        if self.chi_b <= 0:
            raise ValueError(f"chi_b must be positive, got {self.chi_b}")
        if self.sigma_kappa < 0:
            raise ValueError(f"sigma_kappa must be nonnegative, got {self.sigma_kappa}")


@dataclass(frozen=True)
class GainParams:
    """Element gains in dBi and the IRS relative reflection gain nu in dB.

    nu is defined by rho_I = nu + (rho_B + rho_U)/2 in the dB domain. Pass
    either rho_I or nu; the other is derived. Passing both is accepted only
    if consistent.
    """

    rho_U: float = 0.0
    rho_B: float = 9.82
    rho_I: float | None = None
    nu: float | None = None

    def __post_init__(self):
        mid = 0.5 * (self.rho_B + self.rho_U)
        if self.rho_I is None and self.nu is None:
            raise ValueError("one of rho_I or nu is required")
        if self.rho_I is None:
            object.__setattr__(self, "rho_I", self.nu + mid)
        elif self.nu is None:
            object.__setattr__(self, "nu", self.rho_I - mid)
        elif abs(self.rho_I - (self.nu + mid)) > 1e-9:
            raise ValueError(
                f"inconsistent gains: rho_I={self.rho_I} dBi vs nu+avg={self.nu + mid} dBi"
            )

    @property
    def amp_user(self) -> float:
        return 10.0 ** (self.rho_U / 20.0)

    @property
    def amp_ap(self) -> float:
        return 10.0 ** (self.rho_B / 20.0)

    @property
    def amp_irs(self) -> float:
        return 10.0 ** (self.rho_I / 20.0)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all links for K single-antenna users.

    h_direct: (K, M) AP-user channels. h_irs: (K, N) IRS-user channels.
    G: (M, N) rank-one AP-IRS matrix. blockage: (K,) LoS-blocked flags.
    """

    h_direct: np.ndarray
    h_irs: np.ndarray
    G: np.ndarray
    blockage: np.ndarray

    @property
    def num_irs_elements(self) -> int:
        return self.G.shape[1]

    def without_irs(self) -> "ChannelSet":
        """View of the same realization with the IRS absent (N = 0)."""
        k, m = self.h_direct.shape
        return ChannelSet(
            h_direct=self.h_direct,
            h_irs=np.zeros((k, 0), dtype=complex),
            G=np.zeros((m, 0), dtype=complex),
            blockage=self.blockage,
        )


@dataclass(frozen=True)
class MultiAntennaChannels:
    """Per-user matrix channels for N_u-antenna users.

    H_direct: (K, M, N_u); H_irs: (K, N, N_u); G: (M, N).
    """

    H_direct: np.ndarray
    H_irs: np.ndarray
    G: np.ndarray
    blockage: np.ndarray

    @property
    def num_user_antennas(self) -> int:
        return self.H_direct.shape[2]

    def reduce(self, qbar: np.ndarray) -> ChannelSet:
        """Collapse to a SIMO set through unit transmit beamformers qbar (K, N_u)."""
        h_d = np.einsum("kmu,ku->km", self.H_direct, qbar)
        h_r = np.einsum("knu,ku->kn", self.H_irs, qbar)
        return ChannelSet(h_direct=h_d, h_irs=h_r, G=self.G, blockage=self.blockage)


def _ula(m: int, sine: float) -> np.ndarray:
    # centered index set {n - (m-1)/2}, half-wavelength spacing -> phase -pi*sine*idx
    idx = np.arange(m) - (m - 1) / 2.0
    return np.exp(-1j * np.pi * sine * idx) / np.sqrt(m)


def ula_steering(m: int, direction: float) -> np.ndarray:
    """Normalized ULA steering vector (M,) for a directional sine in [-1, 1]."""
    if m < 1:
        raise ValueError(f"array needs at least one element, got {m}")
    return _ula(m, direction)


def _ura(n_az: int, n_el: int, az: float, el: float) -> np.ndarray:
    return np.kron(_ula(n_az, az), _ula(n_el, el))


def ura_steering(n_az: int, n_el: int, az: float, el: float) -> np.ndarray:
    """URA steering vector (n_az n_el,): Kronecker product of the two ULA factors."""
    if n_az < 1 or n_el < 1:
        raise ValueError(f"array needs at least one element per axis, got {n_az}x{n_el}")
    return _ura(n_az, n_el, az, el)


def path_loss_db(params: PathLossParams, distance_m: float, rng: np.random.Generator) -> float:
    """Path loss in dB over a distance, including a shadowing draw."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    kappa = rng.normal(0.0, params.sigma_kappa)  # scale 0 still consumes one variate
    return params.chi_a + 10.0 * params.chi_b * np.log10(distance_m) + kappa


def _complex_gain(pl_db: float, rng: np.random.Generator) -> complex:
    # CN(0, 10^(-PL/10)); PL in dB
    std = 10.0 ** (-pl_db / 20.0)
    re, im = rng.standard_normal(2)
    return std * (re + 1j * im) / np.sqrt(2.0)


def _directional_sine(from_xy, to_xy, broadside: float) -> float:
    bearing = np.arctan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0])
    return float(np.sin(bearing - broadside))


_AP_BROADSIDE = np.pi / 2.0  # ULA along x axis, facing +y
_IRS_BROADSIDE = np.pi  # URA facing -x, toward the AP


def _path_gain(params: PathLossParams, dist: float, n_u, rng: np.random.Generator):
    """Complex gain of one path and its user-side response.

    Single-antenna links (n_u None) take the scalar response 1 and draw
    nothing more; N_u-antenna links draw an AoD sine after the gain, also
    at N_u = 1, so their variate count does not depend on N_u.
    """
    xi = _complex_gain(path_loss_db(params, dist, rng), rng)
    return xi, 1.0 if n_u is None else _ula(n_u, rng.uniform(-1.0, 1.0)).conj()


def _direct_link(cfg, user_xy, blocked: bool, n_u, rng: np.random.Generator) -> np.ndarray:
    m, L = cfg.M, cfg.L
    dist = float(np.hypot(user_xy[0] - cfg.ap_xy[0], user_xy[1] - cfg.ap_xy[1]))
    amp = cfg.gain.amp_ap * cfg.gain.amp_user

    xi, u = _path_gain(cfg.path_loss_los, dist, n_u, rng)
    h = np.zeros((m,) + np.shape(u), dtype=complex)
    if not blocked:
        los_sine = _directional_sine(cfg.ap_xy, user_xy, _AP_BROADSIDE)
        h += xi * amp * np.multiply.outer(_ula(m, los_sine), u)
    for _ in range(L):
        sine = rng.uniform(-1.0, 1.0)
        xi, u = _path_gain(cfg.path_loss_nlos, dist, n_u, rng)
        h += xi * amp * np.multiply.outer(_ula(m, sine), u)
    return np.sqrt(m * np.size(u) / (L + 1)) * h


def _irs_links(cfg, user_positions, n_u, rng: np.random.Generator):
    n_az, n_el = cfg.N_az, cfg.N_el
    n = n_az * n_el
    amp_iu = cfg.gain.amp_irs * cfg.gain.amp_user
    amp_bi = cfg.gain.amp_ap * cfg.gain.amp_irs

    h_irs = []
    for xy in user_positions:
        dist = float(np.hypot(xy[0] - cfg.irs_xy[0], xy[1] - cfg.irs_xy[1]))
        xi, u = _path_gain(cfg.path_loss_los, dist, n_u, rng)
        az = _directional_sine(cfg.irs_xy, xy, _IRS_BROADSIDE)
        h_irs.append(np.sqrt(n * np.size(u)) * xi * amp_iu
                     * np.multiply.outer(_ura(n_az, n_el, az, 0.0), u))

    dist_g = float(np.hypot(cfg.irs_xy[0] - cfg.ap_xy[0], cfg.irs_xy[1] - cfg.ap_xy[1]))
    pl_g = path_loss_db(cfg.path_loss_los, dist_g, rng)
    xi_g = _complex_gain(pl_g, rng)
    phi = _directional_sine(cfg.ap_xy, cfg.irs_xy, _AP_BROADSIDE)
    az_g = _directional_sine(cfg.irs_xy, cfg.ap_xy, _IRS_BROADSIDE)
    a_ap = _ula(cfg.M, phi)
    a_irs = _ura(n_az, n_el, az_g, 0.0)
    G = np.sqrt(cfg.M * n) * xi_g * amp_bi * np.outer(a_ap, a_irs.conj())
    return np.stack(h_irs), G


def _sample_links(cfg, n_u, rng: np.random.Generator):
    """(direct, IRS-user, G, blockage) in the fixed draw order: blockage
    flags, then each user's direct paths, each user's IRS link, then G."""
    blocked = np.array([rng.uniform() < cfg.rho_b for _ in range(cfg.K)])
    direct = np.stack([_direct_link(cfg, cfg.user_xy[k], bool(blocked[k]), n_u, rng)
                       for k in range(cfg.K)])
    irs, G = _irs_links(cfg, cfg.user_xy, n_u, rng)
    return direct, irs, G, blocked


def sample_direct_channel(cfg, user_xy, blocked: bool, rng: np.random.Generator) -> np.ndarray:
    """One AP-user channel: LoS term (dropped when blocked) plus L NLoS terms.

    Each path gets an independent gain CN(0, 10^(-PL/10)) with the LoS or
    NLoS loss parameters, and the whole sum is scaled by sqrt(M/(L+1)).
    The LoS variates are consumed even when the path is blocked so the
    stream stays aligned across blockage outcomes.
    """
    return _direct_link(cfg, user_xy, blocked, None, rng)


def sample_irs_links(cfg, user_positions, rng: np.random.Generator):
    """IRS-user LoS channels h_irs (K, N) and the rank-one AP-IRS matrix G (M, N)."""
    return _irs_links(cfg, user_positions, None, rng)


def sample_channel_set(cfg, rng: np.random.Generator) -> ChannelSet:
    """Draw one full realization (blockage states, direct links, IRS links)."""
    return ChannelSet(*_sample_links(cfg, None, rng))


def sample_multi_antenna_channels(cfg, rng: np.random.Generator) -> MultiAntennaChannels:
    """Realization for N_u-antenna users.

    Each path keeps the single complex gain of the SIMO model and gains a
    user-side ULA response at an independent uniform AoD sine; at N_u = 1
    that factor is [1], so the matrices are exactly the SIMO vectors. The
    variate count does not depend on N_u (AoD sines are always drawn).
    """
    return MultiAntennaChannels(*_sample_links(cfg, cfg.N_u, rng))
