"""Synthetic mmWave channel generation.

Links are built from normalized array steering vectors, per-path complex
gains with distance-dependent path loss and lognormal shadowing, and a
rank-one AP-IRS matrix G = u v^H (one LoS path), kept as its factors u (M,)
and v (N,): no M x N matrix is built. All randomness goes through an
explicit ``numpy.random.Generator`` so realizations are reproducible, and
the draw order is fixed so that a given seed yields the same
fading/shadowing variates regardless of array sizes (this is what makes
sweeps over N, gains, distances, or blockage probability paired).

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
    """The IRS relative reflection gain nu in dB and the user and AP element
    gains in dBi; the IRS element gain is rho_I = nu + (rho_B + rho_U)/2 in dB.
    """

    nu: float
    rho_U: float = 0.0
    rho_B: float = 9.82

    @property
    def rho_I(self) -> float:
        return self.nu + 0.5 * (self.rho_B + self.rho_U)

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

    h_direct: (K, M) AP-user channels. h_irs: (K, N) IRS-user channels. u (M,)
    and v (N,): the AP-IRS matrix G = u v^H. blockage: (K,) LoS-blocked flags.
    """

    h_direct: np.ndarray
    h_irs: np.ndarray
    u: np.ndarray
    v: np.ndarray
    blockage: np.ndarray

    @property
    def num_irs_elements(self) -> int:
        return self.v.size


@dataclass(frozen=True)
class MultiAntennaChannels:
    """Per-user matrix channels for N_u-antenna users.

    H_direct: (K, M, N_u); H_irs: (K, N, N_u); u (M,), v (N,) with G = u v^H.
    """

    H_direct: np.ndarray
    H_irs: np.ndarray
    u: np.ndarray
    v: np.ndarray
    blockage: np.ndarray

    @property
    def num_user_antennas(self) -> int:
        return self.H_direct.shape[2]

    def effective_channels(self, theta: np.ndarray) -> np.ndarray:
        """H_d,k + G diag(theta) H_irs,k = H_d,k + u ((conj(v) theta)^T H_irs,k), (K, M, N_u)."""
        z = (self.v.conj() * theta) @ self.H_irs  # (K, N_u)
        return self.H_direct + self.u[None, :, None] * z[:, None, :]

    def reduce(self, qbar: np.ndarray) -> ChannelSet:
        """Collapse to a SIMO set through unit transmit beamformers qbar (K, N_u)."""
        h_d = np.einsum("kmu,ku->km", self.H_direct, qbar)
        h_r = np.einsum("knu,ku->kn", self.H_irs, qbar)
        return ChannelSet(h_direct=h_d, h_irs=h_r, u=self.u, v=self.v, blockage=self.blockage)


def ula_steering(m: int, direction) -> np.ndarray:
    """Normalized ULA steering vector (M,) for a directional sine in [-1, 1]; rows for P sines."""
    if m < 1:
        raise ValueError(f"array needs at least one element, got {m}")
    # centered index set {n - (m-1)/2}, half-wavelength spacing -> phase -pi*direction*idx
    idx = np.arange(m) - (m - 1) / 2.0
    return np.exp(-1j * np.pi * np.asarray(direction)[..., None] * idx) / np.sqrt(m)


def ura_steering(n_az: int, n_el: int, az, el) -> np.ndarray:
    """URA steering vector (n_az n_el,): Kronecker product of the two ULA factors; a row each."""
    # element i * n_el + j is a_i b_j, as in np.kron(a, b)
    kron = ula_steering(n_az, az)[..., :, None] * ula_steering(n_el, el)[..., None, :]
    return kron.reshape(kron.shape[:-2] + (n_az * n_el,))


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
    """Complex gain of one path and its user-side AoD sine.

    Single-antenna links (n_u None) draw nothing more and get None;
    N_u-antenna links draw an AoD sine after the gain, also at N_u = 1, so
    their variate count does not depend on N_u.
    """
    xi = _complex_gain(path_loss_db(params, dist, rng), rng)
    return xi, None if n_u is None else rng.uniform(-1.0, 1.0)


def _path_terms(gains, a, aods, n_u) -> np.ndarray:
    """Rows gains[p] (a[p] x conj(ULA(n_u, aods[p]))), or gains[p] a[p] when n_u is None."""
    g = np.array(gains, dtype=complex)[:, None]
    if n_u is None:
        return g * a
    return g[..., None] * (a[:, :, None] * ula_steering(n_u, aods).conj()[:, None, :])


def _direct_link(cfg, user_xy, blocked: bool, n_u, rng: np.random.Generator) -> np.ndarray:
    m, L = cfg.M, cfg.L
    dist = float(np.hypot(user_xy[0] - cfg.ap_xy[0], user_xy[1] - cfg.ap_xy[1]))
    amp = cfg.gain.amp_ap * cfg.gain.amp_user

    # (sine, gain, AoD) per path in draw order; a blocked LoS path still draws its variates
    paths = [(_directional_sine(cfg.ap_xy, user_xy, _AP_BROADSIDE),
              *_path_gain(cfg.path_loss_los, dist, n_u, rng))]
    for _ in range(L):
        sine = rng.uniform(-1.0, 1.0)
        paths.append((sine, *_path_gain(cfg.path_loss_nlos, dist, n_u, rng)))
    sines, xis, aods = (column[int(blocked):] for column in zip(*paths))
    h = _path_terms([xi * amp for xi in xis], ula_steering(m, sines), aods, n_u)
    return np.sqrt(m * (n_u or 1) / (L + 1)) * h.sum(axis=0)  # rows added in path order


def _irs_links(cfg, users, n_u, rng: np.random.Generator):
    n_az, n_el = cfg.N_az, cfg.N_el
    n = n_az * n_el
    amp_iu = cfg.gain.amp_irs * cfg.gain.amp_user
    amp_bi = cfg.gain.amp_ap * cfg.gain.amp_irs

    dists = [float(np.hypot(xy[0] - cfg.irs_xy[0], xy[1] - cfg.irs_xy[1])) for xy in users]
    xis, aods = zip(*[_path_gain(cfg.path_loss_los, dist, n_u, rng) for dist in dists])
    azs = [_directional_sine(cfg.irs_xy, xy, _IRS_BROADSIDE) for xy in users]
    h_irs = _path_terms([np.sqrt(n * (n_u or 1)) * xi * amp_iu for xi in xis],
                        ura_steering(n_az, n_el, azs, 0.0), aods, n_u)

    dist_g = float(np.hypot(cfg.irs_xy[0] - cfg.ap_xy[0], cfg.irs_xy[1] - cfg.ap_xy[1]))
    pl_g = path_loss_db(cfg.path_loss_los, dist_g, rng)
    xi_g = _complex_gain(pl_g, rng)
    phi = _directional_sine(cfg.ap_xy, cfg.irs_xy, _AP_BROADSIDE)
    az_g = _directional_sine(cfg.irs_xy, cfg.ap_xy, _IRS_BROADSIDE)
    # G = u v^H with the path's scalar on the AP factor u
    return (h_irs, np.sqrt(cfg.M * n) * xi_g * amp_bi * ula_steering(cfg.M, phi),
            ura_steering(n_az, n_el, az_g, 0.0))


def _sample_links(cfg, n_u, rng: np.random.Generator):
    """(direct, IRS-user, u, v, blockage) in the fixed draw order: blockage
    flags, then each user's direct paths, each user's IRS link, then G = u v^H."""
    blocked = np.array([rng.uniform() < cfg.rho_b for _ in range(cfg.K)])
    direct = np.stack([_direct_link(cfg, cfg.user_xy[k], bool(blocked[k]), n_u, rng)
                       for k in range(cfg.K)])
    return (direct, *_irs_links(cfg, cfg.user_xy, n_u, rng), blocked)


def sample_direct_channel(cfg, user_xy, blocked: bool, rng: np.random.Generator) -> np.ndarray:
    """One AP-user channel: LoS term (dropped when blocked) plus L NLoS terms.

    Each path gets an independent gain CN(0, 10^(-PL/10)) with the LoS or
    NLoS loss parameters, and the whole sum is scaled by sqrt(M/(L+1)).
    The LoS variates are consumed even when the path is blocked so the
    stream stays aligned across blockage outcomes.
    """
    return _direct_link(cfg, user_xy, blocked, None, rng)


def sample_irs_links(cfg, user_positions, rng: np.random.Generator):
    """IRS-user LoS channels h_irs (K, N) and the factors u (M,), v (N,) of G = u v^H."""
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
