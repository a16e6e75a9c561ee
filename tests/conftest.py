import os

# BLAS pinned to one thread before numpy loads, as in bench/run.py, so that
# suite wall times compare like the benchmark's
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from typing import NamedTuple

import numpy as np
import pytest

from irsuplink import (
    ChannelSet,
    EffectiveCoeffs,
    SolverState,
    build_interference,
    detectors,
    effective_channel,
    effective_coeffs,
    gram,
    mvdr_bank,
    spectral_radius,
)


def crandn(rng, *shape):
    """Standard complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_channel_set(rng, K, M, N, blocked=False):
    """Synthetic unit-scale channels with a rank-one G = u v^H."""
    h_d = crandn(rng, K, M)
    h_r = crandn(rng, K, N)
    if N:
        u, v = crandn(rng, M), crandn(rng, N).conj()
    else:
        u, v = np.zeros(M, complex), np.zeros(0, complex)
    return ChannelSet(h_direct=h_d, h_irs=h_r, u=u, v=v, blockage=np.full(K, blocked))


def dense_G(ch):
    """Reference M x N AP-IRS matrix G = u v^H of a channel set."""
    return np.outer(ch.u, ch.v.conj())


class SingleUserOracle(NamedTuple):
    """Closed-form optimum of a single-user phase problem (see single_user_oracle)."""

    value: float  # max over unit-modulus theta of ||h_eff(theta)||^2
    cascaded: float  # c^2 ||u||^2: power of the cascaded link with aligned phases
    theta: np.ndarray  # unit-modulus phases attaining value


def single_user_oracle(ch):
    """Largest ||h_d + G diag(h_r) theta||^2 over unit-modulus theta at K=1.

    With G = u v^H (the factors ch.u, ch.v), h_eff = h_d + u s where
    s = sum_n conj(v_n) h_r,n theta_n has modulus at most
    c = sum_n |v_n h_r,n|. The norm is
    convex in s, so the maximum sits at |s| = c with s phase-aligned to
    u^H h_d (Wu & Zhang, arXiv:1810.03961):
    ||h_d||^2 + c^2 ||u||^2 + 2 c |u^H h_d|. Since p = Ttilde sigma^2 /
    ||h_eff||^2 at K=1, this sets the least power any phase choice reaches.
    """
    u, h_d, terms = ch.u, ch.h_direct[0], ch.v.conj() * ch.h_irs[0]
    c = float(np.sum(np.abs(terms)))
    cross = np.vdot(u, h_d)
    cascaded = c * c * float(np.vdot(u, u).real)
    value = float(np.vdot(h_d, h_d).real) + cascaded + 2.0 * c * abs(cross)
    theta = np.exp(1j * (np.angle(cross) - np.angle(terms)))
    return SingleUserOracle(value=value, cascaded=cascaded, theta=theta)


def random_coeffs(rng, K, N, scale=1.0):
    """Unit-scale effective coefficients for beamformer tests."""
    b = scale * crandn(rng, K, K)
    g = scale * crandn(rng, K, K, N)
    f_norm_sq = rng.uniform(0.5, 2.0, K)
    return EffectiveCoeffs(b=b, g=g, f_norm_sq=f_norm_sq)


def residual_sums(coeffs, p, Ttilde, noise, thetas):
    """The latency-residual sum at each row of thetas (S, N), read from the
    stacked signal matrix s[i, k, j] = b_kj + g_kj^H theta_i."""
    s2 = np.abs(coeffs.b[None] + np.einsum("kjn,in->ikj", coeffs.g.conj(), thetas)) ** 2
    own = np.einsum("ikk->ik", s2) * p
    interf = np.einsum("ikj,j->ik", s2 * (1.0 - np.eye(len(p))), p)
    return np.sum(own - Ttilde * (interf + noise * coeffs.f_norm_sq), axis=1)


def dense_residual_matrix(coeffs, p, Ttilde):
    """The N x N Hermitian U of the residual sum: sum_k p_k g_kk g_kk^H
    - sum_{k != j} Ttilde_k p_j g_kj g_kj^H."""
    K = len(p)
    weights = np.where(np.eye(K, dtype=bool), p[None, :], -np.outer(Ttilde, p))
    return np.einsum("kj,kjn,kjm->nm", weights, coeffs.g, coeffs.g.conj())


def mvdr_rows(p, h_eff, noise):
    """The MVDR detector rows F (K, M) over the channels h_eff."""
    return detectors(mvdr_bank(p, gram(h_eff), noise), h_eff)


def feasible_power_instance(rng, K=3, M=8, rho_target=0.85, noise=1.0):
    """Random detectors/channels with protection ratios scaled so that the
    MVDR-updated interference matrix is comfortably feasible.

    Returns (h_eff, C, Ttilde, noise), with C the coefficient rows of the
    detectors F = C h_eff. Q scales linearly with Ttilde, so scaling
    Ttilde pins the spectral radius below rho_target.
    """
    h_eff = crandn(rng, K, M)
    A = gram(h_eff)
    p_probe = rng.uniform(0.5, 2.0, K)
    C = mvdr_bank(p_probe, A, noise)
    Ttilde = rng.uniform(0.5, 1.5, K)
    Q, _ = build_interference(Ttilde, C, A, noise)
    rho = spectral_radius(Q)
    if rho > 0:
        Ttilde = Ttilde * min(1.0, rho_target * rng.uniform(0.5, 1.0) / rho)
    return h_eff, C, Ttilde, noise


def iterate_fixed_point(Q, tau, p0, max_iter=10_000):
    """Run p <- Q p + tau from p0 until successive iterates agree to 1e-15
    relative (inf-norm), or for max_iter steps."""
    p = np.asarray(p0, dtype=float)
    for _ in range(max_iter):
        p_next = Q @ p + tau
        if np.max(np.abs(p_next - p)) <= 1e-15 * np.max(np.abs(p_next)):
            return p_next
        p = p_next
    return p


def consistent_state(rng, ch, Ttilde=None, noise=1.0, p=None, theta=None):
    """SolverState with MVDR detectors and cached effective channels."""
    K, _ = ch.h_direct.shape
    N = ch.num_irs_elements
    if theta is None:
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, N))
    h_eff = effective_channel(ch, theta)
    if p is None:
        p = rng.uniform(0.5, 2.0, K)
    F = mvdr_rows(p, h_eff, noise)
    return SolverState(p=p, F=F, theta=theta, h_eff=h_eff), effective_coeffs(ch, F)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
