"""The factored channel path against the dense formulas it replaces.

The AP-IRS matrix is stored as its factors u, v (G = u v^H). Here the
effective channels, the coefficients built from the factors and every
evaluator that reads them (the signal matrix, CCMO's form, its gradient and
step bound, ADMM's J_A and its gradient) are compared, on draws of both
channel samplers, with the same quantities built from the dense M x N G.
"""

import numpy as np
import pytest

from irsuplink import (
    EffectiveCoeffs,
    FractionalObjective,
    SystemConfig,
    assemble_quadratic,
    effective_channel,
    effective_coeffs,
    largest_eigen_magnitude,
    riemannian_gradient,
    sample_channel_set,
    sample_multi_antenna_channels,
)
from conftest import crandn, dense_G, mvdr_rows

RTOL = 1e-12
SHAPES = {1: (1, 1), 8: (8, 1), 40: (5, 8), 256: (64, 4)}  # N -> (N_az, N_el)


def draws(K, N, n_u, count=2):
    """(channels, multi-antenna channels or None, theta, p, Ttilde, noise) on
    `count` draws; n_u None is the single-antenna sampler, otherwise the
    multi-antenna one, reduced through random unit transmit beamformers."""
    n_az, n_el = SHAPES[N]
    # the IRS off the AP's axis, so that v is complex (at the default
    # (80, 0) the AP sits on the IRS broadside and v is real)
    cfg = SystemConfig(M=8, N_az=n_az, N_el=n_el, K=K, rho_b=0.5, N_u=n_u or 1,
                       irs_xy=(80.0, 30.0), user_xy=((40.0, 40.0), (50.0, -20.0))[:K])
    for seed in range(count):
        rng = np.random.default_rng([seed, K, N, n_u or 0])
        if n_u is None:
            mu, ch = None, sample_channel_set(cfg, rng)
        else:
            qbar = crandn(rng, K, n_u)
            mu = sample_multi_antenna_channels(cfg, rng)
            ch = mu.reduce(qbar / np.linalg.norm(qbar, axis=1, keepdims=True))
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
        yield (ch, mu, theta, 1e-5 * rng.uniform(0.5, 2.0, K), rng.uniform(0.2, 1.0, K),
               cfg.noise_power)


def dense_g(ch, F):
    """Pair vectors g[k, j] with g[k, j]^H theta = f_k^H G diag(h_r,j) theta,
    from the dense G."""
    fg = F.conj() @ dense_G(ch)
    return (fg[:, None, :] * ch.h_irs[None, :, :]).conj()


def assert_close(got, want, scale):
    """|got - want| within RTOL of the magnitude scale of the summed terms."""
    assert np.max(np.abs(np.asarray(got) - want)) <= RTOL * scale


CASES = [(K, N, n_u) for K in (1, 2) for N in SHAPES for n_u in (None, 1, 2)]


@pytest.mark.parametrize("K, N, n_u", CASES)
def test_factored_path_matches_dense_formulas(K, N, n_u):
    for ch, mu, theta, p, Tt, noise in draws(K, N, n_u):
        # effective channel h_k = h_d,k + G diag(h_r,k) theta
        G = dense_G(ch)
        h_eff = effective_channel(ch, theta)
        assert_close(h_eff, ch.h_direct + (G @ (ch.h_irs * theta).T).T,
                     np.max(np.abs(ch.h_direct))
                     + np.max(np.abs(G)) * np.max(np.sum(np.abs(ch.h_irs), axis=1)))
        if mu is not None:  # matrix channels H_d,k + G diag(theta) H_irs,k
            assert_close(mu.effective_channels(theta),
                         mu.H_direct + G @ (theta[:, None] * mu.H_irs),
                         np.max(np.abs(mu.H_direct))
                         + np.max(np.abs(G)) * np.max(np.sum(np.abs(mu.H_irs), axis=1)))

        # pair vectors g[k, j]^H theta = f_k^H G diag(h_r,j) theta
        F = mvdr_rows(p, h_eff, noise)
        coeffs = effective_coeffs(ch, F)
        dense = EffectiveCoeffs(b=coeffs.b, g=dense_g(ch, F), f_norm_sq=coeffs.f_norm_sq)
        g_scale = np.max(np.abs(dense.g))
        assert_close(coeffs.g, dense.g, g_scale)

        # signal matrix s[k, j] = b_kj + g_kj^H theta = f_k^H h_j
        s_scale = np.max(np.abs(coeffs.b)) + N * g_scale
        assert_close(coeffs.signal_matrix(theta), dense.signal_matrix(theta), s_scale)
        assert_close(coeffs.signal_matrix(theta), F.conj() @ h_eff.T, s_scale)

        # CCMO: value, Riemannian gradient and exact step bound
        form, ref = (assemble_quadratic(c, p, Tt, noise) for c in (coeffs, dense))
        w = np.abs(ref.w)
        assert_close(form.descent_value(theta), ref.descent_value(theta),
                     np.sum(w) * s_scale ** 2)
        assert_close(riemannian_gradient(theta, form), riemannian_gradient(theta, ref),
                     2.0 * np.sum(w) * s_scale * g_scale)
        assert_close(largest_eigen_magnitude(form), largest_eigen_magnitude(ref),
                     np.sum(w) * N * g_scale ** 2)

        # ADMM: sum_k beta_k A_k^2 and its gradient 2 d/dtheta*
        obj, obj_ref = (FractionalObjective(c, p, Tt, noise) for c in (coeffs, dense))
        beta = obj_ref.optimal_beta(theta)
        (val, grad), (val_ref, grad_ref) = (o._ja_value_grad(theta, beta)
                                            for o in (obj, obj_ref))
        assert_close(val, val_ref, val_ref)
        A = obj_ref.parts(theta)[0]
        assert_close(grad, grad_ref,
                     4.0 * np.sum(beta * A * Tt) * np.sum(p) * s_scale * g_scale)
