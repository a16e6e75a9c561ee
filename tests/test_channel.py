from dataclasses import replace

import numpy as np
import pytest

from irsuplink import (
    GainParams,
    PathLossParams,
    SystemConfig,
    path_loss_db,
    sample_channel_set,
    sample_direct_channel,
    sample_irs_links,
    sample_multi_antenna_channels,
    ula_steering,
    ura_steering,
)
from conftest import dense_G, single_user_oracle

NO_SHADOW_LOS = PathLossParams(chi_a=61.4, chi_b=2.0, sigma_kappa=0.0)
NO_SHADOW_NLOS = PathLossParams(chi_a=72.0, chi_b=2.92, sigma_kappa=0.0)


def cfg_for(M=4, N_az=2, N_el=2, K=1, L=3, rho_b=0.0, user_xy=((40.0, 40.0),),
            los=NO_SHADOW_LOS, nlos=NO_SHADOW_NLOS, gain=None):
    return SystemConfig(M=M, N_az=N_az, N_el=N_el, K=K, L=L, rho_b=rho_b,
                        user_xy=user_xy, path_loss_los=los, path_loss_nlos=nlos,
                        gain=gain or GainParams(nu=15.0))


class TestSteering:
    def test_single_element(self):
        sv = ula_steering(1, 0.5)
        assert sv.size == 1
        assert sv == pytest.approx([1.0 + 0.0j])

    def test_broadside_two_elements(self):
        sv = ula_steering(2, 0.0)
        assert sv == pytest.approx(np.ones(2) / np.sqrt(2))

    def test_phases_match_scalar_loop(self):
        # direct evaluation with the centered index set {-1.5,-0.5,0.5,1.5}
        sv = ula_steering(4, 0.3)
        for i, idx in enumerate([-1.5, -0.5, 0.5, 1.5]):
            expected = np.exp(-1j * np.pi * 0.3 * idx) / 2.0
            assert sv[i] == pytest.approx(expected, abs=1e-15)

    def test_unit_norm(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 40))
            sv = ula_steering(m, rng.uniform(-1, 1))
            assert abs(np.linalg.norm(sv) - 1.0) < 1e-12

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            ula_steering(0, 0.1)
        with pytest.raises(ValueError):
            ura_steering(0, 2, 0.1, 0.1)
        with pytest.raises(ValueError):
            ura_steering(2, 0, 0.1, 0.1)

    def test_ura_trivial_and_kronecker(self):
        assert ura_steering(1, 1, 0.3, -0.2) == pytest.approx([1.0])
        np.testing.assert_allclose(ura_steering(2, 1, 0.0, 0.7),
                                   ula_steering(2, 0.0), atol=1e-15)
        sv = ura_steering(2, 2, 0.2, 0.4)
        a_az = ula_steering(2, 0.2)
        a_el = ula_steering(2, 0.4)
        for i in range(2):
            for j in range(2):
                assert sv[2 * i + j] == pytest.approx(a_az[i] * a_el[j], abs=1e-15)

    def test_ura_reduces_to_ula(self, rng):
        for n in (1, 3, 7):
            az, el = rng.uniform(-1, 1, 2)
            np.testing.assert_allclose(ura_steering(n, 1, az, el),
                                       ula_steering(n, az), atol=1e-14)
            np.testing.assert_allclose(ura_steering(1, n, az, el),
                                       ula_steering(n, el), atol=1e-14)
            assert abs(np.linalg.norm(ura_steering(n, n, az, el)) - 1) < 1e-12


class TestPathLoss:
    def test_reference_values(self, rng):
        assert path_loss_db(NO_SHADOW_LOS, 1.0, rng) == pytest.approx(61.4)
        assert path_loss_db(NO_SHADOW_LOS, 100.0, rng) == pytest.approx(101.4)
        assert path_loss_db(NO_SHADOW_NLOS, 10.0, rng) == pytest.approx(101.2)

    def test_monotone_in_distance(self, rng):
        dists = np.linspace(1.0, 200.0, 40)
        vals = [path_loss_db(NO_SHADOW_LOS, d, rng) for d in dists]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_nonpositive_distance(self, rng):
        with pytest.raises(ValueError):
            path_loss_db(NO_SHADOW_LOS, 0.0, rng)
        with pytest.raises(ValueError):
            path_loss_db(NO_SHADOW_LOS, -3.0, rng)

    def test_deterministic_given_seed(self):
        params = PathLossParams(chi_a=61.4, chi_b=2.0, sigma_kappa=5.8)
        a = path_loss_db(params, 50.0, np.random.default_rng(3))
        b = path_loss_db(params, 50.0, np.random.default_rng(3))
        assert a == b

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PathLossParams(chi_a=61.4, chi_b=0.0, sigma_kappa=1.0)
        with pytest.raises(ValueError):
            PathLossParams(chi_a=61.4, chi_b=2.0, sigma_kappa=-1.0)


class TestGains:
    def test_nu_determines_rho_i(self):
        g = GainParams(rho_U=0.0, rho_B=9.82, nu=15.0)
        assert g.rho_I == pytest.approx(15.0 + 9.82 / 2)
        assert g.nu == pytest.approx(15.0)

    def test_inconsistent_rejected(self):
        with pytest.raises(TypeError):
            GainParams(rho_U=0.0, rho_B=9.82)


class TestDirectChannel:
    def test_single_los_path_structure(self, rng):
        # L=0, unblocked, user broadside of the AP: h = sqrt(M) xi aB aU a_M(0)
        cfg = cfg_for(M=4, L=0, user_xy=((0.0, 50.0),))
        h = sample_direct_channel(cfg, (0.0, 50.0), False, rng)
        amp = cfg.gain.amp_ap * cfg.gain.amp_user
        steer = ula_steering(4, 0.0)
        ratio = h / (np.sqrt(4) * amp * steer)
        assert np.allclose(ratio, ratio[0], atol=1e-12)

    def test_blocked_without_nlos_is_zero(self, rng):
        cfg = cfg_for(M=4, L=0)
        h = sample_direct_channel(cfg, (40.0, 40.0), True, rng)
        assert np.all(h == 0)

    def test_mean_power_matches_path_loss(self):
        # equal LoS/NLoS parameters and no shadowing: E||h||^2 = M aB^2 aU^2 10^(-PL/10)
        params = PathLossParams(chi_a=61.4, chi_b=2.0, sigma_kappa=0.0)
        cfg = cfg_for(M=4, L=3, los=params, nlos=params, user_xy=((30.0, 40.0),))
        rng = np.random.default_rng(7)
        dist = 50.0
        pl = 61.4 + 20.0 * np.log10(dist)
        expect = 4 * (cfg.gain.amp_ap * cfg.gain.amp_user) ** 2 * 10 ** (-pl / 10)
        acc = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            h = sample_direct_channel(cfg, (30.0, 40.0), False, rng)
            acc += np.linalg.norm(h) ** 2
        assert acc / n_draws == pytest.approx(expect, rel=0.05)


class TestIrsLinks:
    def test_rank_one_and_structure(self, rng):
        cfg = cfg_for(M=4, N_az=3, N_el=2)
        h_irs, u, v = sample_irs_links(cfg, cfg.user_xy, rng)
        assert u.shape == (4,) and v.shape == (6,)
        s = np.linalg.svd(np.outer(u, v.conj()), compute_uv=False)
        assert s[1] < 1e-10 * s[0]
        # h_r is a scaled steering vector: entries have equal magnitude
        mags = np.abs(h_irs[0])
        assert np.allclose(mags, mags[0], rtol=1e-12)

    def test_irs_user_norm_statistics(self):
        cfg = cfg_for(M=2, N_az=2, N_el=2, user_xy=((79.0, 0.0),))
        rng = np.random.default_rng(11)
        pl = 61.4  # distance 1 m from the IRS at (80, 0)
        expect = 4 * (cfg.gain.amp_irs * cfg.gain.amp_user) ** 2 * 10 ** (-pl / 10)
        acc = 0.0
        for _ in range(10_000):
            h_irs, _, _ = sample_irs_links(cfg, cfg.user_xy, rng)
            acc += np.linalg.norm(h_irs[0]) ** 2
        assert acc / 10_000 == pytest.approx(expect, rel=0.05)

    def test_g_outer_product_structure(self, rng):
        cfg = cfg_for(M=2, N_az=2, N_el=1)
        _, u, v = sample_irs_links(cfg, cfg.user_xy, rng)
        G = np.outer(u, v.conj())
        # AP sees the IRS at bearing 0 from broadside +y: sine -1; IRS sees AP broadside
        a_ap = ula_steering(2, -1.0)
        a_irs = ura_steering(2, 1, 0.0, 0.0)
        expected_shape = np.outer(a_ap, a_irs.conj())
        ratio = G / expected_shape
        assert np.allclose(ratio, ratio[0, 0], atol=1e-10 * np.abs(ratio[0, 0]))


class TestChannelSet:
    def test_reproducible(self):
        cfg = cfg_for(K=1, rho_b=0.5)
        a = sample_channel_set(cfg, np.random.default_rng(5))
        b = sample_channel_set(cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.h_direct, b.h_direct)
        np.testing.assert_array_equal(a.h_irs, b.h_irs)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.blockage, b.blockage)

    def test_draws_paired_across_array_sizes(self):
        # the same seed must give identical direct channels and blockage for
        # any IRS size, so sweeps over N stay paired
        small = sample_channel_set(cfg_for(N_az=2, N_el=2), np.random.default_rng(9))
        large = sample_channel_set(cfg_for(N_az=8, N_el=8), np.random.default_rng(9))
        np.testing.assert_array_equal(small.h_direct, large.h_direct)
        np.testing.assert_array_equal(small.blockage, large.blockage)
        # and the IRS gains share the scalar draw: ratios of norms fixed by N
        r_small = np.linalg.norm(small.h_irs[0]) / np.sqrt(small.num_irs_elements)
        r_large = np.linalg.norm(large.h_irs[0]) / np.sqrt(large.num_irs_elements)
        assert r_small == pytest.approx(r_large, rel=1e-12)

    def test_max_cascaded_power_grows_with_n_squared(self):
        # aperture gain: with the same seed, doubling N doubles both the
        # coherent sum c and ||u||^2 of G = u v^H, so c^2 ||u||^2 grows 4x
        for seed in range(10):
            cascaded = [
                single_user_oracle(sample_channel_set(
                    SystemConfig(N_az=n, N_el=1, rho_b=1.0),
                    np.random.default_rng(seed))).cascaded
                for n in (8, 16, 32, 64)
            ]
            np.testing.assert_allclose(np.array(cascaded[1:]) / cascaded[:-1], 4.0,
                                       rtol=1e-9)

    def test_blockage_coupled_across_probability(self):
        base = cfg_for(K=1)
        cfgs = [replace(base, rho_b=r) for r in (0.0, 0.5, 1.0)]
        blocked = [sample_channel_set(c, np.random.default_rng(21)).blockage[0] for c in cfgs]
        assert blocked[0] == False  # noqa: E712
        assert blocked[2] == True  # noqa: E712
        # monotone coupling: blocked at 0.5 implies blocked at 1.0
        assert (not blocked[1]) or blocked[2]


class TestMultiAntenna:
    def test_single_antenna_matches_simo_model_shape(self):
        cfg = cfg_for(K=2, user_xy=((40.0, 40.0), (50.0, -20.0)))
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng(3))
        assert mu.H_direct.shape == (2, 4, 1)
        assert mu.num_user_antennas == 1

    def test_antenna_count_does_not_shift_draws(self):
        base = cfg_for(K=1, L=0, user_xy=((0.0, 50.0),))
        one = sample_multi_antenna_channels(replace(base, N_u=1), np.random.default_rng(13))
        two = sample_multi_antenna_channels(replace(base, N_u=2), np.random.default_rng(13))
        # the AP-IRS matrix is independent of the user antenna count
        assert np.linalg.norm(dense_G(two)) == pytest.approx(np.linalg.norm(dense_G(one)),
                                                             rel=1e-12)
        # single LoS path: same gain draw, Frobenius power scales exactly with N_u
        assert mu_total_power(two) / mu_total_power(one) == pytest.approx(2.0, rel=1e-9)

    def test_reduce_collapses_to_columns(self, rng):
        cfg = cfg_for(K=1)
        mu = sample_multi_antenna_channels(cfg, rng)
        qbar = np.ones((1, 1), dtype=complex)
        ch = mu.reduce(qbar)
        np.testing.assert_allclose(ch.h_direct, mu.H_direct[:, :, 0])
        np.testing.assert_allclose(ch.h_irs, mu.H_irs[:, :, 0])


class TestVariateStream:
    """Values drawn from fixed seeds by an earlier release of the samplers.

    Any change to the draw order or the per-path arithmetic moves them. Per
    draw: the first entry and the total power of the direct, IRS-user and
    AP-IRS arrays, and the blockage flags. Key (N_u, seed); N_u None is
    sample_channel_set.
    """

    PINNED = {
        (None, 0): (
            [(-1.019051985592901e-06+6.291114867136633e-06j),
             (5.064702623535994e-05-4.558952032801831e-05j),
             (0.00017202456321284133+0.0002040456464690271j)],
            [1.944074177648313e-10, 4.874849397887792e-08, 1.1396332190645125e-06],
            [False, True]),
        (1, 0): (
            [(9.834873432614403e-06+2.871029492918794e-06j),
             (0.0004584226370779295-0.00018523872762941655j),
             (-2.474865755734236e-05+9.107117165647312e-05j)],
            [8.408691549222642e-10, 1.1484315972579489e-06, 1.4250326972437428e-07],
            [False, True]),
        (2, 0): (
            [(1.2943279308784791e-05+8.561877387954895e-06j),
             (0.0004905636705716752+6.17412788537239e-05j),
             (-2.474865755734236e-05+9.107117165647312e-05j)],
            [8.667715626663977e-10, 2.2968631945158974e-06, 1.4250326972437428e-07],
            [False, True]),
        (None, 1): (
            [(1.525293050150259e-05-1.4365329611332728e-05j),
             (0.00020140713496996-0.00020909424947756347j),
             (0.00025310422407024514+2.2480857073874394e-05j)],
            [2.5883081303013045e-09, 4.7134876547064053e-07, 1.0330741948316293e-06],
            [False, False]),
        (1, 1): (
            [(1.5346963013635028e-05-1.592511710506553e-05j),
             (-0.0001132882202498505+7.796672707382755e-05j),
             (-0.0002881898427023164+0.00019200909839678617j)],
            [6.614672579292804e-09, 8.28898039717828e-08, 1.9187340688629214e-06],
            [False, False]),
        (2, 1): (
            [(1.8347196344249536e-05-1.243180101923327e-05j),
             (-0.00013596179138998114-2.0674202766022443e-05j),
             (-0.0002881898427023164+0.00019200909839678617j)],
            [1.2714594304943555e-08, 1.6577960794356564e-07, 1.9187340688629214e-06],
            [False, False]),
        (None, 2): (
            [(-8.712986890489014e-07+3.660251419663264e-07j),
             (2.6108972711355197e-05-2.8382787399790867e-05j),
             (-0.00011912683980213477-0.0002068615545197968j)],
            [5.004646542656922e-11, 6.444548555985956e-08, 9.117265071934456e-07],
            [True, True]),
        (1, 2): (
            [(-6.241885195852887e-07-2.271167471327857e-07j),
             (1.0285403860265902e-05-0.0001748961945084589j),
             (-0.00083332189853148+0.0009087387440615006j)],
            [2.1949984292394998e-11, 3.5318314136715734e-07, 2.4323703864489335e-05],
            [True, True]),
        (2, 2): (
            [(-8.532315585627353e-07-1.0583699562051242e-06j),
             (1.1353311096420908e-05-0.00017483011958257461j),
             (-0.00083332189853148+0.0009087387440615006j)],
            [4.289723398774482e-11, 7.063662827343146e-07, 2.4323703864489335e-05],
            [True, True]),
    }

    def test_samplers_reproduce_pinned_values(self):
        for (n_u, seed), (firsts, powers, blocked) in self.PINNED.items():
            cfg = SystemConfig(M=4, N_az=2, N_el=2, K=2, rho_b=0.5, N_u=n_u or 1,
                               user_xy=((40.0, 40.0), (50.0, -20.0)))
            rng = np.random.default_rng(seed)
            if n_u is None:
                draw = sample_channel_set(cfg, rng)
                arrays = (draw.h_direct, draw.h_irs, dense_G(draw))
            else:
                draw = sample_multi_antenna_channels(cfg, rng)
                arrays = (draw.H_direct, draw.H_irs, dense_G(draw))
            np.testing.assert_allclose([x.flat[0] for x in arrays], firsts, rtol=1e-12)
            np.testing.assert_allclose([np.sum(np.abs(x) ** 2) for x in arrays], powers,
                                       rtol=1e-12)
            assert draw.blockage.tolist() == blocked


def mu_total_power(mu):
    return sum(np.linalg.norm(mu.H_direct[k]) ** 2 for k in range(mu.H_direct.shape[0]))


# Reference sampler: the per-path loop the batched samplers replaced, one
# steering vector per path and side, kept to check them element for element.
def _ref_ula(m, direction):
    idx = np.arange(m) - (m - 1) / 2.0
    return np.exp(-1j * np.pi * direction * idx) / np.sqrt(m)


def _ref_ura(n_az, n_el, az, el):
    return np.multiply.outer(_ref_ula(n_az, az), _ref_ula(n_el, el)).ravel()


def _ref_sine(from_xy, to_xy, broadside):
    return float(np.sin(np.arctan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0]) - broadside))


def _ref_path_gain(params, dist, n_u, rng):
    std = 10.0 ** (-path_loss_db(params, dist, rng) / 20.0)
    re, im = rng.standard_normal(2)
    xi = std * (re + 1j * im) / np.sqrt(2.0)
    return xi, 1.0 if n_u is None else _ref_ula(n_u, rng.uniform(-1.0, 1.0)).conj()


def _ref_direct_link(cfg, user_xy, blocked, n_u, rng):
    m, L = cfg.M, cfg.L
    dist = float(np.hypot(user_xy[0] - cfg.ap_xy[0], user_xy[1] - cfg.ap_xy[1]))
    amp = cfg.gain.amp_ap * cfg.gain.amp_user
    xi, u = _ref_path_gain(cfg.path_loss_los, dist, n_u, rng)
    h = np.zeros((m,) + np.shape(u), dtype=complex)
    if not blocked:
        los_sine = _ref_sine(cfg.ap_xy, user_xy, np.pi / 2.0)
        h += xi * amp * np.multiply.outer(_ref_ula(m, los_sine), u)
    for _ in range(L):
        sine = rng.uniform(-1.0, 1.0)
        xi, u = _ref_path_gain(cfg.path_loss_nlos, dist, n_u, rng)
        h += xi * amp * np.multiply.outer(_ref_ula(m, sine), u)
    return np.sqrt(m * np.size(u) / (L + 1)) * h


def _ref_irs_links(cfg, n_u, rng):
    n_az, n_el = cfg.N_az, cfg.N_el
    n = n_az * n_el
    amp_iu = cfg.gain.amp_irs * cfg.gain.amp_user
    amp_bi = cfg.gain.amp_ap * cfg.gain.amp_irs
    h_irs = []
    for xy in cfg.user_xy:
        dist = float(np.hypot(xy[0] - cfg.irs_xy[0], xy[1] - cfg.irs_xy[1]))
        xi, u = _ref_path_gain(cfg.path_loss_los, dist, n_u, rng)
        az = _ref_sine(cfg.irs_xy, xy, np.pi)
        h_irs.append(np.sqrt(n * np.size(u)) * xi * amp_iu
                     * np.multiply.outer(_ref_ura(n_az, n_el, az, 0.0), u))
    dist_g = float(np.hypot(cfg.irs_xy[0] - cfg.ap_xy[0], cfg.irs_xy[1] - cfg.ap_xy[1]))
    xi_g = _ref_path_gain(cfg.path_loss_los, dist_g, None, rng)[0]
    phi = _ref_sine(cfg.ap_xy, cfg.irs_xy, np.pi / 2.0)
    az_g = _ref_sine(cfg.irs_xy, cfg.ap_xy, np.pi)
    return (np.stack(h_irs), np.sqrt(cfg.M * n) * xi_g * amp_bi * _ref_ula(cfg.M, phi),
            _ref_ura(n_az, n_el, az_g, 0.0))


def _ref_links(cfg, n_u, rng):
    blocked = np.array([rng.uniform() < cfg.rho_b for _ in range(cfg.K)])
    direct = np.stack([_ref_direct_link(cfg, cfg.user_xy[k], bool(blocked[k]), n_u, rng)
                       for k in range(cfg.K)])
    return (direct, *_ref_irs_links(cfg, n_u, rng), blocked)


class TestBatchedSamplerIsExact:
    """The batched samplers give the reference loop's arrays bit for bit."""

    @pytest.mark.parametrize("L", [0, 3])
    @pytest.mark.parametrize("n_el", [1, 8])
    @pytest.mark.parametrize("rho_b", [0.0, 1.0])
    @pytest.mark.parametrize("K", [1, 2])
    def test_samplers_equal_the_per_path_loop(self, K, rho_b, n_el, L):
        for n_u in (None, 1, 2, 4):
            cfg = SystemConfig(M=8, N_az=4, N_el=n_el, K=K, L=L, rho_b=rho_b, N_u=n_u or 1,
                               user_xy=((40.0, 40.0), (50.0, -20.0))[:K])
            sample = sample_channel_set if n_u is None else sample_multi_antenna_channels
            for seed in range(20):
                draw = sample(cfg, np.random.default_rng(seed))
                expected = _ref_links(cfg, n_u, np.random.default_rng(seed))
                for got, want in zip(vars(draw).values(), expected):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    np.testing.assert_array_equal(got, want)

    def test_steering_rows_equal_scalar_calls(self, rng):
        for m in (1, 2, 5, 32):
            sines = rng.uniform(-1.0, 1.0, 7)
            rows = ula_steering(m, sines)
            assert rows.shape == (7, m)
            for row, sine in zip(rows, sines):
                np.testing.assert_array_equal(row, ula_steering(m, float(sine)))
                np.testing.assert_array_equal(row, _ref_ula(m, float(sine)))
            for n_el in (1, 3):
                rows = ura_steering(m, n_el, sines, 0.0)
                assert rows.shape == (7, m * n_el)
                for row, sine in zip(rows, sines):
                    np.testing.assert_array_equal(row, ura_steering(m, n_el, float(sine), 0.0))
                    np.testing.assert_array_equal(row, _ref_ura(m, n_el, float(sine), 0.0))
