import math

import numpy as np
import pytest

from irsuplink import (
    LatencyProfile,
    SolverState,
    SystemConfig,
    dbm_to_watts,
    effective_channel,
    latency,
    protection_ratios,
    sinr,
    watts_to_dbm,
)
from irsuplink.experiments import _build_config
from conftest import crandn, dense_G, random_channel_set, single_user_oracle


class TestProtectionRatios:
    def test_zero_data_needs_zero_sinr(self):
        assert protection_ratios([0.0], 5e8, 0.05)[0] == 0.0

    def test_reference_value(self):
        # exp(5000 / (5e8 * 0.05)) - 1, evaluated independently via math.expm1
        got = protection_ratios([5000.0], 5e8, 0.05)[0]
        assert got == pytest.approx(math.expm1(2e-4), rel=1e-12)
        assert got == pytest.approx(2.000200013e-4, rel=1e-9)

    def test_monotone_in_data_size(self):
        vals = protection_ratios(np.linspace(0, 9000, 20), 5e8, 0.05)
        assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_bandwidth_or_deadline(self):
        with pytest.raises(ValueError):
            protection_ratios([1.0], 0.0, 0.05)
        with pytest.raises(ValueError):
            protection_ratios([1.0], 5e8, -1.0)

    def test_profile_carries_positive_ratios(self):
        prof = LatencyProfile.from_data([5000.0, 8000.0], 5e8, 0.05)
        assert np.all(prof.Ttilde > 0)


class TestUnits:
    def test_dbm_round_trip(self):
        assert dbm_to_watts(-85.0) == pytest.approx(10**-11.5)
        assert watts_to_dbm(dbm_to_watts(-42.5)) == pytest.approx(-42.5)


class TestSystemConfigValidation:
    def test_defaults_are_consistent(self):
        cfg = SystemConfig()
        assert cfg.N == 40
        # the CLI's base defaults state the same scenario as the library's
        assert _build_config({}, "rho_b", 0.0)[0] == cfg

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SystemConfig(M=0)
        with pytest.raises(ValueError):
            SystemConfig(L=-1)
        with pytest.raises(ValueError):
            SystemConfig(rho_b=1.5)
        with pytest.raises(ValueError):
            SystemConfig(K=2)  # only one position supplied


class TestEffectiveChannel:
    def test_surface_off_returns_direct(self, rng):
        # theta = 0 adds only zeros: the direct channels, exactly
        ch = random_channel_set(rng, K=2, M=4, N=3)
        np.testing.assert_array_equal(effective_channel(ch, np.zeros(3, complex)), ch.h_direct)

    def test_matches_explicit_diag(self, rng):
        ch = random_channel_set(rng, K=2, M=4, N=5)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        h = effective_channel(ch, theta)
        for k in range(2):
            explicit = ch.h_direct[k] + dense_G(ch) @ np.diag(theta) @ ch.h_irs[k]
            np.testing.assert_allclose(h[k], explicit, atol=1e-12 * np.linalg.norm(explicit))

    def test_matches_bruteforce_loop(self, rng):
        ch = random_channel_set(rng, K=3, M=4, N=8)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        h = effective_channel(ch, theta)
        G = dense_G(ch)
        for k in range(3):
            acc = ch.h_direct[k].copy()
            for n in range(8):
                acc += G[:, n] * theta[n] * ch.h_irs[k, n]
            np.testing.assert_allclose(h[k], acc, atol=1e-12 * np.linalg.norm(acc))

    def test_linear_in_theta(self, rng):
        ch = random_channel_set(rng, K=2, M=4, N=6)
        t1 = crandn(rng, 6)
        t2 = crandn(rng, 6)
        lhs = effective_channel(ch, t1 + t2) - effective_channel(ch, t1) \
            - effective_channel(ch, t2) + ch.h_direct
        assert np.max(np.abs(lhs)) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        ch = random_channel_set(rng, K=1, M=4, N=6)
        with pytest.raises(ValueError):
            effective_channel(ch, np.ones(5, complex))


class TestSingleUserOracle:
    def test_no_phase_choice_beats_the_oracle(self, rng):
        for _ in range(20):
            ch = random_channel_set(rng, K=1, M=4, N=8)
            best = single_user_oracle(ch).value
            for _ in range(50):
                theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
                h = effective_channel(ch, theta)[0]
                assert np.vdot(h, h).real <= best * (1 + 1e-12)

    def test_oracle_phases_attain_the_value(self, rng):
        for _ in range(20):
            ch = random_channel_set(rng, K=1, M=4, N=8)
            oracle = single_user_oracle(ch)
            np.testing.assert_allclose(np.abs(oracle.theta), 1.0, rtol=1e-12)
            h = effective_channel(ch, oracle.theta)[0]
            assert np.vdot(h, h).real == pytest.approx(oracle.value, rel=1e-12)


def make_state(rng, K=2, M=4, N=6, p=None):
    ch = random_channel_set(rng, K, M, N)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, N))
    h_eff = effective_channel(ch, theta)
    F = crandn(rng, K, M)
    if p is None:
        p = rng.uniform(0.1, 2.0, K)
    return SolverState(p=p, F=F, theta=theta, h_eff=h_eff)


class TestSinr:
    def test_zero_power_means_zero_sinr(self, rng):
        st = make_state(rng, K=1, p=np.zeros(1))
        assert sinr(st, 1.0, 0) == 0.0

    def test_single_user_closed_form(self, rng):
        ch = random_channel_set(rng, K=1, M=5, N=0)
        h = ch.h_direct[0]
        f = h / np.linalg.norm(h) ** 2
        st = SolverState(p=np.ones(1), F=f[None, :], theta=np.zeros(0, complex),
                         h_eff=h[None, :])
        # no interference: Gamma = |f^H h|^2 / (sigma^2 ||f||^2) = ||h||^2 at sigma^2 = 1
        assert sinr(st, 1.0, 0) == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)

    def test_scale_invariant_in_detector(self, rng):
        st = make_state(rng, K=3)
        base = sinr(st, 0.7, 1)
        F = st.F.copy()
        F[1] *= 2.3 - 1.1j
        scaled = SolverState(p=st.p, F=F, theta=st.theta, h_eff=st.h_eff)
        assert sinr(scaled, 0.7, 1) == pytest.approx(base, rel=1e-12)

    def test_zero_detector_rejected(self, rng):
        st = make_state(rng, K=2)
        F = st.F.copy()
        F[0] = 0
        bad = SolverState(p=st.p, F=F, theta=st.theta, h_eff=st.h_eff)
        with pytest.raises(ValueError):
            sinr(bad, 1.0, 0)


class TestLatency:
    def cfg(self):
        return SystemConfig(W=5e8, T=0.05)

    def test_latency_at_threshold_is_deadline(self, rng):
        # pick p so that the SINR hits the protection ratio exactly
        cfg = self.cfg()
        prof = LatencyProfile.from_data([5000.0], cfg.W, cfg.T)
        ch = random_channel_set(rng, K=1, M=4, N=0)
        h = ch.h_direct[0]
        f = h / np.linalg.norm(h) ** 2
        target = prof.Ttilde[0]
        p = target * cfg.noise_power / np.linalg.norm(h) ** 2
        st = SolverState(p=np.array([p]), F=f[None, :], theta=np.zeros(0, complex),
                         h_eff=h[None, :])
        assert sinr(st, cfg.noise_power, 0) == pytest.approx(target, rel=1e-12)
        assert latency(st, cfg, prof, 0) == pytest.approx(cfg.T, rel=1e-9)
        # above the threshold the latency drops below the deadline
        st2 = SolverState(p=np.array([2 * p]), F=st.F, theta=st.theta, h_eff=st.h_eff)
        assert latency(st2, cfg, prof, 0) < cfg.T

    def test_zero_sinr_gives_infinite_latency(self, rng):
        cfg = self.cfg()
        prof = LatencyProfile.from_data([5000.0], cfg.W, cfg.T)
        st = make_state(rng, K=1, N=0, p=np.zeros(1))
        assert latency(st, cfg, prof, 0) == math.inf

    def test_deadline_iff_protection_ratio(self, rng):
        # latency <= T exactly when the SINR clears the protection ratio
        cfg = self.cfg()
        prof = LatencyProfile.from_data([6000.0, 7500.0], cfg.W, cfg.T)
        for _ in range(25):
            st = make_state(rng, K=2, N=4)
            for k in range(2):
                meets_deadline = latency(st, cfg, prof, k) <= cfg.T
                clears_ratio = sinr(st, cfg.noise_power, k) >= prof.Ttilde[k]
                assert meets_deadline == clears_ratio
