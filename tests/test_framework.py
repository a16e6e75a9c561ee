import dataclasses

import numpy as np
import pytest

from irsuplink import framework, power_detect
from irsuplink import (
    FrameworkConfig,
    InfeasibleError,
    LatencyProfile,
    SystemConfig,
    latency,
    sample_channel_set,
    sample_multi_antenna_channels,
    sinr,
    solve,
    solve_multi_antenna,
    solve_with_power_caps,
)


def small_cfg(K=1, rho_b=0.0, n_el=4, n_u=1, user_xy=None):
    if user_xy is None:
        user_xy = ((40.0, 40.0), (50.0, -20.0))[:K]
    return SystemConfig(M=8, N_az=4, N_el=n_el, K=K, rho_b=rho_b, N_u=n_u,
                        user_xy=user_xy)


def draw(cfg, seed):
    ch = sample_channel_set(cfg, np.random.default_rng([seed, 0]))
    D = np.random.default_rng([seed, 1]).uniform(5000, 8000, cfg.K)
    return ch, LatencyProfile.from_data(D, cfg.W, cfg.T)


class TestSolveBasics:
    def test_single_user_no_irs_closed_form(self):
        cfg = small_cfg(K=1, rho_b=0.0)
        ch, prof = draw(cfg, 11)
        st, tr = solve(cfg, ch, prof, FrameworkConfig(beamformer="none"))
        # K=1 MVDR is the matched filter: p = sigma^2 T~ / ||h||^2
        expect = cfg.noise_power * prof.Ttilde[0] / np.linalg.norm(ch.h_direct[0]) ** 2
        assert st.p[0] == pytest.approx(expect, rel=1e-8)
        assert tr.converged
        assert st.theta.size == 0

    def test_latency_met_and_tight_at_return(self):
        cfg = small_cfg(K=2, rho_b=0.5)
        for seed in range(6):
            ch, prof = draw(cfg, seed)
            st, tr = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                           np.random.default_rng(0))
            for k in range(cfg.K):
                assert latency(st, cfg, prof, k) <= cfg.T * (1 + 1e-6)
                ratio = sinr(st, cfg.noise_power, k) / prof.Ttilde[k]
                assert 1 - 1e-6 <= ratio <= 1 + 1e-3

    def test_trace_monotone_total_power(self):
        cfg = small_cfg(K=2, rho_b=1.0)
        for solver in ("ccmo", "admm"):
            done = 0
            seed = 0
            while done < 5 and seed < 20:
                ch, prof = draw(cfg, seed)
                seed += 1
                try:
                    _, tr = solve(cfg, ch, prof, FrameworkConfig(beamformer=solver),
                                  np.random.default_rng(0))
                except InfeasibleError:
                    continue
                sp = np.asarray(tr.sum_power)
                assert np.all(np.diff(sp) <= 1e-9 * sp[:-1])
                done += 1
            assert done == 5

    def test_irs_beats_no_irs_in_blocked_scenario(self):
        cfg = small_cfg(K=2, rho_b=1.0, n_el=8)
        wins = total = 0
        for seed in range(20):
            ch, prof = draw(cfg, seed)
            try:
                st_c, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                                np.random.default_rng(0))
                st_n, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="none"),
                                np.random.default_rng(0))
            except InfeasibleError:
                continue
            total += 1
            wins += st_c.p.sum() <= st_n.p.sum() * (1 + 1e-12)
        assert total >= 15
        assert wins / total >= 0.95

    def test_deterministic_given_seed(self):
        cfg = small_cfg(K=2, rho_b=1.0)
        ch, prof = draw(cfg, 3)
        runs = []
        for _ in range(2):
            st, tr = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                           np.random.default_rng(42))
            runs.append((st, tuple(tr.sum_power)))
        np.testing.assert_array_equal(runs[0][0].p, runs[1][0].p)
        np.testing.assert_array_equal(runs[0][0].theta, runs[1][0].theta)
        assert runs[0][1] == runs[1][1]

    def test_fixed_random_baseline_holds_phases(self):
        cfg = small_cfg(K=1, rho_b=1.0)
        ch, prof = draw(cfg, 5)
        st, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="fixed-random"),
                      np.random.default_rng(9))
        assert np.max(np.abs(np.abs(st.theta) - 1.0)) < 1e-12
        # the drawn phases are exactly the first gate candidate of the rng
        expect = np.exp(1j * np.random.default_rng(9).uniform(0, 2 * np.pi, cfg.N))
        np.testing.assert_array_equal(st.theta, expect)

    def test_unknown_beamformer_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig(beamformer="sdr")


class TestNonConvergence:
    @pytest.mark.parametrize("failing_call", [1, 2])  # outer refresh, inner refresh
    def test_non_converged_fixed_point_is_infeasible(self, monkeypatch, failing_call):
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, prof = draw(cfg, 3)
        original = framework.solve_power_fixed_point
        calls = []

        def fake(*args, **kwargs):
            rep = original(*args, **kwargs)
            calls.append(rep)
            if len(calls) == failing_call:
                return dataclasses.replace(rep, converged=False)
            return rep

        monkeypatch.setattr(framework, "solve_power_fixed_point", fake)
        with pytest.raises(InfeasibleError, match="did not converge"):
            solve(cfg, ch, prof, FrameworkConfig(beamformer="none"))
        assert len(calls) == failing_call



class TestOneGatePerQ:
    @pytest.mark.parametrize("solver", ["none", "fixed-random", "ccmo"])
    def test_only_the_fixed_point_gates(self, monkeypatch, solver):
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, prof = draw(cfg, 3)
        gate = power_detect.spectral_radius
        counts = {"direct": 0, "own": 0, "fixed_point": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        # the fixed point looks its gate up in power_detect; a framework-level
        # gate would go through framework.spectral_radius
        monkeypatch.setattr(power_detect, "spectral_radius", counting("own", gate))
        monkeypatch.setattr(framework, "spectral_radius", counting("direct", gate),
                            raising=False)
        monkeypatch.setattr(framework, "solve_power_fixed_point",
                            counting("fixed_point", framework.solve_power_fixed_point))
        solve(cfg, ch, prof, FrameworkConfig(beamformer=solver), np.random.default_rng(0))
        assert counts["fixed_point"] > 0
        assert counts["direct"] == 0
        assert counts["own"] == counts["fixed_point"]

class TestPowerCaps:
    def test_loose_cap_feasible_in_one_round(self):
        cfg = small_cfg(K=1, rho_b=0.0)
        ch, prof = draw(cfg, 2)
        st, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                      np.random.default_rng(0))
        res = solve_with_power_caps(cfg, ch, prof, p_max=10 * float(st.p.max()),
                                    fw=FrameworkConfig(beamformer="ccmo"),
                                    rng=np.random.default_rng(0))
        assert res.feasible and res.rounds == 1
        np.testing.assert_array_equal(res.weights, np.ones(1))

    def test_cap_below_single_user_minimum_is_infeasible(self):
        cfg = small_cfg(K=1, rho_b=0.0)
        ch, prof = draw(cfg, 2)
        st, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                      np.random.default_rng(0))
        res = solve_with_power_caps(cfg, ch, prof, p_max=0.5 * float(st.p.min()),
                                    fw=FrameworkConfig(beamformer="ccmo"),
                                    rng=np.random.default_rng(0))
        assert not res.feasible
        assert res.reason

    def test_feasible_verdict_implies_caps_met(self):
        cfg = small_cfg(K=2, rho_b=1.0, n_el=8)
        ch, prof = draw(cfg, 7)
        st, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                      np.random.default_rng(0))
        cap = 0.8 * float(st.p.max())  # binds the heavier user
        res = solve_with_power_caps(cfg, ch, prof, p_max=cap,
                                    fw=FrameworkConfig(beamformer="ccmo"),
                                    rng=np.random.default_rng(0))
        if res.feasible:
            assert np.all(res.state.p <= cap * (1 + 1e-6))
        else:
            assert res.rounds >= 1

    def test_rejects_nonpositive_cap(self):
        cfg = small_cfg()
        ch, prof = draw(cfg, 1)
        with pytest.raises(ValueError):
            solve_with_power_caps(cfg, ch, prof, p_max=0.0)


class TestMultiAntenna:
    def test_single_antenna_reduces_exactly(self):
        cfg = small_cfg(K=2, rho_b=0.5, n_u=1)
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([4, 0]))
        prof = LatencyProfile.from_data(
            np.random.default_rng([4, 1]).uniform(5000, 8000, 2), cfg.W, cfg.T)
        qbar, st_mu, _ = solve_multi_antenna(cfg, mu, prof,
                                             FrameworkConfig(beamformer="ccmo"),
                                             np.random.default_rng(0))
        ch = mu.reduce(qbar)
        st, _ = solve(cfg, ch, prof, FrameworkConfig(beamformer="ccmo"),
                      np.random.default_rng(0))
        np.testing.assert_allclose(st_mu.p, st.p, rtol=1e-10)
        np.testing.assert_allclose(st_mu.theta, st.theta, rtol=1e-10)
        np.testing.assert_array_equal(qbar, np.ones((2, 1), complex))

    def test_unit_norm_beamformers_at_return(self):
        cfg = small_cfg(K=2, rho_b=1.0, n_u=2)
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([8, 0]))
        prof = LatencyProfile.from_data(
            np.random.default_rng([8, 1]).uniform(5000, 8000, 2), cfg.W, cfg.T)
        qbar, st, _ = solve_multi_antenna(cfg, mu, prof,
                                          FrameworkConfig(beamformer="ccmo"),
                                          np.random.default_rng(0))
        for k in range(2):
            assert np.linalg.norm(qbar[k]) == pytest.approx(1.0, abs=1e-12)

    def test_no_irs_solver_with_multi_antenna_users(self):
        # the empty theta of a solve without the IRS must not meet H_irs
        cfg = small_cfg(K=2, rho_b=1.0, n_u=2)
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([8, 0]))
        prof = LatencyProfile.from_data(
            np.random.default_rng([8, 1]).uniform(5000, 8000, 2), cfg.W, cfg.T)
        qbar, st, _ = solve_multi_antenna(cfg, mu, prof, FrameworkConfig(beamformer="none"),
                                          np.random.default_rng(0))
        assert st.theta.size == 0
        direct = np.einsum("kmu,ku->km", mu.H_direct, qbar)
        np.testing.assert_allclose(st.h_eff, direct, rtol=1e-12)
        for k in range(2):
            assert np.linalg.norm(qbar[k]) == pytest.approx(1.0, abs=1e-12)

    def test_extra_antennas_do_not_hurt(self):
        cfg2 = small_cfg(K=2, rho_b=1.0, n_u=2)
        wins = total = 0
        for seed in range(20):
            mu = sample_multi_antenna_channels(cfg2, np.random.default_rng([seed, 0]))
            prof = LatencyProfile.from_data(
                np.random.default_rng([seed, 1]).uniform(5000, 8000, 2), cfg2.W, cfg2.T)
            try:
                _, st2, _ = solve_multi_antenna(cfg2, mu, prof,
                                                FrameworkConfig(beamformer="ccmo"),
                                                np.random.default_rng(0))
                # single-antenna reference: first column of the same draw
                first_col = np.zeros((2, 2), complex)
                first_col[:, 0] = 1.0
                ch1 = mu.reduce(first_col)
                st1, _ = solve(cfg2, ch1, prof, FrameworkConfig(beamformer="ccmo"),
                               np.random.default_rng(0))
            except InfeasibleError:
                continue
            total += 1
            wins += st2.p.sum() <= st1.p.sum() * (1 + 1e-9)
        assert total >= 15
        assert wins / total >= 0.9
