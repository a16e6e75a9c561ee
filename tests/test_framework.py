import numpy as np
import pytest

from irsuplink import framework, power_detect
from irsuplink import (
    ExperimentSpec,
    FrameworkConfig,
    InfeasibleError,
    LatencyProfile,
    SystemConfig,
    latency,
    run_experiment,
    sample_channel_set,
    sample_multi_antenna_channels,
    sinr,
    solve,
    solve_multi_antenna,
)
from irsuplink.system import effective_channel


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


def counting(counts, key, fn):
    """fn, counting its calls in counts[key]."""
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


class TestOneGatePerQ:
    @pytest.mark.parametrize("solver", ["none", "fixed-random", "ccmo"])
    def test_only_the_fixed_point_gates(self, monkeypatch, solver):
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, prof = draw(cfg, 3)
        gate = power_detect.spectral_radius
        counts = {"direct": 0, "own": 0, "fixed_point": 0}

        # the fixed point looks its gate up in power_detect; a framework-level
        # gate would go through framework.spectral_radius
        monkeypatch.setattr(power_detect, "spectral_radius", counting(counts, "own", gate))
        monkeypatch.setattr(framework, "spectral_radius", counting(counts, "direct", gate),
                            raising=False)
        monkeypatch.setattr(power_detect, "solve_power_fixed_point",
                            counting(counts, "fixed_point", power_detect.solve_power_fixed_point))
        solve(cfg, ch, prof, FrameworkConfig(beamformer=solver), np.random.default_rng(0))
        assert counts["fixed_point"] > 0
        assert counts["direct"] == 0
        assert counts["own"] == 0  # the solve gates on its pivots, not on eigenvalues

    @pytest.mark.parametrize("solver", ["none", "fixed-random"])
    def test_one_power_solve_per_mvdr_update(self, monkeypatch, solver):
        # the initial candidate's solve at its matched filters (the MVDR bank
        # at zero power), then one per detector update: the loop carries p
        # over instead of solving the same (Q, tau) again
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, prof = draw(cfg, 3)
        counts = {"solve": 0, "mvdr": 0}
        monkeypatch.setattr(power_detect, "solve_power_fixed_point",
                            counting(counts, "solve", power_detect.solve_power_fixed_point))
        monkeypatch.setattr(framework, "mvdr_bank", counting(counts, "mvdr", framework.mvdr_bank))
        solve(cfg, ch, prof, FrameworkConfig(beamformer=solver), np.random.default_rng(0))
        assert counts["mvdr"] > 1
        assert counts["solve"] == counts["mvdr"]


class TestDegenerateIterate:
    def test_degenerate_power_step_is_an_infeasible_trial(self, monkeypatch):
        # the initial candidate's power solve runs, every later one meets a
        # degenerate detector
        real = power_detect.build_interference
        calls = []

        def build(*args):
            calls.append(1)
            if len(calls) > 1:
                raise power_detect.DegenerateDetectorError("detector 0 is zero")
            return real(*args)

        monkeypatch.setattr(power_detect, "build_interference", build)
        cfg = small_cfg(K=1, rho_b=0.0)
        ch, prof = draw(cfg, 11)
        with pytest.raises(InfeasibleError):
            solve(cfg, ch, prof, FrameworkConfig(beamformer="none"))
        calls.clear()
        spec = ExperimentSpec(name="degenerate", sweep_variable="N", grid=(8,), trials=1,
                              seed=5, solvers=("none",), base={"M": 8, "N_az": 4, "N_el": 2})
        (row,) = run_experiment(spec).rows
        assert not row.feasible


class TestGramLoop:
    @pytest.mark.parametrize("solver", ["none", "fixed-random"])
    def test_one_gram_per_effective_channel(self, monkeypatch, solver):
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, prof = draw(cfg, 3)
        counts = {"gram": 0, "channel": 0}
        monkeypatch.setattr(framework, "gram", counting(counts, "gram", framework.gram))
        monkeypatch.setattr(framework, "effective_channel",
                            counting(counts, "channel", framework.effective_channel))
        solve(cfg, ch, prof, FrameworkConfig(beamformer=solver), np.random.default_rng(0))
        assert counts["channel"] > 0
        assert counts["gram"] == counts["channel"]

    def test_no_irs_tries_its_one_candidate_once(self, monkeypatch):
        # without the IRS every phase candidate is the same empty vector, so an
        # infeasible start is decided by one gate
        cfg = small_cfg(K=2, rho_b=0.5)
        ch, _ = draw(cfg, 3)
        prof = LatencyProfile.from_data(np.full(2, cfg.W * cfg.T * np.log(1e6)), cfg.W, cfg.T)
        counts = {"channel": 0}
        monkeypatch.setattr(framework, "effective_channel",
                            counting(counts, "channel", framework.effective_channel))
        with pytest.raises(InfeasibleError):
            solve(cfg, ch, prof, FrameworkConfig(beamformer="none"))
        assert counts["channel"] == 1

    @pytest.mark.parametrize("solver", ["ccmo", "admm"])
    def test_candidate_faces_the_current_detectors(self, monkeypatch, solver):
        # a phase candidate is judged with the detectors F of the current
        # phases held fixed in M-space: its powers come from |f_i^H h_j(cand)|^2
        cfg = small_cfg(K=2, rho_b=1.0)
        ch, prof = draw(cfg, 3)
        events = []
        coeffs, candidate = framework.effective_coeffs, framework._beamformer_candidate
        power_solve = power_detect.solve_power_fixed_point

        def spy_coeffs(channels, F):
            events.append(("F", F))
            return coeffs(channels, F)

        def spy_candidate(*args):
            theta = candidate(*args)
            events.append(("theta", theta))
            return theta

        def spy_solve(Q, tau):
            try:
                p = power_solve(Q, tau).p
            except InfeasibleError:
                events.append(("p", None))
                raise
            events.append(("p", p))
            return power_detect.PowerSolveReport(p=p)

        monkeypatch.setattr(framework, "effective_coeffs", spy_coeffs)
        monkeypatch.setattr(framework, "_beamformer_candidate", spy_candidate)
        monkeypatch.setattr(power_detect, "solve_power_fixed_point", spy_solve)
        solve(cfg, ch, prof, FrameworkConfig(beamformer=solver), np.random.default_rng(0))

        checked = 0
        Tt, noise = prof.Ttilde, cfg.noise_power
        for e, (kind, theta) in enumerate(events):
            if kind != "theta":
                continue
            F = events[e - 1][1]
            base, trial = events[e + 1], events[e + 2]  # the current phases, then the candidate
            assert base[0] == trial[0] == "p"
            h_cand = effective_channel(ch, theta)
            cross = np.abs(F.conj() @ h_cand.T) ** 2  # M-space cross gains
            own = np.diag(cross)
            Q = Tt[:, None] * cross / own[:, None]
            np.fill_diagonal(Q, 0.0)
            tau = noise * Tt * np.sum(np.abs(F) ** 2, axis=1) / own
            expect = np.linalg.solve(np.eye(2) - Q, tau)
            assert trial[1] is not None
            np.testing.assert_allclose(trial[1], expect, rtol=1e-12)
            checked += 1
        assert checked > 0


class TestGolden:
    """Powers and AO-iteration counts of fixed draws, pinned at rtol 1e-12
    so that any change to the numbers of the solver path shows."""

    @pytest.mark.parametrize("K, solver, p, outer", [
        (1, "none", [1.2655531549498372e-05], 2),
        (1, "fixed-random", [1.2769583513169645e-05], 2),
        (1, "ccmo", [1.1667177627192986e-05], 7),
        (1, "admm", [1.1667316734828502e-05], 20),
        (2, "none", [3.0162633276329626e-06, 0.00011563618412500794], 2),
        (2, "fixed-random", [3.0097960584343948e-06, 4.036432486556494e-05], 2),
        (2, "ccmo", [3.000844273154635e-06, 5.647228206427589e-06], 7),
        (2, "admm", [3.000869710572851e-06, 5.647232734205459e-06], 15),
    ])
    def test_solve(self, K, solver, p, outer):
        cfg = small_cfg(K=K, rho_b=1.0)
        ch, prof = draw(cfg, 3)
        st, tr = solve(cfg, ch, prof, FrameworkConfig(beamformer=solver),
                       np.random.default_rng(0))
        np.testing.assert_allclose(st.p, p, rtol=1e-12)
        assert tr.outer_iterations == outer
        assert len(tr.sum_power) == tr.outer_iterations

    def test_solve_multi_antenna(self):
        cfg = small_cfg(K=2, rho_b=1.0, n_u=2)
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([8, 0]))
        prof = LatencyProfile.from_data(
            np.random.default_rng([8, 1]).uniform(5000, 8000, 2), cfg.W, cfg.T)
        _, st, tr = solve_multi_antenna(cfg, mu, prof, FrameworkConfig(beamformer="fixed-random"),
                                        np.random.default_rng(0))
        np.testing.assert_allclose(st.p, [0.00017885087594763039, 8.377591481310808e-07],
                                   rtol=1e-12)
        assert tr.outer_iterations == 2


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

    def test_fixed_random_holds_phases_across_rounds(self, monkeypatch):
        # a transmit-beamformer candidate should be judged under the phases it
        # was computed for; this draw runs at least one transmit round
        cfg = small_cfg(K=2, rho_b=1.0, n_u=2)
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([0, 0]))
        prof = LatencyProfile.from_data(
            np.random.default_rng([0, 1]).uniform(5000, 8000, 2), cfg.W, cfg.T)
        thetas = []
        inner = framework.solve

        def spy(*args, **kwargs):
            st, tr = inner(*args, **kwargs)
            thetas.append(st.theta)
            return st, tr

        monkeypatch.setattr(framework, "solve", spy)
        solve_multi_antenna(cfg, mu, prof, FrameworkConfig(beamformer="fixed-random"),
                            np.random.default_rng(0))
        assert len(thetas) >= 2
        for theta in thetas[1:]:
            np.testing.assert_array_equal(theta, thetas[0])

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
