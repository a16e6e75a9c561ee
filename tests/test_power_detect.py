import numpy as np
import pytest

from irsuplink import (
    DegenerateDetectorError,
    InfeasibleError,
    build_interference,
    detectors,
    gram,
    mvdr_bank,
    solve_power_fixed_point,
    spectral_radius,
)
from irsuplink.power_detect import power_step
from conftest import crandn, feasible_power_instance, iterate_fixed_point, mvdr_rows


class TestBuildInterference:
    def test_single_user(self, rng):
        h = crandn(rng, 1, 4)
        c = crandn(rng, 1, 1)
        f = c @ h
        Q, tau = build_interference([0.3], c, gram(h), noise_power=2.0)
        assert np.shape(Q) == (1, 1) and Q[0][0] == 0.0
        own = abs(np.vdot(f[0], h[0])) ** 2
        assert tau[0] == pytest.approx(2.0 * 0.3 * np.linalg.norm(f[0]) ** 2 / own)

    def test_orthogonal_detectors_kill_coupling(self):
        h = np.eye(3, dtype=complex)
        C = np.eye(3, dtype=complex)  # F = C h = h
        Q, _ = build_interference([0.5, 0.5, 0.5], C, gram(h), 1.0)
        assert np.all(np.asarray(Q) == 0.0)

    def test_matches_scalar_loop(self, rng):
        K, M = 3, 5
        h = crandn(rng, K, M)
        C = crandn(rng, K, K)  # detectors lie in the channels' row space
        F = C @ h
        Tt = rng.uniform(0.2, 1.0, K)
        noise = 0.7
        Q, tau = build_interference(Tt, C, gram(h), noise)
        for i in range(K):
            own = abs(np.vdot(F[i], h[i])) ** 2
            for j in range(K):
                expect = 0.0 if i == j else Tt[i] * abs(np.vdot(F[i], h[j])) ** 2 / own
                assert Q[i][j] == pytest.approx(expect, rel=1e-12)
            assert tau[i] == pytest.approx(
                noise * Tt[i] * np.linalg.norm(F[i]) ** 2 / own, rel=1e-12)

    def test_degenerate_detector_raises(self, rng):
        h = np.eye(2, dtype=complex)
        C = np.array([[0.0, 1.0], [1.0, 0.0]])  # f_0 = h_1, orthogonal to the own channel
        with pytest.raises(DegenerateDetectorError):
            build_interference([0.5, 0.5], C, gram(h), 1.0)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_symmetric_pair(self):
        q = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert spectral_radius(q) == pytest.approx(0.5, abs=1e-8)

    def test_matches_eig_on_random_nonnegative(self, rng):
        for _ in range(20):
            q = rng.uniform(0, 1, (4, 4))
            np.fill_diagonal(q, 0.0)
            expect = max(abs(np.linalg.eigvals(q)))
            assert spectral_radius(q) == pytest.approx(expect, rel=1e-6)

    def test_asymmetric_pair(self):
        # power iteration from the ones vector returns (a + b) / 2 = 1.0 here
        q = np.array([[0.0, 1.5], [0.5, 0.0]])
        assert spectral_radius(q) == pytest.approx(np.sqrt(0.75))

    def test_below_one_after_mvdr(self, rng):
        h_eff, C, Tt, noise = feasible_power_instance(rng)
        Q, _ = build_interference(Tt, C, gram(h_eff), noise)
        assert spectral_radius(Q) < 1.0


class TestFixedPoint:
    def test_zero_coupling_converges_in_one_step(self):
        tau = np.array([1.0, 2.0, 3.0])
        rep = solve_power_fixed_point(np.zeros((3, 3)), tau)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_array_equal(rep.p, tau)

    def test_hand_solved_two_user_system(self):
        q = np.array([[0.0, 0.5], [0.5, 0.0]])
        rep = solve_power_fixed_point(q, np.array([1.0, 1.0]))
        # (I - Q) p = tau  =>  p = [2, 2]
        np.testing.assert_allclose(rep.p, [2.0, 2.0], rtol=1e-10)

    def test_matches_direct_linear_solve(self, rng):
        for _ in range(25):
            h_eff, C, Tt, noise = feasible_power_instance(rng)
            Q, tau = build_interference(Tt, C, gram(h_eff), noise)
            rep = solve_power_fixed_point(Q, tau)
            direct = np.linalg.solve(np.eye(len(tau)) - Q, tau)
            np.testing.assert_allclose(rep.p, direct, rtol=1e-10)

    def test_start_point_does_not_matter(self, rng):
        h_eff, C, Tt, noise = feasible_power_instance(rng)
        Q, tau = map(np.asarray, build_interference(Tt, C, gram(h_eff), noise))
        p_ref = solve_power_fixed_point(Q, tau).p
        for p0 in (np.zeros_like(tau), 10 * tau, rng.uniform(0, 5, tau.size)):
            p = iterate_fixed_point(Q, tau, p0)
            np.testing.assert_allclose(p, p_ref, rtol=1e-8)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_exact_just_below_unit_radius(self, gap):
        # rho(Q) = sqrt(ab) = 1 - gap: feasible, however slowly p <- Q p + tau converges
        a = 2.0
        b = (1.0 - gap) ** 2 / a
        tau = np.array([1.0, 2.0])
        p = solve_power_fixed_point(np.array([[0.0, a], [b, 0.0]]), tau).p
        expect = np.array([tau[0] + a * tau[1], tau[1] + b * tau[0]]) / (1.0 - a * b)
        np.testing.assert_allclose(p, expect, rtol=1e-9)

    @pytest.mark.parametrize("excess", [1e-3, 1e-6])
    def test_infeasible_just_above_unit_radius(self, excess):
        # rho(Q) = sqrt(ab) = 1 + excess
        a = 2.0
        b = (1.0 + excess) ** 2 / a
        with pytest.raises(InfeasibleError):
            solve_power_fixed_point(np.array([[0.0, a], [b, 0.0]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("rho", [0.5, 1 - 1e-9, 1 + 1e-9, 2.0])
    @pytest.mark.parametrize("K", [3, 4])
    def test_gate_agrees_with_spectral_radius(self, rng, K, rho):
        for draw in range(10):
            q = rng.uniform(0, 1, (K, K))
            np.fill_diagonal(q, 0.0)
            q *= rho / spectral_radius(q)
            tau = rng.uniform(0.1, 1.0, K)
            if draw == 0:
                tau[-1] = 0.0
            if spectral_radius(q) >= 1.0:
                with pytest.raises(InfeasibleError):
                    solve_power_fixed_point(q, tau)
            else:
                # (I - Q)^{-1} >= 0 for a nonsingular M-matrix
                assert np.all(solve_power_fixed_point(q, tau).p >= 0.0)

    def test_monotone_from_zero(self, rng):
        h_eff, C, Tt, noise = feasible_power_instance(rng)
        Q, tau = map(np.asarray, build_interference(Tt, C, gram(h_eff), noise))
        # the update map preserves componentwise ordering from p = 0
        p = np.zeros_like(tau)
        for _ in range(200):
            p_next = Q @ p + tau
            assert np.all(p_next >= p - 1e-15)
            p = p_next
        np.testing.assert_allclose(p, solve_power_fixed_point(Q, tau).p, rtol=1e-8)

    def test_infeasible_instance_raises(self):
        q = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(InfeasibleError):
            solve_power_fixed_point(q, np.ones(2))


class TestMvdr:
    def test_single_user_matched_filter(self, rng):
        h = crandn(rng, 1, 6)
        f = mvdr_rows(np.ones(1), h, noise=0.37)[0]
        np.testing.assert_allclose(f, h[0] / np.linalg.norm(h[0]) ** 2, rtol=1e-12)
        assert abs(np.vdot(f, h[0]) - 1.0) < 1e-12

    def test_distortionless_on_random_instances(self, rng):
        for _ in range(30):
            h = crandn(rng, 3, 8)
            p = rng.uniform(0.1, 3.0, 3)
            F = mvdr_rows(p, h, 0.5)
            for k in range(3):
                assert abs(np.vdot(F[k], h[k]) - 1.0) < 1e-12

    def test_beats_random_distortionless_perturbations(self, rng):
        K, M, noise = 3, 8, 0.5
        h = crandn(rng, K, M)
        p = rng.uniform(0.1, 3.0, K)
        for k in range(K):
            R = noise * np.eye(M, dtype=complex)
            for j in range(K):
                if j != k:
                    R += p[j] * np.outer(h[j], h[j].conj())
            f = mvdr_rows(p, h, noise)[k]
            base = np.vdot(f, R @ f).real
            for _ in range(100):
                g = f + 0.3 * crandn(rng, M)
                g = g / np.conj(np.vdot(g, h[k]))  # restore f^H h = 1
                assert np.vdot(g, R @ g).real >= base - 1e-12 * base

    @pytest.mark.parametrize("K, M", [(3, 8), (2, 4), (3, 2)])
    def test_bank_matches_per_user_covariance_solves(self, rng, K, M):
        # M < K, as in a transmit-beamformer step with fewer antennas than users,
        # makes the Gram matrix singular
        noise = 0.5
        for draw in range(10):
            h = crandn(rng, K, M)
            p = rng.uniform(0.1, 3.0, K)
            if draw == 0:
                p[0] = 0.0
            F = mvdr_rows(p, h, noise)
            for k in range(K):
                R_k = noise * np.eye(M, dtype=complex)
                for j in range(K):
                    if j != k:
                        R_k += p[j] * np.outer(h[j], h[j].conj())
                x = np.linalg.solve(R_k, h[k])
                np.testing.assert_allclose(F[k], x / np.vdot(h[k], x), rtol=1e-10)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_near_collinear_users(self, rng, eps):
        # h_2 = e^j h_1 + eps n makes the Gram matrix nearly singular; rows
        # normalized in Gram form miss f^H h = 1 by up to 8e-12 here
        M, noise = 32, 0.01
        for _ in range(20):
            h1 = crandn(rng, M)
            h = np.array([h1, np.exp(1j) * h1 + eps * crandn(rng, M)])
            p = rng.uniform(0.1, 3.0, 2)
            F = mvdr_rows(p, h, noise)
            ref = np.empty_like(F)
            for k in range(2):
                R_k = noise * np.eye(M) + p[1 - k] * np.outer(h[1 - k], h[1 - k].conj())
                x = np.linalg.solve(R_k, h[k])
                ref[k] = x / np.vdot(h[k], x)
            assert np.max(np.abs(F - ref)) <= 1e-10 * np.max(np.abs(ref))
            for k in range(2):
                assert abs(np.vdot(F[k], h[k]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_zero_power_bank_is_the_matched_filter(self, rng, K):
        h = crandn(rng, K, 6)
        F = detectors(mvdr_bank([0.0] * K, gram(h), 0.37), h)
        expect = h / np.sum(np.abs(h) ** 2, axis=1)[:, None]
        np.testing.assert_allclose(F, expect, rtol=1e-12)

    def test_requires_positive_noise(self, rng):
        with pytest.raises(ValueError):
            mvdr_bank(np.ones(1), gram(crandn(rng, 1, 3)), 0.0)


class TestPowerStep:
    def test_exact_solve_when_feasible(self, rng):
        h_eff, C, Tt, noise = feasible_power_instance(rng)
        A = gram(h_eff)
        expect = solve_power_fixed_point(*build_interference(Tt, C, A, noise)).p
        np.testing.assert_array_equal(power_step(Tt, C, A, noise), expect)

    def test_infeasible_targets_give_none(self, rng):
        h_eff, C, Tt, noise = feasible_power_instance(rng)
        assert power_step(1e6 * Tt, C, gram(h_eff), noise) is None

    @pytest.mark.parametrize("K", [1, 2])
    def test_zero_channel_gives_none(self, rng, K):
        # the matched filter of a zero channel is zero: a degenerate detector
        h = crandn(rng, K, 4)
        h[-1] = 0.0
        A = gram(h)
        C = mvdr_bank([0.0] * K, A, 0.5)
        with pytest.raises(DegenerateDetectorError):
            build_interference([0.5] * K, C, A, 0.5)
        assert power_step([0.5] * K, C, A, 0.5) is None


class TestJointUpdates:
    def test_power_tight_at_fixed_point(self, rng):
        # after the power solve, every user sits exactly at its target SINR
        from irsuplink import SolverState, sinr

        for _ in range(20):
            h_eff, C, Tt, noise = feasible_power_instance(rng)
            p = solve_power_fixed_point(*build_interference(Tt, C, gram(h_eff), noise)).p
            st = SolverState(p=p, F=detectors(C, h_eff), theta=np.zeros(0, complex), h_eff=h_eff)
            for k in range(len(p)):
                assert sinr(st, noise, k) == pytest.approx(Tt[k], rel=1e-8)

    def test_mvdr_update_never_raises_total_power(self, rng):
        for _ in range(20):
            h_eff, C, Tt, noise = feasible_power_instance(rng)
            A = gram(h_eff)
            p_before = solve_power_fixed_point(*build_interference(Tt, C, A, noise)).p
            C2 = mvdr_bank(p_before, A, noise)
            p_after = solve_power_fixed_point(*build_interference(Tt, C2, A, noise)).p
            assert p_after.sum() <= p_before.sum() * (1 + 1e-10)
