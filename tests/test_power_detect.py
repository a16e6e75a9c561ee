import numpy as np
import pytest

from irsuplink import (
    DegenerateDetectorError,
    InfeasibleError,
    build_interference,
    mvdr_bank,
    solve_power_fixed_point,
    spectral_radius,
)
from conftest import crandn, feasible_power_instance, iterate_fixed_point


class TestBuildInterference:
    def test_single_user(self, rng):
        h = crandn(rng, 1, 4)
        f = crandn(rng, 1, 4)
        im = build_interference([0.3], f, h, noise_power=2.0)
        assert im.Q.shape == (1, 1) and im.Q[0, 0] == 0.0
        own = abs(np.vdot(f[0], h[0])) ** 2
        assert im.tau[0] == pytest.approx(2.0 * 0.3 * np.linalg.norm(f[0]) ** 2 / own)

    def test_orthogonal_detectors_kill_coupling(self):
        h = np.eye(3, dtype=complex)
        F = np.eye(3, dtype=complex)
        im = build_interference([0.5, 0.5, 0.5], F, h, 1.0)
        assert np.all(im.Q == 0.0)

    def test_matches_scalar_loop(self, rng):
        K, M = 3, 5
        h = crandn(rng, K, M)
        F = crandn(rng, K, M)
        Tt = rng.uniform(0.2, 1.0, K)
        noise = 0.7
        im = build_interference(Tt, F, h, noise)
        for i in range(K):
            own = abs(np.vdot(F[i], h[i])) ** 2
            for j in range(K):
                expect = 0.0 if i == j else Tt[i] * abs(np.vdot(F[i], h[j])) ** 2 / own
                assert im.Q[i, j] == pytest.approx(expect, rel=1e-12)
            assert im.tau[i] == pytest.approx(
                noise * Tt[i] * np.linalg.norm(F[i]) ** 2 / own, rel=1e-12)

    def test_degenerate_detector_raises(self, rng):
        h = np.array([[1.0 + 0j, 0.0]])
        F = np.array([[0.0, 1.0 + 0j]])  # orthogonal to the own channel
        with pytest.raises(DegenerateDetectorError):
            build_interference([0.5], F, h, 1.0)


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
        h_eff, F, Tt, noise = feasible_power_instance(rng)
        im = build_interference(Tt, F, h_eff, noise)
        assert spectral_radius(im.Q) < 1.0


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
            h_eff, F, Tt, noise = feasible_power_instance(rng)
            im = build_interference(Tt, F, h_eff, noise)
            rep = solve_power_fixed_point(im.Q, im.tau)
            direct = np.linalg.solve(np.eye(len(im.tau)) - im.Q, im.tau)
            np.testing.assert_allclose(rep.p, direct, rtol=1e-10)

    def test_start_point_does_not_matter(self, rng):
        h_eff, F, Tt, noise = feasible_power_instance(rng)
        im = build_interference(Tt, F, h_eff, noise)
        p_ref = solve_power_fixed_point(im.Q, im.tau).p
        for p0 in (np.zeros_like(im.tau), 10 * im.tau, rng.uniform(0, 5, im.tau.size)):
            p = iterate_fixed_point(im.Q, im.tau, p0)
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
        h_eff, F, Tt, noise = feasible_power_instance(rng)
        im = build_interference(Tt, F, h_eff, noise)
        # the update map preserves componentwise ordering from p = 0
        p = np.zeros_like(im.tau)
        for _ in range(200):
            p_next = im.Q @ p + im.tau
            assert np.all(p_next >= p - 1e-15)
            p = p_next
        np.testing.assert_allclose(p, solve_power_fixed_point(im.Q, im.tau).p, rtol=1e-8)

    def test_infeasible_instance_raises(self):
        q = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(InfeasibleError):
            solve_power_fixed_point(q, np.ones(2))


class TestMvdr:
    def test_single_user_matched_filter(self, rng):
        h = crandn(rng, 1, 6)
        f = mvdr_bank(np.ones(1), h, noise_power=0.37)[0]
        np.testing.assert_allclose(f, h[0] / np.linalg.norm(h[0]) ** 2, rtol=1e-12)
        assert abs(np.vdot(f, h[0]) - 1.0) < 1e-12

    def test_distortionless_on_random_instances(self, rng):
        for _ in range(30):
            h = crandn(rng, 3, 8)
            p = rng.uniform(0.1, 3.0, 3)
            F = mvdr_bank(p, h, 0.5)
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
            f = mvdr_bank(p, h, noise)[k]
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
            F = mvdr_bank(p, h, noise)
            for k in range(K):
                R_k = noise * np.eye(M, dtype=complex)
                for j in range(K):
                    if j != k:
                        R_k += p[j] * np.outer(h[j], h[j].conj())
                x = np.linalg.solve(R_k, h[k])
                np.testing.assert_allclose(F[k], x / np.vdot(h[k], x), rtol=1e-10)

    def test_requires_positive_noise(self, rng):
        with pytest.raises(ValueError):
            mvdr_bank(np.ones(1), crandn(rng, 1, 3), 0.0)


class TestJointUpdates:
    def test_power_tight_at_fixed_point(self, rng):
        # after the power solve, every user sits exactly at its target SINR
        from irsuplink import SolverState, sinr

        for _ in range(20):
            h_eff, F, Tt, noise = feasible_power_instance(rng)
            im = build_interference(Tt, F, h_eff, noise)
            p = solve_power_fixed_point(im.Q, im.tau).p
            st = SolverState(p=p, F=F, theta=np.zeros(0, complex), h_eff=h_eff)
            for k in range(len(p)):
                assert sinr(st, noise, k) == pytest.approx(Tt[k], rel=1e-8)

    def test_mvdr_update_never_raises_total_power(self, rng):
        for _ in range(20):
            h_eff, F, Tt, noise = feasible_power_instance(rng)
            im = build_interference(Tt, F, h_eff, noise)
            p_before = solve_power_fixed_point(im.Q, im.tau).p
            F2 = mvdr_bank(p_before, h_eff, noise)
            im2 = build_interference(Tt, F2, h_eff, noise)
            p_after = solve_power_fixed_point(im2.Q, im2.tau).p
            assert p_after.sum() <= p_before.sum() * (1 + 1e-10)
