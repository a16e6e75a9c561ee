import numpy as np
import pytest

from irsuplink import (
    EffectiveCoeffs,
    FractionalObjective,
    SingularDenominatorError,
    run_admm,
    sinr,
)
from irsuplink.beamform_admm import AdmmState, admm_q_step, admm_theta_step
from irsuplink import SolverState, effective_channel, effective_coeffs
from conftest import crandn, mvdr_rows, random_channel_set, random_coeffs


def unit_phases(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def phase_grid(n, points=64):
    phases = np.linspace(0, 2 * np.pi, points, endpoint=False)
    mesh = np.meshgrid(*([phases] * n), indexing="ij")
    return np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))


class TestSumOfRatios:
    def test_single_user_interference_free(self, rng):
        coeffs = random_coeffs(rng, K=1, N=3)
        p, Tt, noise = np.ones(1), np.array([0.7]), 1.3
        theta = np.exp(1j * (np.angle(coeffs.b[0, 0]) + np.angle(coeffs.g[0, 0])))
        got = FractionalObjective(coeffs, p, Tt, noise).value(theta)
        b_val = abs(coeffs.b[0, 0] + np.vdot(coeffs.g[0, 0], theta)) ** 2
        assert got == pytest.approx(0.7 * 1.3 * coeffs.f_norm_sq[0] / b_val, rel=1e-12)

    def test_matches_protection_over_sinr(self, rng):
        for _ in range(10):
            K, M, N = 3, 6, 4
            ch = random_channel_set(rng, K, M, N)
            theta = unit_phases(rng, N)
            h_eff = effective_channel(ch, theta)
            p = rng.uniform(0.2, 2.0, K)
            F = mvdr_rows(p, h_eff, 0.9)
            Tt = rng.uniform(0.3, 1.2, K)
            st = SolverState(p=p, F=F, theta=theta, h_eff=h_eff)
            # each ratio is the one-step power update of user k, i.e. p_k T~_k / Gamma_k
            expect = sum(p[k] * Tt[k] / sinr(st, 0.9, k) for k in range(K))
            got = FractionalObjective(effective_coeffs(ch, F), p, Tt, 0.9).value(theta)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_singular_denominator_raises(self):
        coeffs = EffectiveCoeffs(b=np.zeros((1, 1), complex),
                                 g=np.zeros((1, 1, 2), complex),
                                 f_norm_sq=np.ones(1))
        with pytest.raises(SingularDenominatorError):
            FractionalObjective(coeffs, np.ones(1), np.ones(1), 1.0).value(np.ones(2, complex))


class TestBetaUpdate:
    def test_unit_beta_at_crafted_instance(self):
        # A = B = 1/sqrt(2)  ->  beta = 1/(2AB) = 1
        coeffs = EffectiveCoeffs(b=np.array([[2 ** -0.25 + 0j]]),
                                 g=np.zeros((1, 1, 3), complex),
                                 f_norm_sq=np.array([2 ** -0.5]))
        beta = FractionalObjective(coeffs, np.ones(1), np.ones(1), 1.0).optimal_beta(
            np.ones(3, complex))
        assert beta[0] == pytest.approx(1.0, rel=1e-12)

    def test_transform_exact_at_optimal_beta(self, rng):
        for _ in range(200):
            K = int(rng.integers(1, 4))
            obj = FractionalObjective(random_coeffs(rng, K, 4),
                                      rng.uniform(0.2, 2.0, K),
                                      rng.uniform(0.2, 1.5, K), 1.0)
            theta = unit_phases(rng, 4)
            beta = obj.optimal_beta(theta)
            assert obj.transformed(theta, beta) == pytest.approx(obj.value(theta), rel=1e-12)

    def test_perturbing_beta_increases_transform(self, rng):
        obj = FractionalObjective(random_coeffs(rng, 2, 3),
                                  rng.uniform(0.5, 1.5, 2), rng.uniform(0.3, 1.0, 2), 1.0)
        theta = unit_phases(rng, 3)
        beta = obj.optimal_beta(theta)
        base = obj.transformed(theta, beta)
        for k in range(2):
            for factor in (0.9, 1.1):
                tweaked = beta.copy()
                tweaked[k] *= factor
                assert obj.transformed(theta, tweaked) > base


class TestThetaStep:
    def test_pure_projection_when_ja_vanishes(self, rng):
        # zero protection ratios switch the quartic off entirely
        coeffs = random_coeffs(rng, 2, 4)
        obj = FractionalObjective(coeffs, np.ones(2), np.zeros(2), 1.0)
        q = 1.7 * crandn(rng, 4)
        st = AdmmState(theta=unit_phases(rng, 4), q=q, r=np.zeros(4, complex),
                       beta=np.ones(2), rho=1.0)
        out = admm_theta_step(st, obj)
        np.testing.assert_allclose(out, q / np.abs(q), atol=1e-8)

    def test_output_unit_modulus(self, rng):
        obj = FractionalObjective(random_coeffs(rng, 2, 5), rng.uniform(0.5, 2, 2),
                                  rng.uniform(0.3, 1, 2), 1.0)
        theta0 = unit_phases(rng, 5)
        st = AdmmState(theta=theta0, q=theta0.copy(), r=0.1 * crandn(rng, 5),
                       beta=obj.optimal_beta(theta0), rho=obj.value(theta0) / 5)
        out = admm_theta_step(st, obj)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_matches_phase_grid_on_small_instance(self):
        # moderately coupled quartic: relax-project lands within one grid cell
        rng = np.random.default_rng(99)
        K, N = 2, 2
        coeffs = EffectiveCoeffs(b=crandn(rng, K, K), g=0.4 * crandn(rng, K, K, N),
                                 f_norm_sq=rng.uniform(0.5, 2, K))
        obj = FractionalObjective(coeffs, rng.uniform(0.5, 2, K), rng.uniform(0.3, 1, K), 1.0)
        theta0 = unit_phases(rng, N)
        beta = obj.optimal_beta(theta0)
        st = AdmmState(theta=theta0.copy(), q=theta0.copy(), r=np.zeros(N, complex),
                       beta=beta, rho=obj.value(theta0) / N)
        out = admm_theta_step(st, obj, tol=1e-12, max_iter=2000)
        w = st.q - st.r
        grid = phase_grid(N)
        vals = np.array([obj._ja_value_grad(g, beta)[0]
                         + 0.5 * st.rho * np.linalg.norm(g - w) ** 2 for g in grid])
        best = grid[np.argmin(vals)]
        cell = 2 * np.pi / 64
        assert np.all(np.abs(np.angle(out * best.conj())) <= cell + 1e-9)


class TestQStep:
    def test_quadratic_minimum_without_jb(self, rng):
        obj = FractionalObjective(random_coeffs(rng, 2, 4), np.ones(2), np.ones(2), 1.0)
        theta = unit_phases(rng, 4)
        r = 0.3 * crandn(rng, 4)
        st = AdmmState(theta=theta, q=unit_phases(rng, 4), r=r,
                       beta=np.full(2, np.inf), rho=1.0)
        rep = admm_q_step(st, obj)
        np.testing.assert_allclose(rep.q, theta + r, atol=1e-10)

    def test_stationary_in_the_full_space(self):
        # the step works in span{g_kk}; the gradient over all 2N reals of q
        # vanishes at its result, so the reduction loses nothing
        worst = 0.0
        for K in (1, 2, 3):
            for N in (2, 4, 64):
                rng = np.random.default_rng([K, N])
                idx = np.arange(K)
                for _ in range(20):
                    obj = FractionalObjective(random_coeffs(rng, K, N), rng.uniform(0.5, 2, K),
                                              rng.uniform(0.3, 1, K), 1.0)
                    theta0 = unit_phases(rng, N)
                    st = AdmmState(theta=theta0, q=theta0.copy(), r=0.1 * crandn(rng, N),
                                   beta=obj.optimal_beta(theta0), rho=obj.value(theta0) / N)
                    rep = admm_q_step(st, obj)
                    g = obj.coeffs.g[idx, idx]
                    s = obj.coeffs.b[idx, idx] + g.conj() @ rep.q
                    # complex gradients 2 d/dq* of J_B and of the penalty
                    jb = -np.einsum("k,kn->n", s / (st.beta * np.abs(s) ** 6), g)
                    pen = st.rho * (rep.q - st.theta - st.r)
                    scale = max(np.linalg.norm(jb), np.linalg.norm(pen))
                    worst = max(worst, np.linalg.norm(jb + pen) / scale)
                    assert rep.converged
        assert worst <= 1e-6

    def test_single_user_closed_form_on_ill_scaled_step(self):
        # K = 1: s is a positive multiple of s0 = b + g^H a, and its modulus is
        # the root above |s0| of r^6 - |s0| r^5 - ||g||^2/(rho beta) = 0;
        # the scales are those of a criterion 9 draw at N = 64
        rng = np.random.default_rng(5)
        N, g_norm, rho, beta = 64, 0.1337, 3.48e-7, 2.24e4
        g = crandn(rng, N)
        g *= g_norm / np.linalg.norm(g)
        coeffs = EffectiveCoeffs(b=np.ones((1, 1), complex), g=g[None, None, :],
                                 f_norm_sq=np.ones(1))
        obj = FractionalObjective(coeffs, np.ones(1), np.ones(1), 1.0)
        zero = np.zeros(N, complex)
        st = AdmmState(theta=zero, q=zero, r=zero, beta=np.array([beta]), rho=rho)
        rep = admm_q_step(st, obj)
        s = 1.0 + np.vdot(g, rep.q)
        roots = np.roots([1.0, -1.0, 0, 0, 0, 0, -g_norm**2 / (rho * beta)])
        root = max(z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 1.0)
        assert root == pytest.approx(1.410598925598, rel=1e-12)
        assert abs(s) == pytest.approx(root, rel=1e-7)
        assert abs(np.angle(s)) < 1e-9

    def test_vanishing_denominator_at_warm_start_raises(self):
        # s_kk(q) = 0 at the warm start; run_admm never hands over such a
        # start, since objective.value(theta0) raises on it first
        coeffs = EffectiveCoeffs(b=np.zeros((1, 1), complex),
                                 g=np.ones((1, 1, 2), complex),
                                 f_norm_sq=np.ones(1))
        obj = FractionalObjective(coeffs, np.ones(1), np.ones(1), 1.0)
        st = AdmmState(theta=np.ones(2, complex), q=np.zeros(2, complex),
                       r=np.zeros(2, complex), beta=np.ones(1), rho=1.0)
        with pytest.raises(SingularDenominatorError):
            admm_q_step(st, obj)

    def test_matches_independent_local_search(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(20240810)
        K, N = 2, 2
        coeffs = random_coeffs(rng, K, N)
        obj = FractionalObjective(coeffs, rng.uniform(0.5, 2, K), rng.uniform(0.3, 1, K), 1.0)
        theta0 = unit_phases(rng, N)
        beta = obj.optimal_beta(theta0)
        st = AdmmState(theta=theta0, q=theta0.copy(), r=0.1 * crandn(rng, N),
                       beta=beta, rho=obj.value(theta0) / N)
        rep = admm_q_step(st, obj)

        anchor = st.theta + st.r
        idx = np.arange(K)

        def objective(x):
            q = x[:N] + 1j * x[N:]
            s = coeffs.b[idx, idx] + np.einsum("kn,n->k", coeffs.g[idx, idx].conj(), q)
            jb = float(np.sum(1.0 / (4 * beta * np.abs(s) ** 4)))
            return jb + 0.5 * st.rho * float(np.linalg.norm(q - anchor) ** 2)

        x0 = np.concatenate([st.q.real, st.q.imag])
        ref = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-13, maxiter=20000, maxfev=20000))
        got = objective(np.concatenate([rep.q.real, rep.q.imag]))
        assert got <= ref.fun + 1e-6 * max(1.0, abs(ref.fun))


class TestRunAdmm:
    def test_single_user_single_phase_alignment(self, rng):
        coeffs = random_coeffs(rng, 1, 1)
        obj = FractionalObjective(coeffs, np.ones(1), np.array([0.8]), 1.0)
        res = run_admm(obj, np.ones(1, complex))
        tstar = np.exp(1j * (np.angle(coeffs.b[0, 0]) + np.angle(coeffs.g[0, 0, 0])))
        assert abs(np.angle(res.theta[0] * np.conj(tstar))) < 5e-3
        assert res.value == pytest.approx(obj.value(np.array([tstar])), rel=1e-5)

    def test_consensus_residual_settles(self, rng):
        coeffs = random_coeffs(rng, 2, 4)
        obj = FractionalObjective(coeffs, rng.uniform(0.5, 2, 2), rng.uniform(0.3, 1, 2), 1.0)
        res = run_admm(obj, np.ones(4, complex))
        tail = res.consensus_residuals[-10:]
        assert len(tail) >= 1
        assert np.all(np.diff(tail) <= 1e-12)
        assert np.max(np.abs(np.abs(res.theta) - 1.0)) < 1e-12

    def test_never_worse_than_all_ones(self, rng):
        wins = 0
        for _ in range(100):
            K = int(rng.integers(1, 4))
            coeffs = random_coeffs(rng, K, 4)
            obj = FractionalObjective(coeffs, rng.uniform(0.2, 2, K),
                                      rng.uniform(0.2, 1.2, K), 1.0)
            theta0 = np.ones(4, complex)
            res = run_admm(obj, theta0, max_outer=3, max_inner=30, tol_consensus=1e-4)
            if res.value <= obj.value(theta0) * (1 + 1e-12):
                wins += 1
        assert wins >= 95

    def test_grid_floor_on_two_phase_instance(self):
        rng = np.random.default_rng(4)
        coeffs = random_coeffs(rng, 2, 2)
        obj = FractionalObjective(coeffs, rng.uniform(0.5, 2, 2), rng.uniform(0.3, 1, 2), 1.0)
        res = run_admm(obj, np.ones(2, complex))
        grid = phase_grid(2)
        grid_vals = np.array([obj.value(g) for g in grid])
        gmin = grid_vals.min()
        # tolerance: objective variation across the cells adjacent to the argmin
        arg = np.argmin(grid_vals)
        i, j = divmod(arg, 64)
        neighbors = [grid_vals[((i + di) % 64) * 64 + (j + dj) % 64]
                     for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        slack = max(neighbors) - gmin
        assert res.value <= gmin + slack + 1e-12
