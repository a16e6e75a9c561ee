import numpy as np
import pytest

from irsuplink import (
    EffectiveCoeffs,
    QuadraticForm,
    RetractionSingularityError,
    assemble_quadratic,
    largest_eigen_magnitude,
    optimize_phases,
    retract,
    riemannian_gradient,
    run_ccmo,
)
from irsuplink import experiments, framework
from irsuplink.beamform_ccmo import aligned_phases
from conftest import crandn, dense_residual_matrix, random_coeffs, residual_sums


def unit_phases(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def residual_sum(coeffs, p, Tt, noise, theta, k=None):
    """Direct evaluation of the per-user SINR slacks (all users, or just k)."""
    K = len(p)
    users = range(K) if k is None else [k]
    total = 0.0
    for i in users:
        s_ii = coeffs.b[i, i] + np.vdot(coeffs.g[i, i], theta)
        own = p[i] * abs(s_ii) ** 2
        interf = 0.0
        for j in range(K):
            if j != i:
                s_ij = coeffs.b[i, j] + np.vdot(coeffs.g[i, j], theta)
                interf += p[j] * abs(s_ij) ** 2
        total += own - Tt[i] * (interf + noise * coeffs.f_norm_sq[i])
    return total


def random_form(rng, K=2, N=3):
    coeffs = random_coeffs(rng, K, N)
    p = rng.uniform(0.3, 2.0, K)
    Tt = rng.uniform(0.2, 1.0, K)
    return assemble_quadratic(coeffs, p, Tt, 1.0), (coeffs, p, Tt)


class TestAssembleQuadratic:
    def test_single_user_rank_one_psd(self, rng):
        # U = 1.3 g g^H: one pair term, nonnegative weight, eigenvalue 1.3 ||g||^2
        coeffs = random_coeffs(rng, 1, 4)
        form = assemble_quadratic(coeffs, np.array([1.3]), np.array([0.5]), 1.0)
        g = coeffs.g[0, 0]
        np.testing.assert_array_equal(form.g, g[None, :])
        np.testing.assert_array_equal(form.w, [1.3])
        assert largest_eigen_magnitude(form) == pytest.approx(1.3 * np.vdot(g, g).real,
                                                              rel=1e-12)

    def test_hermitian(self, rng):
        # the factored form is the Hermitian quadratic theta^H U theta + 2 Re theta^H v
        for _ in range(10):
            form, (coeffs, p, Tt) = random_form(rng, K=3, N=5)
            U = dense_residual_matrix(coeffs, p, Tt)
            assert np.max(np.abs(U - U.conj().T)) < 1e-12
            v = np.einsum("i,i,in->n", form.w, form.b, form.g)
            theta = unit_phases(rng, 5)
            expect = np.vdot(theta, U @ theta).real + 2 * np.vdot(theta, v).real
            assert form.descent_value(theta) == pytest.approx(-expect, rel=1e-12)
            egrad = -2 * (U @ theta + v)
            np.testing.assert_allclose(riemannian_gradient(theta, form),
                                       egrad - np.real(egrad.conj() * theta) * theta,
                                       rtol=1e-12, atol=1e-12)

    def test_value_matches_direct_residual_sum(self, rng):
        for _ in range(20):
            K, N = int(rng.integers(1, 4)), 4
            coeffs = random_coeffs(rng, K, N)
            p = rng.uniform(0.3, 2.0, K)
            Tt = rng.uniform(0.2, 1.0, K)
            form = assemble_quadratic(coeffs, p, Tt, 1.0)
            theta = unit_phases(rng, N)
            expect = residual_sum(coeffs, p, Tt, 1.0, theta)
            assert form.value(theta) == pytest.approx(expect, rel=1e-10, abs=1e-10)


class TestRiemannianGradient:
    def test_radial_field_projects_to_zero(self, rng):
        n = 5
        form = QuadraticForm(g=np.eye(n, dtype=complex), b=np.zeros(n, complex),
                             w=np.ones(n), C=0.0)  # U = I
        theta = unit_phases(rng, n)
        assert np.max(np.abs(riemannian_gradient(theta, form))) < 1e-12

    def test_tangency(self, rng):
        for _ in range(20):
            form, _ = random_form(rng, K=2, N=4)
            theta = unit_phases(rng, 4)
            g = riemannian_gradient(theta, form)
            assert np.max(np.abs(np.real(g.conj() * theta))) < 1e-12

    def test_matches_finite_differences_along_tangents(self, rng):
        h = 1e-6
        for _ in range(10):
            form, _ = random_form(rng, K=2, N=4)
            theta = unit_phases(rng, 4)
            g = riemannian_gradient(theta, form)
            # random tangent direction: eta = j * real_coeffs * theta
            eta = 1j * rng.standard_normal(4) * theta
            fd = (form.descent_value(theta + h * eta) - form.descent_value(theta - h * eta)) / (2 * h)
            analytic = float(np.real(np.vdot(g, eta)))
            assert fd == pytest.approx(analytic, rel=1e-6)


class TestRetract:
    def test_zero_step_identity(self, rng):
        theta = unit_phases(rng, 6)
        np.testing.assert_allclose(retract(theta, np.zeros(6, complex)), theta, atol=1e-15)

    def test_unit_modulus(self, rng):
        theta = unit_phases(rng, 6)
        step = 0.7 * crandn(rng, 6)
        out = retract(theta, step)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_first_order_consistency(self, rng):
        form, _ = random_form(rng, K=2, N=5)
        theta = unit_phases(rng, 5)
        g = riemannian_gradient(theta, form)
        g = g / np.linalg.norm(g)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            errs.append(np.linalg.norm(retract(theta, eps * g) - (theta + eps * g)))
        # error ~ C eps^2: each decade of eps drops the error by ~100x
        assert errs[1] == pytest.approx(errs[0] * 1e-2, rel=0.2)
        assert errs[2] == pytest.approx(errs[1] * 1e-2, rel=0.2)

    def test_singularity_raises(self):
        with pytest.raises(RetractionSingularityError):
            retract(np.array([1.0 + 0j]), np.array([-1.0 + 0j]))


def assert_exact_step_bound(form, coeffs, p, Tt):
    U = dense_residual_matrix(coeffs, p, Tt)
    expect = np.max(np.abs(np.linalg.eigvalsh(U)))
    assert largest_eigen_magnitude(form) == pytest.approx(expect, rel=1e-10)


class TestEigenMagnitude:
    def test_zero_matrix(self):
        coeffs = EffectiveCoeffs(b=np.zeros((2, 2), complex), g=np.zeros((2, 2, 5), complex),
                                 f_norm_sq=np.ones(2))
        form = assemble_quadratic(coeffs, np.ones(2), np.full(2, 0.5), 1.0)
        assert largest_eigen_magnitude(form) == 0.0

    def test_matches_eigh_on_indefinite(self, rng):
        # at K >= 2 U is indefinite; N < K^2 leaves the r x r matrix singular
        for K, N in [(1, 1), (1, 6), (2, 3), (2, 12), (3, 5), (3, 20)]:
            for _ in range(5):
                form, (coeffs, p, Tt) = random_form(rng, K=K, N=N)
                assert_exact_step_bound(form, coeffs, p, Tt)

    def test_every_form_of_a_two_user_solve_at_n1024(self, monkeypatch):
        # draw [2024, 1, 0] of the fig9 geometry: a 200-step power iteration
        # on its first U misses max|eig(U)| by 1.4e-3
        checked = []

        def checking(coeffs, p, Tt, noise):
            form = assemble_quadratic(coeffs, p, Tt, noise)
            assert_exact_step_bound(form, coeffs, np.asarray(p), np.asarray(Tt))
            checked.append(form)
            return form

        monkeypatch.setattr(framework, "assemble_quadratic", checking)
        cfg, d_spec = experiments._build_config({"K": 2, "rho_b": 1.0}, "N", 1024)
        result = experiments._run_trial(cfg, d_spec, "ccmo", "N", 1024, 2024, 1)
        assert result.feasible and len(checked) >= 1


class TestRunCcmo:
    def test_scalar_phase_alignment(self, rng):
        coeffs = random_coeffs(rng, 1, 1)
        form = assemble_quadratic(coeffs, np.ones(1), np.array([0.5]), 1.0)
        res = run_ccmo(form, np.ones(1, complex))
        tstar = np.exp(1j * (np.angle(coeffs.b[0, 0]) + np.angle(coeffs.g[0, 0, 0])))
        assert form.value(res.theta) == pytest.approx(form.value(np.array([tstar])), rel=1e-8)

    def test_descent_and_manifold_invariants(self, rng):
        for _ in range(10):
            form, _ = random_form(rng, K=2, N=6)
            res = run_ccmo(form, unit_phases(rng, 6))
            trace = np.asarray(res.trace)
            assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
            assert np.max(np.abs(np.abs(res.theta) - 1.0)) < 1e-12

    def test_grid_quality_three_phases(self, rng):
        phases = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        mesh = np.meshgrid(phases, phases, phases, indexing="ij")
        grid = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        for _ in range(5):
            form, (coeffs, p, Tt) = random_form(rng, K=2, N=3)
            vals = residual_sums(coeffs, p, Tt, 1.0, grid)
            fresh = np.random.default_rng(5)
            starts = [np.ones(3, complex)] + [np.exp(1j * fresh.uniform(0.0, 2.0 * np.pi, 3))
                                              for _ in range(3)]
            res = optimize_phases(form, starts)
            lo, hi = vals.min(), vals.max()
            assert hi > lo
            assert (form.value(res.theta) - lo) / (hi - lo) >= 0.95

    def test_p5_p6_selects_same_argmax_on_grid(self, rng):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        mesh = np.meshgrid(phases, phases, indexing="ij")
        grid = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        form, (coeffs, p, Tt) = random_form(rng, K=2, N=2)
        f0 = residual_sums(coeffs, p, Tt, 1.0, grid)
        f_desc = np.array([form.descent_value(g) for g in grid])
        assert np.argmax(f0) == np.argmin(f_desc)


class TestAlignedPhases:
    def test_single_user_optimum(self, rng):
        # at K = 1 aligning every reflected term with b_11 attains
        # p (|b_11| + sum_n |g_11,n|)^2 less the noise term, the largest modulus
        for _ in range(10):
            coeffs = random_coeffs(rng, 1, 8)
            p, Tt = rng.uniform(0.3, 2.0, 1), rng.uniform(0.2, 1.0, 1)
            form = assemble_quadratic(coeffs, p, Tt, 1.0)
            best = form.value(aligned_phases(coeffs))
            reach = abs(coeffs.b[0, 0]) + np.sum(np.abs(coeffs.g[0, 0]))
            expect = p[0] * reach ** 2 - Tt[0] * coeffs.f_norm_sq[0]
            assert best == pytest.approx(expect, rel=1e-12)
            others = [form.value(unit_phases(rng, 8)) for _ in range(200)]
            assert max(others) <= best


class TestResidualFeasibilityLink:
    def test_nonnegative_slacks_iff_targets_met(self, rng):
        # the summed quadratic splits into per-user slacks; each is >= 0
        # exactly when that user's SINR clears its protection ratio
        from irsuplink import SolverState, effective_channel, effective_coeffs, sinr
        from conftest import mvdr_rows, random_channel_set

        hits = {True: 0, False: 0}
        for _ in range(40):
            K, M, N = 2, 4, 3
            ch = random_channel_set(rng, K, M, N)
            theta = unit_phases(rng, N)
            h_eff = effective_channel(ch, theta)
            p = rng.uniform(0.05, 2.0, K)
            F = mvdr_rows(p, h_eff, 1.0)
            coeffs = effective_coeffs(ch, F)
            Tt = rng.uniform(0.2, 2.0, K)
            st = SolverState(p=p, F=F, theta=theta, h_eff=h_eff)
            for k in range(K):
                slack = residual_sum(coeffs, p, Tt, 1.0, theta, k)
                meets = sinr(st, 1.0, k) >= Tt[k]
                assert (slack >= 0) == meets
                hits[meets] += 1
        assert hits[True] > 0 and hits[False] > 0
