import numpy as np
import pytest

from irsuplink import (
    QuadraticForm,
    RetractionSingularityError,
    assemble_quadratic,
    largest_eigen_magnitude,
    optimize_phases,
    retract,
    riemannian_gradient,
    run_ccmo,
)
from conftest import crandn, random_coeffs


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
        coeffs = random_coeffs(rng, 1, 4)
        form = assemble_quadratic(coeffs, np.array([1.3]), np.array([0.5]), 1.0)
        g = coeffs.g[0, 0]
        np.testing.assert_allclose(form.U, 1.3 * np.outer(g, g.conj()), atol=1e-12)
        evals = np.linalg.eigvalsh(form.U)
        assert evals.min() >= -1e-12

    def test_hermitian(self, rng):
        form, _ = random_form(rng, K=3, N=5)
        assert np.max(np.abs(form.U - form.U.conj().T)) < 1e-12

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
        form = QuadraticForm(U=np.eye(n, dtype=complex), v=np.zeros(n, complex), C=0.0)
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


class TestEigenMagnitude:
    def test_zero_matrix(self):
        assert largest_eigen_magnitude(np.zeros((3, 3), complex)) == 0.0

    def test_matches_eigh_on_indefinite(self, rng):
        for _ in range(15):
            A = crandn(rng, 5, 5)
            U = A + A.conj().T  # Hermitian, generally indefinite
            expect = np.max(np.abs(np.linalg.eigvalsh(U)))
            assert largest_eigen_magnitude(U) == pytest.approx(expect, rel=1e-6)


class TestRunCcmo:
    def test_scalar_phase_alignment(self, rng):
        coeffs = random_coeffs(rng, 1, 1)
        form = assemble_quadratic(coeffs, np.ones(1), np.array([0.5]), 1.0)
        res = run_ccmo(form, np.ones(1, complex))
        tstar = np.exp(1j * (np.angle(coeffs.b[0, 0]) + np.angle(coeffs.g[0, 0, 0])))
        assert res.residual_value == pytest.approx(form.value(np.array([tstar])), rel=1e-8)

    def test_descent_and_manifold_invariants(self, rng):
        for _ in range(10):
            form, _ = random_form(rng, K=2, N=6)
            res = run_ccmo(form, unit_phases(rng, 6))
            trace = np.asarray(res.trace)
            assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
            assert np.max(np.abs(np.abs(res.theta) - 1.0)) < 1e-12

    def test_respects_user_step_cap(self, rng):
        form, _ = random_form(rng, K=2, N=4)
        res = run_ccmo(form, unit_phases(rng, 4), step_size=1e-9, max_iter=5)
        assert res.iterations <= 5 and not np.any(np.isnan(res.theta))

    def test_grid_quality_three_phases(self, rng):
        phases = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        mesh = np.meshgrid(phases, phases, phases, indexing="ij")
        grid = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        for _ in range(5):
            form, _ = random_form(rng, K=2, N=3)
            quad = np.einsum("in,nm,im->i", grid.conj(), form.U, grid).real
            lin = 2 * np.einsum("in,n->i", grid.conj(), form.v).real
            vals = quad + lin + form.C
            res = optimize_phases(form, np.ones(3, complex), restarts=3,
                                  rng=np.random.default_rng(5))
            lo, hi = vals.min(), vals.max()
            assert hi > lo
            assert (res.residual_value - lo) / (hi - lo) >= 0.95

    def test_p5_p6_selects_same_argmax_on_grid(self, rng):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        mesh = np.meshgrid(phases, phases, indexing="ij")
        grid = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        form, _ = random_form(rng, K=2, N=2)
        f0 = np.einsum("in,nm,im->i", grid.conj(), form.U, grid).real \
            + 2 * np.einsum("in,n->i", grid.conj(), form.v).real + form.C
        f_desc = np.array([form.descent_value(g) for g in grid])
        assert np.argmax(f0) == np.argmin(f_desc)


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
