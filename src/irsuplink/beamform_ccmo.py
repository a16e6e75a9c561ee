"""Latency-residual maximization by gradient descent on the product of
complex circles.

The per-user SINR slacks are quadratic in the phase vector, so their sum
is theta^H U theta + 2 Re(theta^H v) + C with U Hermitian. Maximizing it
over unit-modulus coordinates is equivalent to minimizing
f(theta) = -theta^H U theta - 2 Re(theta^H v) on the manifold
{|theta_n| = 1}. Descent steps project the Euclidean gradient onto the
tangent space and retract coordinatewise, with the step size capped by
the inverse largest eigenvalue magnitude of U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import EffectiveCoeffs

__all__ = [
    "RetractionSingularityError",
    "QuadraticForm",
    "CcmoResult",
    "assemble_quadratic",
    "riemannian_gradient",
    "retract",
    "largest_eigen_magnitude",
    "run_ccmo",
    "optimize_phases",
    "aligned_phases",
]


class RetractionSingularityError(ArithmeticError):
    """A retraction hit a zero coordinate (theta_n + step_n = 0)."""


@dataclass(frozen=True)
class QuadraticForm:
    """f0(theta) = theta^H U theta + 2 Re(theta^H v) + C, U Hermitian."""

    U: np.ndarray
    v: np.ndarray
    C: float

    def value(self, theta: np.ndarray) -> float:
        """The latency-residual sum (objective being maximized)."""
        quad = float(np.real(np.vdot(theta, self.U @ theta)))
        lin = 2.0 * float(np.real(np.vdot(theta, self.v)))
        return quad + lin + self.C

    def descent_value(self, theta: np.ndarray) -> float:
        """Negated objective without the constant (what descent minimizes)."""
        return -(self.value(theta) - self.C)


def assemble_quadratic(coeffs: EffectiveCoeffs, p, Ttilde, noise_power: float) -> QuadraticForm:
    """Collect the latency-residual sum into (U, v, C)."""
    p = np.asarray(p, dtype=float)
    Ttilde = np.asarray(Ttilde, dtype=float)
    k = p.shape[0]
    idx = np.arange(k)
    gdiag = coeffs.g[idx, idx]  # (K, N)
    bdiag = coeffs.b[idx, idx]  # (K,)
    mask = 1.0 - np.eye(k)
    cross = Ttilde[:, None] * p[None, :] * mask  # (K, K) interference weights

    U = np.einsum("k,kn,km->nm", p, gdiag, gdiag.conj())
    U -= np.einsum("kj,kjn,kjm->nm", cross, coeffs.g, coeffs.g.conj())
    U = 0.5 * (U + U.conj().T)

    v = np.einsum("k,k,kn->n", p, bdiag, gdiag)
    v -= np.einsum("kj,kj,kjn->n", cross, coeffs.b, coeffs.g)

    b2 = np.abs(coeffs.b) ** 2
    C = float(np.sum(p * np.abs(bdiag) ** 2)
              - np.sum(cross * b2)
              - np.sum(Ttilde * noise_power * coeffs.f_norm_sq))
    return QuadraticForm(U=U, v=v, C=C)


def riemannian_gradient(theta: np.ndarray, form: QuadraticForm) -> np.ndarray:
    """Euclidean gradient -2(U theta + v) projected onto the tangent space."""
    egrad = -2.0 * (form.U @ theta + form.v)
    return egrad - np.real(egrad.conj() * theta) * theta


def retract(theta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Coordinatewise (theta_n + step_n)/|theta_n + step_n|."""
    y = theta + step
    mag = np.abs(y)
    if np.any(mag < 1e-14):
        raise RetractionSingularityError("retraction hit a zero coordinate")
    return y / mag


def largest_eigen_magnitude(U: np.ndarray, max_iter: int = 200, tol: float = 1e-12) -> float:
    """max |eigenvalue| of a Hermitian matrix by power iteration on the
    Frobenius-shifted matrices U + cI and cI - U (both PSD for c = ||U||_F)."""
    c = float(np.linalg.norm(U))
    if c == 0.0:
        return 0.0
    n = U.shape[0]
    v0 = np.exp(1j * np.linspace(0.0, 1.0, n)) / np.sqrt(n)

    def dominant(mat):
        v = v0.copy()
        lam = 0.0
        for _ in range(max_iter):
            w = mat @ v
            nrm = np.linalg.norm(w)
            if nrm == 0.0:
                return 0.0
            v = w / nrm
            lam_next = float(np.real(np.vdot(v, mat @ v)))
            if abs(lam_next - lam) <= tol * c:
                return lam_next
            lam = lam_next
        return lam

    eye = np.eye(n)
    lam_max = dominant(U + c * eye) - c
    lam_min = c - dominant(c * eye - U)
    return max(abs(lam_max), abs(lam_min))


@dataclass(frozen=True)
class CcmoResult:
    theta: np.ndarray
    residual_value: float
    descent_value: float
    trace: list
    iterations: int
    converged: bool
    path: list | None = None


def run_ccmo(form: QuadraticForm, theta0: np.ndarray, max_iter: int = 5000,
             tol: float = 1e-8, step_size: float | None = None,
             record_path: bool = False) -> CcmoResult:
    """Riemannian gradient descent with a constant step bounded by
    1/max|eig(U)|.

    tol is a relative threshold on the objective change. Steps that would
    increase the objective (or hit a retraction singularity) are halved up
    to 50 times; if no decrease is found the iterate is stationary and the
    best point so far is returned. record_path keeps every iterate.
    """
    lam = largest_eigen_magnitude(form.U)
    if lam > 0.0:
        zeta0 = 1.0 / lam if step_size is None else min(step_size, 1.0 / lam)
    else:
        zeta0 = 1.0 if step_size is None else step_size

    theta = np.asarray(theta0, dtype=complex).copy()
    f = form.descent_value(theta)
    trace = [f]
    path = [theta.copy()] if record_path else None
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = riemannian_gradient(theta, form)
        zeta = zeta0
        accepted = False
        for _ in range(50):
            try:
                cand = retract(theta, -zeta * grad)
            except RetractionSingularityError:
                zeta *= 0.5
                continue
            f_new = form.descent_value(cand)
            if f_new <= f:
                accepted = True
                break
            zeta *= 0.5
        if not accepted:
            converged = True
            break
        small = abs(f_new - f) <= tol * max(abs(f), abs(f_new), 1e-300)
        theta, f = cand, f_new
        trace.append(f)
        if record_path:
            path.append(theta.copy())
        if small:
            converged = True
            break
    return CcmoResult(theta=theta, residual_value=form.value(theta), descent_value=f,
                      trace=trace, iterations=it, converged=converged, path=path)


def optimize_phases(form: QuadraticForm, theta0: np.ndarray, restarts: int = 0,
                    rng: np.random.Generator | None = None, **kwargs) -> CcmoResult:
    """run_ccmo from each start in theta0 ((N,) or (S, N), in order), then
    from `restarts` random starts; the best result wins, ties to the first."""
    starts = list(np.atleast_2d(theta0))
    if restarts > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        n = starts[0].size
        starts += [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(restarts)]
    return min((run_ccmo(form, start, **kwargs) for start in starts),
               key=lambda r: r.descent_value)


def aligned_phases(coeffs: EffectiveCoeffs, k: int = 0) -> np.ndarray:
    """Single-user heuristic start: phases aligning each reflected term
    with the direct term b_kk, i.e. theta_n = exp(j(arg b_kk + arg g_kk,n))."""
    g = coeffs.g[k, k]
    return np.exp(1j * (np.angle(coeffs.b[k, k]) + np.angle(g)))
