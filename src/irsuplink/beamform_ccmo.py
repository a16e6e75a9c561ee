"""Latency-residual maximization by gradient descent on the product of
complex circles.

The per-user SINR slacks sum to sum_i w_i |b_i + g_i^H theta|^2 + const
over the r = K^2 pairs (k, j), with weight p_k on (k, k) and
-Ttilde_k p_j elsewhere. The form keeps the r rows g_i and reads theta
only through x = g* theta, so no N x N matrix is built. Descent minimizes
the negated sum on {|theta_n| = 1}: tangent projection, coordinatewise
retraction, and a step capped by 1/max|eig(U)| for U = sum_i w_i g_i g_i^H,
read exactly from an r x r matrix with the same nonzero spectrum.
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

MAX_ITER = 2000  # descent steps per run
TOL = 1e-8  # relative objective change that ends a run


class RetractionSingularityError(ArithmeticError):
    """A retraction hit a zero coordinate (theta_n + step_n = 0)."""


@dataclass(frozen=True)
class QuadraticForm:
    """f0(theta) = sum_i w_i (|x_i|^2 + 2 Re(conj(b_i) x_i)) + C with
    x = g* theta: g (r, N), b (r,), real weights w (r,)."""

    g: np.ndarray
    b: np.ndarray
    w: np.ndarray
    C: float

    def value(self, theta: np.ndarray) -> float:
        """The latency-residual sum (objective being maximized)."""
        return self.C - self.descent_value(theta)

    def descent_value(self, theta: np.ndarray) -> float:
        """Negated objective without the constant (what descent minimizes)."""
        x = self.g.conj() @ theta
        return -float(np.dot(self.w, np.abs(x) ** 2 + 2.0 * np.real(self.b.conj() * x)))


def assemble_quadratic(coeffs: EffectiveCoeffs, p, Ttilde, noise_power: float) -> QuadraticForm:
    """Stack the K^2 pair terms of the latency-residual sum into (g, b, w, C)."""
    p = np.asarray(p, dtype=float)
    Ttilde = np.asarray(Ttilde, dtype=float)
    k, _, n = coeffs.g.shape
    w = -Ttilde[:, None] * p[None, :]
    w[np.arange(k), np.arange(k)] = p
    C = float(np.sum(w * np.abs(coeffs.b) ** 2)
              - noise_power * np.sum(Ttilde * coeffs.f_norm_sq))
    return QuadraticForm(g=coeffs.g.reshape(k * k, n), b=coeffs.b.ravel(), w=w.ravel(), C=C)


def riemannian_gradient(theta: np.ndarray, form: QuadraticForm) -> np.ndarray:
    """Euclidean gradient -2 g^T (w (b + g* theta)) projected onto the
    tangent space."""
    x = form.g.conj() @ theta
    egrad = -2.0 * (form.g.T @ (form.w * (form.b + x)))
    return egrad - np.real(egrad.conj() * theta) * theta


def retract(theta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Coordinatewise (theta_n + step_n)/|theta_n + step_n|."""
    y = theta + step
    mag = np.abs(y)
    if np.any(mag < 1e-14):
        raise RetractionSingularityError("retraction hit a zero coordinate")
    return y / mag


def largest_eigen_magnitude(form: QuadraticForm) -> float:
    """max |eigenvalue| of U = g^T diag(w) g*, from the r x r matrix
    diag(w) g* g^T, which has the same nonzero eigenvalues."""
    small = form.w[:, None] * (form.g.conj() @ form.g.T)
    return float(np.max(np.abs(np.linalg.eigvals(small))))


@dataclass(frozen=True)
class CcmoResult:
    theta: np.ndarray
    descent_value: float
    trace: list
    iterations: int
    converged: bool


def run_ccmo(form: QuadraticForm, theta0: np.ndarray) -> CcmoResult:
    """Riemannian gradient descent from the constant step 1/max|eig(U)|,
    the exact bound from `largest_eigen_magnitude` (1 when U = 0).

    It takes at most MAX_ITER steps; TOL is a relative threshold on the
    objective change. Steps that would increase the objective (or hit a
    retraction singularity) are halved up to 50 times; if no decrease is
    found the iterate is stationary and the best point so far is returned.
    """
    lam = largest_eigen_magnitude(form)
    zeta0 = 1.0 / lam if lam > 0.0 else 1.0

    theta = np.asarray(theta0, dtype=complex).copy()
    f = form.descent_value(theta)
    trace = [f]
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        grad = riemannian_gradient(theta, form)
        zeta = zeta0
        for _ in range(50):
            try:
                cand = retract(theta, -zeta * grad)
            except RetractionSingularityError:
                zeta *= 0.5
                continue
            f_new = form.descent_value(cand)
            if f_new <= f:
                break
            zeta *= 0.5
        else:  # no decrease along the gradient: stationary
            converged = True
            break
        small = abs(f_new - f) <= TOL * max(abs(f), abs(f_new), 1e-300)
        theta, f = cand, f_new
        trace.append(f)
        if small:
            converged = True
            break
    return CcmoResult(theta=theta, descent_value=f, trace=trace, iterations=it,
                      converged=converged)


def optimize_phases(form: QuadraticForm, starts) -> CcmoResult:
    """run_ccmo from each start ((N,) or (S, N), in order); the best result wins, ties to
    the first. It draws nothing: a solve's random starts come from its caller."""
    return min((run_ccmo(form, start) for start in np.atleast_2d(starts)),
               key=lambda r: r.descent_value)


def aligned_phases(coeffs: EffectiveCoeffs) -> np.ndarray:
    """Single-user start: phases aligning each reflected term with the
    direct term b_11, i.e. theta_n = exp(j(arg b_11 + arg g_11,n))."""
    return np.exp(1j * (np.angle(coeffs.b[0, 0]) + np.angle(coeffs.g[0, 0])))
