"""Passive beamforming by fraction transform plus ADMM consensus splitting.

The phase subproblem is a weighted sum of inverse SINRs,
sum_k A_k(theta)/B_k(theta) with A_k the weighted interference-plus-noise
load and B_k = |b_kk + g_kk^H theta|^2. With auxiliary positives beta_k
the objective becomes sum_k beta_k A_k^2 + 1/(4 beta_k B_k^2), exact at
beta_k = 1/(2 A_k B_k). ADMM splits the A-part (theta, unit modulus,
handled by a ball relaxation plus phase projection) from the B-part
(unconstrained consensus copy q, minimized exactly by damped Newton in the
span of the g_kk, at most 2K real variables) with scaled dual r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import EffectiveCoeffs

__all__ = [
    "SingularDenominatorError",
    "FractionalObjective",
    "AdmmState",
    "AdmmResult",
    "QStepReport",
    "admm_theta_step",
    "admm_q_step",
    "run_admm",
]

Q_STEP_MAX_ITER = 50  # q-step Newton iterations
Q_STEP_DECREMENT_TOL = 1e-14  # q-step stops once -grad^T step <= this * phi
TOL_OBJECTIVE = 1e-6  # relative change of the outer value that ends the outer loop
THETA_STEP_TOL = 1e-7  # theta-step stops once a move is at most this relative to ||theta||
THETA_STEP_MAX_ITER = 40  # theta-step projected-gradient steps


class SingularDenominatorError(ValueError):
    """A desired-signal term |b_kk + g_kk^H theta|^2 vanished."""


@dataclass(frozen=True)
class FractionalObjective:
    """Coefficients of the sum-of-inverse-SINR objective at fixed (p, F)."""

    coeffs: EffectiveCoeffs
    p: np.ndarray
    Ttilde: np.ndarray
    noise_power: float
    _noise: np.ndarray = field(init=False, repr=False)
    _mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.p.shape[0]
        object.__setattr__(self, "Ttilde", np.asarray(self.Ttilde, dtype=float))
        object.__setattr__(self, "_noise", self.noise_power * self.coeffs.f_norm_sq)
        object.__setattr__(self, "_mask", 1.0 - np.eye(k))

    def _signals(self, theta: np.ndarray):
        """Signal matrix S, its squared moduli and the numerators A_k(theta)."""
        S = self.coeffs.signal_matrix(theta)
        s2 = np.abs(S) ** 2
        interf = (s2 * self._mask) @ self.p
        return S, s2, self.Ttilde * (interf + self._noise)

    def parts(self, theta: np.ndarray):
        """Numerators A_k(theta) and denominators B_k(theta)."""
        _, s2, A = self._signals(theta)
        return A, np.diag(s2).copy()

    def value(self, theta: np.ndarray) -> float:
        A, B = self.parts(theta)
        if np.any(B <= 0.0):
            raise SingularDenominatorError("some |b_kk + g_kk^H theta|^2 is zero")
        return float(np.sum(A / B))

    def transformed(self, theta: np.ndarray, beta: np.ndarray) -> float:
        """sum_k J_A,k(theta) + J_B,k(theta) at the given auxiliaries."""
        A, B = self.parts(theta)
        if np.any(B <= 0.0):
            raise SingularDenominatorError("some |b_kk + g_kk^H theta|^2 is zero")
        return float(np.sum(beta * A**2 + 1.0 / (4.0 * beta * B**2)))

    def optimal_beta(self, theta: np.ndarray) -> np.ndarray:
        A, B = self.parts(theta)
        if np.any(A <= 0.0) or np.any(B <= 0.0):
            raise SingularDenominatorError("A_k and B_k must be positive")
        return 1.0 / (2.0 * A * B)

    # -- pieces used by the ADMM sub-steps --

    def _ja_value_grad(self, theta: np.ndarray, beta: np.ndarray):
        """sum_k J_A,k and its complex gradient (2 d/d theta*)."""
        S, _, A = self._signals(theta)
        val = float(np.sum(beta * A**2))
        # dA_k/dtheta* = T~_k sum_{j!=k} p_j s_kj g_kj
        weights = (self._mask * S) * self.p[None, :]
        inner = np.einsum("kj,kjn->kn", weights, self.coeffs.g)
        grad = 4.0 * np.einsum("k,kn->n", beta * A * self.Ttilde, inner)
        return val, grad


@dataclass
class AdmmState:
    """theta (unit modulus), consensus copy q, scaled dual r, auxiliaries
    beta, penalty rho."""

    theta: np.ndarray
    q: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    rho: float


@dataclass(frozen=True)
class QStepReport:
    q: np.ndarray
    converged: bool


@dataclass(frozen=True)
class AdmmResult:
    theta: np.ndarray
    value: float
    converged: bool
    outer_iterations: int


def _ball_project(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    return np.where(mag > 1.0, z / np.maximum(mag, 1e-300), z)


def _phase_project(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = np.where(mag > 1e-15, z / np.maximum(mag, 1e-300), 1.0 + 0.0j)
    return out.astype(complex)


def admm_theta_step(state: AdmmState, objective: FractionalObjective) -> np.ndarray:
    """theta update: projected gradient on the relaxed ball constraints
    |theta_n| <= 1, then per-coordinate phase projection to the circle."""
    w = state.q - state.r
    rho, beta = state.rho, state.beta

    theta = _ball_project(state.theta.copy())
    val, ja_grad = objective._ja_value_grad(theta, beta)
    val += 0.5 * rho * float(np.linalg.norm(theta - w) ** 2)
    step = 1.0 / rho
    for _ in range(THETA_STEP_MAX_ITER):
        grad = ja_grad + rho * (theta - w)
        moved = False
        for _ in range(40):
            cand = _ball_project(theta - step * grad)
            decrease = float(np.real(np.vdot(grad, theta - cand)))
            cand_ja, cand_grad = objective._ja_value_grad(cand, beta)
            cand_val = cand_ja + 0.5 * rho * float(np.linalg.norm(cand - w) ** 2)
            if cand_val <= val - 1e-4 * decrease:
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        move_norm = float(np.linalg.norm(cand - theta))
        theta, val, ja_grad = cand, cand_val, cand_grad
        step *= 1.5
        if move_norm <= THETA_STEP_TOL * max(1.0, float(np.linalg.norm(theta))):
            break
    return _phase_project(theta)


def admm_q_step(state: AdmmState, objective: FractionalObjective) -> QStepReport:
    """q update: minimize phi = sum_k J_B,k(q) + (rho/2)||q - a||^2, a = theta + r.

    J_B reads q only through s_k = b_kk + g_kk^H q, so the minimizer lies in
    a + span{g_kk}: with Gamma = [g_11 ... g_KK] = Y R (reduced QR), q = a + Y y
    and s = s0 + R^H y. Damped Newton runs over the at most 2K reals of y,
    warm-started at the projection of state.q. |s|^-4 curves down across the
    angle of s, so the step uses the Hessian's |eigenvalues|. converged means
    the Newton decrement reached round-off.
    """
    anchor = state.theta + state.r
    idx = np.arange(state.beta.size)
    b, g = objective.coeffs.b[idx, idx], objective.coeffs.g[idx, idx]
    if np.any(b + g.conj() @ state.q == 0.0):
        raise SingularDenominatorError("some b_kk + g_kk^H q is zero at the warm start")
    Y, R = np.linalg.qr(g.T)
    A = R.conj().T
    s0 = b + g.conj() @ anchor
    m = A.shape[1]
    # D[k] maps the reals (Re y, Im y) to (Re s_k, Im s_k)
    D = np.stack([np.hstack([A.real, -A.imag]), np.hstack([A.imag, A.real])], axis=1)
    w = 0.25 / state.beta  # J_B = sum_k w_k u_k^-2 with u_k = |s_k|^2
    rho = state.rho

    def phi(x):
        s = s0 + A @ (x[:m] + 1j * x[m:])
        return float(np.sum(w / np.abs(s) ** 4) + 0.5 * rho * (x @ x)), s

    y0 = Y.conj().T @ (state.q - anchor)
    x = np.concatenate([y0.real, y0.imag])
    f, s = phi(x)
    converged = False
    for _ in range(Q_STEP_MAX_ITER):
        u = np.abs(s) ** 2
        sig = np.stack([s.real, s.imag], axis=1)
        d1, d2 = -2.0 * w / u**3, 6.0 * w / u**4  # dJ/du_k, d2J/du_k2
        grad = np.einsum("kam,ka->m", D, 2.0 * d1[:, None] * sig) + rho * x
        curv = (4.0 * d2[:, None, None] * sig[:, :, None] * sig[:, None, :]
                + 2.0 * d1[:, None, None] * np.eye(2))
        hess = np.einsum("kam,kab,kbn->mn", D, curv, D) + rho * np.eye(2 * m)
        lam, V = np.linalg.eigh(hess)
        step = -V @ ((V.T @ grad) / np.abs(lam))
        slope = float(grad @ step)
        if -slope <= Q_STEP_DECREMENT_TOL * f:
            converged = True
            break
        t = 1.0
        for _ in range(60):
            f_new, s_new = phi(x + t * step)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:  # no Armijo point above round-off
            break
        x, f, s = x + t * step, f_new, s_new
    return QStepReport(q=anchor + Y @ (x[:m] + 1j * x[m:]), converged=converged)


def run_admm(objective: FractionalObjective, theta0: np.ndarray,
             max_outer: int = 20, max_inner: int = 200,
             tol_consensus: float = 1e-6) -> AdmmResult:
    """Alternate exact beta updates with ADMM inner sweeps; returns the best
    unit-modulus iterate seen (the start point included, so the result is
    never worse than theta0).

    The outer loop stops the first time the sum-of-ratios value at theta
    changes by at most TOL_OBJECTIVE relative between consecutive outer
    iterations (the first one compared with theta0). The penalty rho starts
    at value(theta0)/N so that it matches the objective scale; it doubles
    when the consensus residual stalls for 20 inner iterations.
    """
    theta0 = _phase_project(np.asarray(theta0, dtype=complex))
    n = theta0.size
    best_val = objective.value(theta0)
    best_theta = theta0.copy()
    rho = max(best_val, 1e-300) / max(n, 1)

    state = AdmmState(theta=theta0.copy(), q=theta0.copy(),
                      r=np.zeros(n, dtype=complex),
                      beta=objective.optimal_beta(theta0), rho=rho)
    rho_hi = rho * 2.0**16
    prev_outer = best_val
    converged = False
    outer_done = 0
    for t in range(max_outer):
        outer_done = t + 1
        state.beta = objective.optimal_beta(state.theta)
        best_resid = np.inf
        since_best = 0
        for it in range(max_inner):
            state.theta = admm_theta_step(state, objective)
            q_prev = state.q
            state.q = admm_q_step(state, objective).q
            state.r = state.r + state.theta - state.q
            resid = float(np.linalg.norm(state.theta - state.q))
            dual_resid = state.rho * float(np.linalg.norm(state.q - q_prev))
            val = objective.value(state.theta)
            if val < best_val:
                best_val, best_theta = val, state.theta.copy()
            if resid < tol_consensus:
                break
            # penalty only ever stiffens: when the primal residual dominates
            # the dual one, or when consensus stalls (cycling iterates); the
            # scaled dual r is rescaled with every rho change
            stiffen = False
            if it % 3 == 2 and resid > 10.0 * dual_resid:
                stiffen = True
            if resid < best_resid * (1.0 - 1e-3):
                best_resid = resid
                since_best = 0
            else:
                since_best += 1
                if since_best >= 20:
                    stiffen = True
                    since_best = 0
            if stiffen and state.rho < rho_hi:
                state.rho *= 2.0
                state.r *= 0.5
        outer_val = objective.value(state.theta)
        scale = max(abs(outer_val), abs(prev_outer), 1e-300)
        if abs(outer_val - prev_outer) <= TOL_OBJECTIVE * scale:
            converged = True
            break
        prev_outer = outer_val
    return AdmmResult(theta=best_theta, value=best_val, converged=converged,
                      outer_iterations=outer_done)
