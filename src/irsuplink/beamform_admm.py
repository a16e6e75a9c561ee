"""Passive beamforming by fraction transform plus ADMM consensus splitting.

The phase subproblem is a weighted sum of inverse SINRs,
sum_k A_k(theta)/B_k(theta) with A_k the weighted interference-plus-noise
load and B_k = |b_kk + g_kk^H theta|^2. With auxiliary positives beta_k
the objective becomes sum_k beta_k A_k^2 + 1/(4 beta_k B_k^2), exact at
beta_k = 1/(2 A_k B_k). ADMM splits the A-part (theta, unit modulus,
handled by a ball relaxation plus phase projection) from the B-part
(unconstrained consensus copy q, minimized by BFGS in 2N real variables)
with scaled dual r.
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

_B_FLOOR = 1e-6  # floors B_k(q) so J_B stays finite (B^2 floored at 1e-12)


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

    @property
    def num_phases(self) -> int:
        return self.coeffs.g.shape[2]

    def parts(self, theta: np.ndarray):
        """Numerators A_k(theta) and denominators B_k(theta)."""
        S = self.coeffs.signal_matrix(theta)
        s2 = np.abs(S) ** 2
        interf = (s2 * self._mask) @ self.p
        A = self.Ttilde * (interf + self._noise)
        B = np.diag(s2).copy()
        return A, B

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
        S = self.coeffs.signal_matrix(theta)
        s2 = np.abs(S) ** 2
        interf = (s2 * self._mask) @ self.p
        A = self.Ttilde * (interf + self._noise)
        val = float(np.sum(beta * A**2))
        # dA_k/dtheta* = T~_k sum_{j!=k} p_j s_kj g_kj
        weights = (self._mask * S) * self.p[None, :]
        inner = np.einsum("kj,kjn->kn", weights, self.coeffs.g)
        grad = 4.0 * np.einsum("k,kn->n", beta * A * self.Ttilde, inner)
        return val, grad

    def _jb_value_grad(self, q: np.ndarray, beta: np.ndarray):
        """sum_k J_B,k at the consensus copy q, with floored denominators."""
        k = self.p.shape[0]
        idx = np.arange(k)
        s = self.coeffs.b[idx, idx] + np.einsum(
            "kn,n->k", self.coeffs.g[idx, idx].conj(), q
        )
        b2 = np.abs(s) ** 2
        floored = b2 < _B_FLOOR**2
        b2c = np.maximum(b2, _B_FLOOR**2)
        val = float(np.sum(1.0 / (4.0 * beta * b2c**2)))
        coef = np.where(floored, 0.0, 1.0 / (beta * b2c**3))
        grad = -np.einsum("k,kn->n", coef * s, self.coeffs.g[idx, idx])
        return val, grad, bool(np.any(floored))


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
    grad_norm: float
    converged: bool
    stalled: bool
    floored: bool


@dataclass(frozen=True)
class AdmmResult:
    theta: np.ndarray
    value: float
    objective_trace: list
    consensus_residuals: list
    final_consensus: float
    converged: bool
    outer_iterations: int


def _ball_project(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    return np.where(mag > 1.0, z / np.maximum(mag, 1e-300), z)


def _phase_project(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = np.where(mag > 1e-15, z / np.maximum(mag, 1e-300), 1.0 + 0.0j)
    return out.astype(complex)


def admm_theta_step(state: AdmmState, objective: FractionalObjective,
                    tol: float = 1e-7, max_iter: int = 40) -> np.ndarray:
    """theta update: projected gradient on the relaxed ball constraints
    |theta_n| <= 1, then per-coordinate phase projection to the circle."""
    w = state.q - state.r
    rho, beta = state.rho, state.beta

    theta = _ball_project(state.theta.copy())
    val, ja_grad = objective._ja_value_grad(theta, beta)
    val += 0.5 * rho * float(np.linalg.norm(theta - w) ** 2)
    step = 1.0 / rho
    for _ in range(max_iter):
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
        if move_norm <= tol * max(1.0, float(np.linalg.norm(theta))):
            break
    return _phase_project(theta)


def _bfgs_minimize(value_grad, x0: np.ndarray, tol: float, max_iter: int):
    """BFGS with Armijo halving line search; returns (x, grad_norm, converged, stalled)."""
    n = x0.size
    x = x0.copy()
    f, g = value_grad(x)
    H = np.eye(n)
    first = True
    for _ in range(max_iter):
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return x, gn, True, False
        d = -H @ g
        slope = float(d @ g)
        if slope >= 0.0:  # not a descent direction; reset
            H = np.eye(n)
            d = -g
            slope = -float(g @ g)
        t = 1.0
        accepted = False
        for _ in range(40):
            f_new, g_new = value_grad(x + t * d)
            if f_new <= f + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return x, gn, False, True
        s = t * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if first:
                H *= sy / float(y @ y)
                first = False
            rho_b = 1.0 / sy
            Hy = H @ y
            H -= rho_b * (np.outer(s, Hy) + np.outer(Hy, s))
            H += rho_b * (1.0 + rho_b * float(y @ Hy)) * np.outer(s, s)
        x, f, g = x + s, f_new, g_new
    return x, float(np.linalg.norm(g)), False, False


def admm_q_step(state: AdmmState, objective: FractionalObjective,
                tol: float | None = None, max_iter: int = 100) -> QStepReport:
    """q update: minimize sum_k J_B,k(q) + (rho/2)||theta - q + r||^2 by
    BFGS over the 2N real coordinates of q."""
    anchor = state.theta + state.r
    rho, beta = state.rho, state.beta
    n = anchor.size
    floored_any = False

    def value_grad(x):
        nonlocal floored_any
        q = x[:n] + 1j * x[n:]
        jb, jb_grad, fl = objective._jb_value_grad(q, beta)
        floored_any = floored_any or fl
        diff = q - anchor
        val = jb + 0.5 * rho * float(np.linalg.norm(diff) ** 2)
        gc = jb_grad + rho * diff
        return val, np.concatenate([gc.real, gc.imag])

    x0 = np.concatenate([state.q.real, state.q.imag])
    if tol is None:
        _, g0 = value_grad(x0)
        tol = 1e-8 * (1.0 + float(np.linalg.norm(g0)))
    x, gn, converged, stalled = _bfgs_minimize(value_grad, x0, tol, max_iter)
    return QStepReport(q=x[:n] + 1j * x[n:], grad_norm=gn, converged=converged,
                       stalled=stalled, floored=floored_any)


def run_admm(objective: FractionalObjective, theta0: np.ndarray,
             max_outer: int = 20, max_inner: int = 200,
             tol_consensus: float = 1e-6, tol_objective: float = 1e-7,
             rho: float | None = None) -> AdmmResult:
    """Alternate exact beta updates with ADMM inner sweeps; returns the best
    unit-modulus iterate seen (the start point included, so the result is
    never worse than theta0).

    The outer loop stops once the sum-of-ratios value has settled AND the
    state itself has (the last inner sweep converged in a few iterations) —
    on hard instances the value plateaus while (theta, q, r) still drift.
    rho defaults to value(theta0)/N so the penalty matches the objective
    scale; it doubles when the consensus residual stalls for 20 inner
    iterations.
    """
    theta0 = _phase_project(np.asarray(theta0, dtype=complex))
    n = theta0.size
    best_val = objective.value(theta0)
    best_theta = theta0.copy()
    if rho is None:
        rho = max(best_val, 1e-300) / max(n, 1)

    state = AdmmState(theta=theta0.copy(), q=theta0.copy(),
                      r=np.zeros(n, dtype=complex),
                      beta=objective.optimal_beta(theta0), rho=rho)
    rho_hi = rho * 2.0**16
    objective_trace = [best_val]
    residuals: list[float] = []
    prev_outer = best_val
    stagnant_outers = 0
    converged = False
    outer_done = 0
    for t in range(max_outer):
        outer_done = t + 1
        state.beta = objective.optimal_beta(state.theta)
        best_resid = np.inf
        since_best = 0
        residuals = []
        for it in range(max_inner):
            state.theta = admm_theta_step(state, objective)
            q_prev = state.q
            state.q = admm_q_step(state, objective).q
            state.r = state.r + state.theta - state.q
            resid = float(np.linalg.norm(state.theta - state.q))
            dual_resid = state.rho * float(np.linalg.norm(state.q - q_prev))
            residuals.append(resid)
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
        objective_trace.append(outer_val)
        settled = abs(outer_val - prev_outer) <= tol_objective * max(abs(outer_val), abs(prev_outer), 1e-300)
        # a short inner sweep means theta/q/r reached a stable fixed point;
        # a long one means the state is still moving even if the value stalls
        if settled and len(residuals) <= 3:
            stagnant_outers += 1
            if stagnant_outers >= 2:
                converged = True
                break
        else:
            stagnant_outers = 0
        prev_outer = outer_val
    return AdmmResult(theta=best_theta, value=best_val,
                      objective_trace=objective_trace,
                      consensus_residuals=residuals,
                      final_consensus=residuals[-1] if residuals else 0.0,
                      converged=converged, outer_iterations=outer_done)
