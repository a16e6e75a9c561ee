"""Acceptance gate: every criterion prints one PASS/FAIL line and asserts.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Trend criteria use the Monte-Carlo harness with paired draws.
"""

import time

import numpy as np
import pytest

from irsuplink import (
    ExperimentSpec,
    FractionalObjective,
    InfeasibleError,
    LatencyProfile,
    SystemConfig,
    build_interference,
    detectors,
    emit_csv,
    gram,
    latency,
    mvdr_bank,
    run_admm,
    run_ccmo,
    run_experiment,
    sample_channel_set,
    sample_multi_antenna_channels,
    scenario_default,
    sinr,
    solve,
    solve_multi_antenna,
    solve_power_fixed_point,
    assemble_quadratic,
    riemannian_gradient,
)
from irsuplink import beamform_admm, beamform_ccmo
from irsuplink.experiments import _build_config
from irsuplink.system import SolverState, effective_channel, effective_coeffs
from conftest import (crandn, feasible_power_instance, iterate_fixed_point, mvdr_rows,
                      random_coeffs, residual_sums, single_user_oracle)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def power_instances(count, seed=20240810):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        h_eff, C, Tt, noise = feasible_power_instance(rng, K=3, M=8, rho_target=0.88)
        out.append((h_eff, C, Tt, noise, build_interference(Tt, C, gram(h_eff), noise), rng))
    return out


def test_criterion_01_fixed_point_matches_direct_solve():
    start = time.perf_counter()
    worst = 0.0
    for h_eff, C, Tt, noise, (Q, tau), _ in power_instances(100):
        rep = solve_power_fixed_point(Q, tau)
        direct = np.linalg.solve(np.eye(3) - Q, tau)
        worst = max(worst, float(np.max(np.abs(rep.p - direct) / direct)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"fixed point vs direct solve, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fixed_point_unique_across_starts():
    rng = np.random.default_rng(7)
    worst = 0.0
    for h_eff, C, Tt, noise, (Q, tau), _ in power_instances(100, seed=20240811):
        p_ref = solve_power_fixed_point(Q, tau).p
        for p0 in (np.zeros(3), 10 * np.asarray(tau), rng.uniform(0, 3, 3)):
            p = iterate_fixed_point(Q, tau, p0)
            worst = max(worst, float(np.max(np.abs(p - p_ref) / p_ref)))
    ok = worst < 1e-8
    report(2, ok, f"start-point independence, worst rel spread {worst:.2e}")


def physical_instances(count, K=3, rho_b=0.0, seed=1):
    cfg = SystemConfig(M=8, N_az=4, N_el=2, K=K, rho_b=rho_b,
                       user_xy=((40.0, 40.0), (50.0, -20.0), (30.0, 10.0))[:K])
    out = []
    for trial in range(count):
        ch = sample_channel_set(cfg, np.random.default_rng([seed, trial, 0]))
        D = np.random.default_rng([seed, trial, 1]).uniform(5000, 8000, K)
        out.append((cfg, ch, LatencyProfile.from_data(D, cfg.W, cfg.T)))
    return out


def test_criterion_03_constraints_tight_after_power_solve():
    worst_sinr = worst_lat = 0.0
    for cfg, ch, prof in physical_instances(100):
        theta = np.ones(cfg.N, dtype=complex)
        h_eff = effective_channel(ch, theta)
        A = gram(h_eff)
        norms = np.sum(np.abs(h_eff) ** 2, axis=1)
        Q, tau = build_interference(prof.Ttilde, np.diag(1.0 / norms), A, cfg.noise_power)
        p = solve_power_fixed_point(Q, tau).p
        C = mvdr_bank(p, A, cfg.noise_power)
        Q, tau = build_interference(prof.Ttilde, C, A, cfg.noise_power)
        p = solve_power_fixed_point(Q, tau).p
        st = SolverState(p=p, F=detectors(C, h_eff), theta=theta, h_eff=h_eff)
        for k in range(cfg.K):
            worst_sinr = max(worst_sinr,
                             abs(sinr(st, cfg.noise_power, k) / prof.Ttilde[k] - 1.0))
            worst_lat = max(worst_lat, abs(latency(st, cfg, prof, k) / cfg.T - 1.0))
    ok = worst_sinr < 1e-8 and worst_lat < 1e-6
    report(3, ok, f"tightness: SINR dev {worst_sinr:.2e}, latency dev {worst_lat:.2e}")


def test_criterion_04_mvdr_distortionless_and_optimal():
    rng = np.random.default_rng(13)
    worst_unit = 0.0
    optimal = True
    for cfg, ch, prof in physical_instances(30, seed=2):
        theta = np.ones(cfg.N, dtype=complex)
        h_eff = effective_channel(ch, theta)
        norms = np.sum(np.abs(h_eff) ** 2, axis=1)
        Q, tau = build_interference(prof.Ttilde, np.diag(1.0 / norms), gram(h_eff), cfg.noise_power)
        p = solve_power_fixed_point(Q, tau).p  # operating-point powers
        for k in range(cfg.K):
            f = mvdr_rows(p, h_eff, cfg.noise_power)[k]
            worst_unit = max(worst_unit, abs(np.vdot(f, h_eff[k]) - 1.0))
            R = cfg.noise_power * np.eye(cfg.M, dtype=complex)
            for j in range(cfg.K):
                if j != k:
                    R += p[j] * np.outer(h_eff[j], h_eff[j].conj())
            base = float(np.vdot(f, R @ f).real)
            for _ in range(100):
                g = f + 0.3 * np.linalg.norm(f) * crandn(rng, cfg.M) / np.sqrt(cfg.M)
                g = g / np.conj(np.vdot(g, h_eff[k]))
                if float(np.vdot(g, R @ g).real) < base * (1 - 1e-12):
                    optimal = False
    ok = worst_unit < 1e-12 and optimal
    report(4, ok, f"MVDR: max |f^H h - 1| = {worst_unit:.2e}, "
                  f"optimal vs probes: {optimal}")


def test_criterion_05_fraction_transform_identity():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 4))
        obj = FractionalObjective(random_coeffs(rng, K, 4), rng.uniform(0.2, 2.0, K),
                                  rng.uniform(0.2, 1.5, K), 1.0)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        beta = obj.optimal_beta(theta)
        ratios = obj.value(theta)
        worst = max(worst, abs(obj.transformed(theta, beta) - ratios) / ratios)
    ok = worst < 1e-12
    report(5, ok, f"transform identity over 1000 draws, worst rel err {worst:.2e}")


def grid_instances(count, seed=23):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        coeffs = random_coeffs(rng, 2, 3)
        p = rng.uniform(0.3, 2.0, 2)
        Tt = rng.uniform(0.2, 1.0, 2)
        out.append((coeffs, p, Tt, 1.0))
    return out


def phase_grid_3():
    phases = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    mesh = np.meshgrid(phases, phases, phases, indexing="ij")
    return np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))


def test_criterion_06_ccmo_correctness_and_grid_quality(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    grid = phase_grid_3()
    fd_ok = tangent_ok = modulus_ok = descent_ok = True
    worst_quality = 1.0
    # run_ccmo takes one gradient at each iterate; the spy records them
    visited = []

    def recording_gradient(theta, form):
        visited.append(theta)
        return riemannian_gradient(theta, form)

    monkeypatch.setattr(beamform_ccmo, "riemannian_gradient", recording_gradient)
    for coeffs, p, Tt, noise in grid_instances(20):
        form = assemble_quadratic(coeffs, p, Tt, noise)
        # (a) gradient vs central finite differences along tangents
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        g = riemannian_gradient(theta, form)
        eta = 1j * rng.standard_normal(3) * theta
        h = 1e-6
        fd = (form.descent_value(theta + h * eta)
              - form.descent_value(theta - h * eta)) / (2 * h)
        analytic = float(np.real(np.vdot(g, eta)))
        if abs(fd - analytic) > 1e-6 * max(1.0, abs(analytic)):
            fd_ok = False
        # (b)-(d) invariants along the run
        visited.clear()
        res = run_ccmo(form, np.ones(3, complex))
        path = visited + ([] if visited[-1] is res.theta else [res.theta])
        for it in path:
            if np.max(np.abs(np.abs(it) - 1.0)) >= 1e-12:
                modulus_ok = False
            gr = riemannian_gradient(it, form)
            if np.max(np.abs(np.real(gr.conj() * it))) >= 1e-12:
                tangent_ok = False
        trace = np.asarray(res.trace)
        if np.any(np.diff(trace) > 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))):
            descent_ok = False
        # (e) within 95% of the exhaustive grid range
        from irsuplink import optimize_phases

        vals = residual_sums(coeffs, p, Tt, noise, grid)
        lo, hi = vals.min(), vals.max()
        fresh = np.random.default_rng(31)
        starts = [np.ones(3, complex)] + [np.exp(1j * fresh.uniform(0.0, 2.0 * np.pi, 3))
                                          for _ in range(3)]
        best = max(form.value(res.theta), form.value(optimize_phases(form, starts).theta))
        worst_quality = min(worst_quality, (best - lo) / (hi - lo))
    elapsed = time.perf_counter() - start
    ok = fd_ok and tangent_ok and modulus_ok and descent_ok \
        and worst_quality >= 0.95 and elapsed < 60.0
    report(6, ok, f"CCMO: fd={fd_ok} tangent={tangent_ok} modulus={modulus_ok} "
                  f"descent={descent_ok} grid quality {worst_quality:.4f}, {elapsed:.1f}s")


def test_criterion_07_admm_grid_quality(monkeypatch):
    grid = phase_grid_3()
    worst_ratio = 1.0
    worst_consensus = 0.0
    modulus_ok = True
    # the consensus residual ||theta - q|| after each q-step
    consensus = []
    q_step = beamform_admm.admm_q_step

    def recording_q_step(state, objective):
        report = q_step(state, objective)
        consensus.append(float(np.linalg.norm(state.theta - report.q)))
        return report

    monkeypatch.setattr(beamform_admm, "admm_q_step", recording_q_step)
    for coeffs, p, Tt, noise in grid_instances(20):
        obj = FractionalObjective(coeffs, p, Tt, noise)
        consensus.clear()
        res = run_admm(obj, np.ones(3, complex))
        s_all = coeffs.b[None, :, :] + np.einsum("kjn,in->ikj", coeffs.g.conj(), grid)
        s2 = np.abs(s_all) ** 2
        mask = 1.0 - np.eye(2)
        interf = np.einsum("ikj,j->ik", s2 * mask[None, :, :], p)
        A = Tt[None, :] * (interf + noise * coeffs.f_norm_sq[None, :])
        B = s2[:, np.arange(2), np.arange(2)]
        grid_min = float(np.min(np.sum(A / B, axis=1)))
        worst_ratio = max(worst_ratio, res.value / grid_min)
        worst_consensus = max(worst_consensus, consensus[-1])
        if np.max(np.abs(np.abs(res.theta) - 1.0)) >= 1e-12:
            modulus_ok = False
    ok = worst_ratio <= 1.05 and worst_consensus < 1e-3 and modulus_ok
    report(7, ok, f"ADMM: worst value/grid-min {worst_ratio:.4f}, "
                  f"worst consensus {worst_consensus:.2e}, modulus={modulus_ok}")


def test_criterion_08_framework_monotone_total_power():
    # two-user draws with single- and two-antenna users; a multi-antenna
    # trace spans the transmit-beamformer updates as well
    user_xy = ((40.0, 40.0), (50.0, -20.0))
    cases = (
        ("single", SystemConfig(M=8, N_az=4, N_el=4, K=2, rho_b=1.0, user_xy=user_xy),
         ("ccmo", "admm")),
        ("multi", SystemConfig(M=8, N_az=4, N_el=4, K=2, rho_b=1.0, N_u=2, user_xy=user_xy),
         ("ccmo", "fixed-random")),
    )
    ok = True
    done = {}
    transmit_updates = 0
    for kind, cfg, solvers in cases:
        done[kind] = 0
        seed = 0
        while done[kind] < 50 and seed < 120:
            rng_channel = np.random.default_rng([3, seed, 0])
            D = np.random.default_rng([3, seed, 1]).uniform(5000, 8000, 2)
            prof = LatencyProfile.from_data(D, cfg.W, cfg.T)
            seed += 1
            try:
                if kind == "single":
                    ch = sample_channel_set(cfg, rng_channel)
                    traces = [solve(cfg, ch, prof, b, np.random.default_rng(0))[1] for b in solvers]
                else:
                    mu = sample_multi_antenna_channels(cfg, rng_channel)
                    results = [solve_multi_antenna(cfg, mu, prof, b,
                                                   np.random.default_rng(0)) for b in solvers]
                    traces = [tr for _, _, tr in results]
                    transmit_updates += sum(bool(np.any(q[:, 1])) for q, _, _ in results)
            except InfeasibleError:
                continue
            done[kind] += 1
            for tr in traces:
                sp = np.asarray(tr.sum_power)
                if np.any(np.diff(sp) > 1e-9 * sp[:-1]):
                    ok = False
    ok = ok and done == {"single": 50, "multi": 50} and transmit_updates > 0
    report(8, ok, f"monotone total power on {done['single']} single- and {done['multi']} "
                  f"two-antenna blocked two-user instances ({transmit_updates} solves "
                  f"accepted a transmit update)")


OLOS_SWEEP_BASE = {"rho_b": 1.0}


def oracle_gains_db(spec, value):
    """Per-trial closed-form K=1 gain over no IRS, in dB, on the harness's draws.

    At K=1 the power is Ttilde sigma^2 / ||h_eff||^2, so the best paired gain
    any phase choice can give is 10 log10(max ||h_eff||^2 / ||h_d||^2).
    """
    cfg, _ = _build_config(spec.base, spec.sweep_variable, value)
    gains = []
    for trial in range(spec.trials):
        ch = sample_channel_set(cfg, np.random.default_rng([spec.seed, trial, 0]))
        direct = float(np.vdot(ch.h_direct[0], ch.h_direct[0]).real)
        gains.append(10.0 * np.log10(single_user_oracle(ch).value / direct))
    return np.array(gains)


def test_criterion_09_power_decreases_with_irs_size():
    start = time.perf_counter()
    spec = ExperimentSpec(name="crit9", sweep_variable="N", grid=(8, 16, 32, 64),
                          trials=50, seed=20240811, solvers=("ccmo", "admm", "none"),
                          base=OLOS_SWEEP_BASE)
    table = run_experiment(spec)
    means = {}
    for value, solver, metrics in table.aggregates:
        means[(solver, value)] = metrics["sum_power_dbm"]["mean"]
    decreasing = all(
        means[(s, a)] > means[(s, b)]
        for s in ("ccmo", "admm")
        for a, b in zip((8, 16, 32), (16, 32, 64))
    )

    def paired_gains(solver, value):
        # rows are sorted by (value, solver) with trials in draw order inside
        # each block, so zipping two blocks pairs the shared channel draws
        seq = [r for r in table.rows if r.solver == solver and r.sweep_value == value]
        bare = [r for r in table.rows if r.solver == "none" and r.sweep_value == value]
        return np.array([rn.sum_power_dbm - r.sum_power_dbm if r.feasible and rn.feasible
                         else np.nan for r, rn in zip(seq, bare)])

    oracle = {v: oracle_gains_db(spec, v) for v in spec.grid}
    gains = {(s, v): paired_gains(s, v) for s in ("ccmo", "admm") for v in spec.grid}
    # largest per-draw gain above the optimum, and mean shortfall below it
    excess = max(float(np.nanmax(g - oracle[v])) for (_, v), g in gains.items())
    shortfall = {key: float(np.nanmean(oracle[key[1]] - g)) for key, g in gains.items()}
    worst_ccmo = max(shortfall[("ccmo", v)] for v in spec.grid)
    worst_admm = max(shortfall[("admm", v)] for v in spec.grid)
    elapsed = time.perf_counter() - start
    ok = decreasing and excess <= 1e-6 and worst_ccmo <= 0.01 and worst_admm <= 0.01 \
        and elapsed < 600.0
    report(9, ok, f"N-sweep: mean power decreasing={decreasing}, "
                  f"mean paired gain at N=64 = {np.nanmean(gains[('ccmo', 64)]):.2f} dB "
                  f"vs closed-form optimum {np.mean(oracle[64]):.2f} dB, worst mean "
                  f"shortfall CCMO {worst_ccmo:.4f} dB, ADMM {worst_admm:.4f} dB, "
                  f"max excess {excess:.1e} dB, {elapsed:.0f}s")


def test_criterion_10_power_grows_with_blockage():
    spec = ExperimentSpec(name="crit10", sweep_variable="rho_b", grid=(0.0, 0.5, 1.0),
                          trials=50, seed=20240812,
                          solvers=("ccmo", "admm", "none", "fixed-random"),
                          base={})
    table = run_experiment(spec)
    means = {}
    for value, solver, metrics in table.aggregates:
        means[(solver, value)] = metrics["sum_power_dbm"]["mean"]
    nondecreasing = all(
        means[(s, 0.0)] <= means[(s, 0.5)] + 1e-12
        and means[(s, 0.5)] <= means[(s, 1.0)] + 1e-12
        for s in spec.solvers
    )
    gap = {v: means[("none", v)] - means[("ccmo", v)] for v in (0.0, 1.0)}
    ok = nondecreasing and gap[1.0] > gap[0.0]
    report(10, ok, f"blockage sweep: nondecreasing={nondecreasing}, "
                   f"IRS gap {gap[0.0]:.2f} dB at rho_b=0 vs {gap[1.0]:.2f} dB at rho_b=1")


def test_criterion_11_multi_antenna_reduction():
    cfg = SystemConfig(M=8, N_az=4, N_el=2, K=2, rho_b=0.5, N_u=1,
                       user_xy=((40.0, 40.0), (50.0, -20.0)))
    worst = 0.0
    norms_ok = True
    for seed in range(10):
        mu = sample_multi_antenna_channels(cfg, np.random.default_rng([seed, 0]))
        D = np.random.default_rng([seed, 1]).uniform(5000, 8000, 2)
        prof = LatencyProfile.from_data(D, cfg.W, cfg.T)
        qbar, st_mu, _ = solve_multi_antenna(cfg, mu, prof, "ccmo", np.random.default_rng(0))
        ch = mu.reduce(np.ones((2, 1), complex))
        st, _ = solve(cfg, ch, prof, "ccmo", np.random.default_rng(0))
        worst = max(worst, float(np.max(np.abs(st_mu.p - st.p) / st.p)))
        worst = max(worst, float(np.max(np.abs(st_mu.theta - st.theta))))
        for k in range(2):
            if abs(np.linalg.norm(qbar[k]) - 1.0) > 1e-12:
                norms_ok = False
    ok = worst < 1e-10 and norms_ok
    report(11, ok, f"N_u=1 reduction max deviation {worst:.2e}, unit norms={norms_ok}")


def test_criterion_12_preset_rerun_byte_identical(tmp_path):
    spec = scenario_default()["quick"]
    blobs = []
    for name in ("first.csv", "second.csv"):
        table = run_experiment(spec)
        path = tmp_path / name
        emit_csv(table, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(12, ok, f"preset rerun byte-identical ({len(blobs[0])} bytes)")
