"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion alongside the pytest verdicts.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import qefrate as q
from qefrate.onemode import ab_functions, onemode_trig, poles, residue_at

from conftest import (SURROGATE_A, SURROGATE_G, d_second_derivative_check,
                      kernel_at, log_det_d, surrogate_v_closed, u_direct,
                      u_ode_step, uniform_rule)


def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {verdict}: {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold(twomode, cfg_full):
    start = time.monotonic()
    theta0 = q.theta_threshold(twomode, cfg_full)
    elapsed = time.monotonic() - start
    ok = abs(theta0 - 0.0908) <= 2e-4 and elapsed < 5.0
    report(1, ok, f"theta0 = {theta0:.6f} (target 0.0908 +/- 0.0002)", elapsed)


def test_criterion_02_spectrum_and_norm(twomode):
    start = time.monotonic()
    eig = np.linalg.eigvals(twomode.a)
    expected = [-3.4734 + 2.6849j, -3.4734 - 2.6849j,
                -2.2911 + 4.1584j, -2.2911 - 4.1584j]
    eig_ok = all(np.min(np.abs(eig - e)) <= 1e-3 for e in expected)
    norm = np.linalg.norm(twomode.a, 2)
    norm_ok = abs(norm - 9.4475) <= 1e-3
    elapsed = time.monotonic() - start
    report(2, eig_ok and norm_ok,
           f"spectrum within 1e-3, ||A|| = {norm:.4f} (target 9.4475)", elapsed)


def test_criterion_03_high_frequency_asymptote(twomode, theta0):
    start = time.monotonic()
    theta = 0.9 * theta0
    coeff = theta * twomode.lqg_weight_trace()
    ratios = []
    for lam in np.geomspace(300.0, 1000.0, 15):
        sample = q.sample_grid(twomode, [lam])
        ratios.append(-log_det_d(sample, theta) / (coeff / lam ** 2))
    ratios = np.array(ratios)
    ok = np.all(ratios >= 0.98) and np.all(ratios <= 1.02)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(3, ok, f"asymptote ratio in [{ratios.min():.4f}, {ratios.max():.4f}]"
           " over [300, 1000]", elapsed)


def test_criterion_04_cross_method_equivalence(twomode, cfg_full, grid_full,
                                               theta0):
    start = time.monotonic()
    dtheta = 0.01 * theta0
    trace = q.rate_by_homotopy(twomode, 0.9 * theta0, dtheta, cfg_full)
    gaps = []
    values = []
    for frac in np.arange(0.1, 0.95, 0.1):
        k = int(round(frac / 0.01))
        theta = float(trace.theta_grid[k])
        direct = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
        values.append(direct)
        gaps.append(abs(trace.rate[k] - direct) / abs(direct))
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    elapsed = time.monotonic() - start
    ok = max(gaps) <= 1e-3 and monotone and elapsed < 120.0
    report(4, ok, f"max relative gap {max(gaps):.2e} over 0.1..0.9 theta0, "
           f"rate nondecreasing = {monotone}", elapsed)


def test_criterion_05_oracle_convergence(twomode, cfg_full, grid_full, theta0):
    start = time.monotonic()
    theta = 0.5 * theta0
    target = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
    study = q.convergence_study(twomode, theta, [10.0, 20.0, 40.0],
                                n_per_unit_time=40, max_dim=6500)
    errors = [abs(e.per_time_rate - target) / target for e in study.estimates]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    extrap_err = abs(study.extrapolated_rate - target) / target
    elapsed = time.monotonic() - start
    ok = monotone and extrap_err <= 0.02 and elapsed < 600.0
    report(5, ok, "horizon errors " + ", ".join(f"{e:.2e}" for e in errors)
           + f" monotone = {monotone}; extrapolated error {extrap_err:.2e}",
           elapsed)


def test_criterion_06_lqg_limit(twomode, cfg_full, grid_full, theta0):
    start = time.monotonic()
    h = 1e-4 * theta0
    slope = q.upsilon_from_grid(grid_full, h, cfg_full).upsilon / h
    algebraic = q.lqg_rate(twomode)
    rel = abs(slope - algebraic) / algebraic
    elapsed = time.monotonic() - start
    ok = rel <= 1e-3 and elapsed < 10.0
    report(6, ok, f"slope {slope:.6f} vs Tr(Pi Sigma)/2 = {algebraic:.6f} "
           f"(rel {rel:.2e})", elapsed)


def test_criterion_07_classical_reduction(twomode, cfg_coarse, surrogate,
                                          theta0):
    start = time.monotonic()
    grid = q.sample_grid(twomode, cfg_coarse.lambdas())
    classical = dataclasses.replace(grid, psi=0.0 * grid.psi)
    devs = []
    for theta in [0.25 * theta0, 0.5 * theta0, 0.75 * theta0]:
        forced = q.upsilon_from_grid(classical, theta, cfg_coarse).upsilon
        v = q.classical_v(twomode, theta, cfg_coarse)
        devs.append(abs(forced - v) / max(abs(v), 1e-300))
    surr_cfg = q.QuadratureConfig.for_system(surrogate)
    theta_s = 0.5 * SURROGATE_A ** 2 / SURROGATE_G ** 2
    v_quad = q.classical_v(surrogate, theta_s, surr_cfg)
    v_exact = surrogate_v_closed(theta_s)
    surr_dev = abs(v_quad - v_exact) / v_exact
    elapsed = time.monotonic() - start
    ok = max(devs) <= 1e-6 and surr_dev <= 1e-6 and elapsed < 10.0
    report(7, ok, f"forced-commutative dev {max(devs):.2e}; scalar surrogate "
           f"dev {surr_dev:.2e}", elapsed)


def test_criterion_08_ordering_and_expansion(twomode, cfg_full, grid_full,
                                             theta0):
    start = time.monotonic()
    ordered = True
    for theta in [theta0 / 8.0, theta0 / 4.0]:
        res = q.upsilon_from_grid(grid_full, theta, cfg_full)
        ordered = ordered and res.upsilon < res.classical_v
    ratios = []
    for theta in [theta0 / 8.0, theta0 / 16.0, theta0 / 32.0]:
        ups = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
        expansion = q.small_theta_expansion(twomode, theta, cfg_full)
        ratios.append(abs(ups - expansion) / theta ** 3)
    bounded = ratios[1] <= 2.0 * ratios[0] + 1e-9 \
        and ratios[2] <= 2.0 * ratios[0] + 1e-9
    elapsed = time.monotonic() - start
    ok = ordered and bounded and elapsed < 60.0
    report(8, ok, f"Upsilon < V at theta0/8, theta0/4 = {ordered}; "
           "error/theta^3 = " + ", ".join(f"{r:.3e}" for r in ratios), elapsed)


def test_criterion_09_onemode_oracle(onemode_params, onemode_ss):
    start = time.monotonic()
    from qefrate.model import BJ2
    from qefrate._funcs import sqrtm_spd
    rng = np.random.default_rng(424242)
    lams = rng.uniform(-9.0, 9.0, size=100)
    root = sqrtm_spd(onemode_params.r)
    worst = 0.0
    for lam in lams:
        lam = float(lam)
        sample = q.sample_grid(onemode_ss, [lam])
        f_generic = q.transfer(onemode_ss, 1j * lam)
        lhs = (1j * lam + onemode_params.mu) * np.eye(2) \
            - onemode_params.nu * BJ2
        f_closed = np.linalg.solve(lhs, root @ onemode_ss.b)
        worst = max(worst, float(np.max(np.abs(f_generic - f_closed))))
        a, b = ab_functions(onemode_params.mu, onemode_params.nu, 1j * lam)
        worst = max(worst, float(np.max(np.abs(
            sample.psi - (a * np.eye(2) + b * BJ2)))))
        theta = 0.3 / (1.0 + abs(lam))
        cos_tp, sinc_tp, _ = sample.trig(theta)
        cos_c, sin_c = onemode_trig(onemode_params.mu, onemode_params.nu,
                                    1j * lam, theta)
        worst = max(worst, float(np.max(np.abs(cos_tp - cos_c))))
        worst = max(worst, float(np.max(np.abs(
            theta * sample.psi @ sinc_tp - sin_c))))
    res_det = max(abs(np.linalg.det(residue_at(onemode_params.mu,
                                               onemode_params.nu, p)))
                  for p in poles(onemode_params.mu, onemode_params.nu))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and res_det < 1e-6 and elapsed < 10.0
    report(9, ok, f"max closed-form deviation {worst:.2e} at 100 frequencies; "
           f"max residue det {res_det:.2e}", elapsed)


def test_criterion_10_invariant_suites(random_models):
    start = time.monotonic()
    probe_cfg = uniform_rule(60.0, 0.15)
    rng = np.random.default_rng(7777)
    failures = []
    field_sizes = {ss.m for ss in random_models}
    if not (len(random_models) == 50
            and {ss.n for ss in random_models} == {2, 4}
            and field_sizes <= {2, 4, 6} and len(field_sizes) >= 2):
        failures.append((None, "pool-shapes"))
    for idx, ss in enumerate(random_models):
        scale = 1.0 + np.linalg.norm(ss.a) * np.linalg.norm(ss.theta_ccr)
        if ss.pr_residual() > 1e-10 * scale:
            failures.append((idx, "pr-residual"))
        sig_scale = 1.0 + np.linalg.norm(ss.a) * np.linalg.norm(ss.sigma)
        if ss.sigma_residual() > 1e-10 * sig_scale:
            failures.append((idx, "sigma-residual"))
        tau = float(rng.uniform(0.1, 2.0))
        plus, minus = kernel_at(ss, tau), kernel_at(ss, -tau)
        if not (np.array_equal(minus.lambda_k, -plus.lambda_k.T)
                and np.array_equal(minus.p_k, plus.p_k.T)):
            failures.append((idx, "kernel-symmetry"))
        lam = float(rng.uniform(0.0, 4.0))
        sample = q.sample_grid(ss, [lam])
        w_phi = np.linalg.eigvalsh(sample.phi[0])
        if w_phi[0] < -1e-12 * max(w_phi[-1], 1.0):
            failures.append((idx, "phi-psd"))
        if not np.array_equal(sample.psi[0], -sample.psi[0].conj().T):
            failures.append((idx, "psi-skew-hermitian"))
        h = 1j * sample.psi[0]
        if not np.array_equal(h, h.conj().T):
            failures.append((idx, "h-hermitian"))
        grid = q.sample_grid(ss, probe_cfg.lambdas())
        theta_half = 0.5 / float(np.max(grid.phi_eigvals[:, -1]))
        cos_tp, sinc_tp, tanc_tp = sample.trig(theta_half)
        w_tanc = np.linalg.eigvalsh(tanc_tp)
        if not (np.all(w_tanc > 0.0) and np.all(w_tanc <= 1.0 + 1e-12)):
            failures.append((idx, "tanhc-range"))
        if np.max(np.abs(tanc_tp @ cos_tp - sinc_tp)) \
                >= 1e-12 * max(1.0, float(np.linalg.norm(sinc_tp[0]))):
            failures.append((idx, "tanc-cos-sinc"))
        n_steps = 40
        h = theta_half / n_steps
        u = sample.phi.astype(complex)
        for k in range(n_steps):
            u = u_ode_step(sample, u, k * h, h)
        ref = u_direct(sample, theta_half)
        if np.max(np.abs(u - ref)) > 1e-6 * max(1.0, np.max(np.abs(ref))):
            failures.append((idx, "hopf-cole"))
        dd_scale = max(1.0, float(np.linalg.norm(sample.phi[0]))
                       * float(np.linalg.norm(sample.psi[0] @ sample.psi[0])))
        if (d_second_derivative_check(sample, 0.5 * theta_half)
                > 1e-6 * dd_scale):
            failures.append((idx, "second-derivative"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    report(10, ok, f"50 randomized models, failures: {failures or 'none'}",
           elapsed)
