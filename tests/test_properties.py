"""Structural invariants on a pool of 50 randomized stable models.

Covers realizability residuals, kernel symmetries, Hermitian/PSD structure
of the spectral pair, the unit range of the hyperbolic ratio spectrum, the
Riccati closed-form/march equivalence, and the second-order log-det
structure, across state dimensions 2 and 4 and field dimensions up to 6.
"""

from __future__ import annotations

import numpy as np
import pytest

import qefrate as q
from qefrate.homotopy import d_second_derivative_check, u_direct, u_ode_step
from qefrate.spectral import trig_bundle


@pytest.fixture(scope="module")
def probe_cfg():
    return q.QuadratureConfig(cutoff=60.0, step=0.15)


def cheap_threshold(ss: q.StateSpace, cfg) -> float:
    grid = q.sample_grid(ss, cfg.lambdas())
    return 1.0 / float(np.max(grid.phi_eigvals[:, -1]))


def test_pool_covers_requested_shapes(random_models):
    assert len(random_models) == 50
    assert {ss.n for ss in random_models} == {2, 4}
    assert {ss.m for ss in random_models} <= {2, 4, 6}
    assert len({ss.m for ss in random_models}) >= 2


def test_realizability_residuals(random_models):
    for ss in random_models:
        scale = 1.0 + np.linalg.norm(ss.a) * np.linalg.norm(ss.theta_ccr)
        assert ss.pr_residual() <= 1e-10 * scale
        sig_scale = 1.0 + np.linalg.norm(ss.a) * np.linalg.norm(ss.sigma)
        assert ss.sigma_residual() <= 1e-10 * sig_scale


def test_kernel_symmetries(random_models):
    for k, ss in enumerate(random_models):
        tau = 0.2 + 0.05 * k
        plus = q.kernel_at(ss, tau)
        minus = q.kernel_at(ss, -tau)
        assert np.array_equal(minus.lambda_k, -plus.lambda_k.T)
        assert np.array_equal(minus.p_k, plus.p_k.T)


def test_spectral_structure(random_models):
    rng = np.random.default_rng(99)
    for ss in random_models:
        lam = float(rng.uniform(0.0, 4.0))
        s = q.spectral_sample(ss, lam)
        w_phi = np.linalg.eigvalsh(s.phi)
        assert w_phi[0] >= -1e-12 * max(w_phi[-1], 1.0)
        assert np.array_equal(s.psi, -s.psi.conj().T)
        assert np.array_equal(s.h, s.h.conj().T)


def test_hyperbolic_ratio_unit_range(random_models):
    rng = np.random.default_rng(100)
    for ss in random_models:
        s = q.spectral_sample(ss, float(rng.uniform(0.0, 4.0)))
        tb = trig_bundle(s, 0.4)
        w = np.linalg.eigvalsh(tb.tanc_tp)
        assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)
        ident = tb.tanc_tp @ tb.cos_tp - tb.sinc_tp
        assert np.max(np.abs(ident)) < 1e-12 * max(
            1.0, float(np.linalg.norm(tb.sinc_tp)))


def test_riccati_march_matches_closed_form(random_models, probe_cfg):
    rng = np.random.default_rng(101)
    for ss in random_models:
        theta_end = 0.5 * cheap_threshold(ss, probe_cfg)
        s = q.spectral_sample(ss, float(rng.uniform(0.2, 2.5)))
        n_steps = 40
        h = theta_end / n_steps
        u = s.phi.astype(complex)
        for k in range(n_steps):
            u = u_ode_step(s, u, k * h, h)
        ref = u_direct(s, theta_end)
        assert np.max(np.abs(u - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_second_order_structure(random_models):
    rng = np.random.default_rng(102)
    for ss in random_models:
        s = q.spectral_sample(ss, float(rng.uniform(0.2, 2.5)))
        theta = 0.25 * cheap_threshold(ss, q.QuadratureConfig(cutoff=60.0,
                                                              step=0.3))
        scale = max(1.0, float(np.linalg.norm(s.phi))
                    * float(np.linalg.norm(s.psi @ s.psi)))
        assert d_second_derivative_check(s, theta, d_theta=1e-4) \
            < 1e-6 * scale
