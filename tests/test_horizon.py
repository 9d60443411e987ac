"""Finite-horizon oracle: discretization structure and convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest

import qefrate as q
from qefrate._funcs import tanhc
from qefrate.errors import FeasibilityError, NumericalError, SizeError
from qefrate.horizon import ln_xi_from_matrices

from conftest import SURROGATE_A, SURROGATE_G, surrogate_v_closed


def reference_ln_xi(big_l, big_p, theta):
    """(ln_xi, spec_value) from the complex Hermitian eigensolve of H = iL.

    L = -iH gives cos(theta L) = cosh(theta H) and tanc(theta L) =
    tanhc(theta H); the log-det of I - theta P K is taken by slogdet.
    """
    w, u = np.linalg.eigh(1j * big_l)
    x = theta * w
    k_eigs = np.asarray(tanhc(x))
    k = (u * k_eigs) @ u.conj().T
    root_k = (u * np.sqrt(k_eigs)) @ u.conj().T
    sign, ln_det = np.linalg.slogdet(np.eye(len(w)) - theta * big_p @ k)
    assert abs(sign - 1.0) < 1e-12
    spec = theta * np.linalg.eigvalsh(root_k @ big_p @ root_k)[-1]
    return -0.5 * (math.fsum(np.log(np.cosh(x))) + ln_det), spec


class TestDiscretizeKernels:
    def test_single_cell_blocks(self, twomode):
        big_l, big_p = q.discretize_kernels(twomode, horizon=3.0, n_grid=1)
        s = twomode.s_half
        assert np.allclose(big_l, s @ twomode.theta_ccr @ s * 3.0, atol=1e-12)
        assert np.allclose(big_p, s @ twomode.sigma @ s * 3.0, atol=1e-12)

    @pytest.mark.parametrize("t_n", [(2.0, 16), (7.0, 40)])
    def test_exact_symmetries(self, twomode, t_n):
        t, n = t_n
        big_l, big_p = q.discretize_kernels(twomode, t, n)
        assert np.array_equal(big_l, -big_l.T)
        assert np.array_equal(big_p, big_p.T)

    def test_quantum_covariance_psd(self, twomode):
        big_l, big_p = q.discretize_kernels(twomode, horizon=10.0, n_grid=400)
        w = np.linalg.eigvalsh(big_p + 1j * big_l)
        assert w[0] >= -1e-8 * np.linalg.norm(big_p, 2)
        w_p = np.linalg.eigvalsh(big_p)
        assert w_p[0] >= -1e-8 * np.linalg.norm(big_p, 2)

    def test_size_guard(self, twomode):
        with pytest.raises(SizeError):
            q.discretize_kernels(twomode, horizon=10.0, n_grid=2000)

    def test_size_guard_override(self, twomode):
        big_l, _ = q.discretize_kernels(twomode, horizon=2.0, n_grid=1600,
                                        max_dim=6500)
        assert big_l.shape == (6400, 6400)

    def test_rejects_bad_grid(self, twomode):
        with pytest.raises(NumericalError):
            q.discretize_kernels(twomode, horizon=2.0, n_grid=0)
        for horizon in (-1.0, math.nan, math.inf):
            with pytest.raises(NumericalError):
                q.discretize_kernels(twomode, horizon=horizon, n_grid=16)


class TestLnXi:
    def test_zero_theta(self, twomode):
        est = q.ln_xi(twomode, 0.0, horizon=4.0, n_grid=64)
        assert est.ln_xi == 0.0 and est.spec_value == 0.0

    def test_classical_matches_direct_determinant(self, twomode, theta0):
        theta = 0.5 * theta0
        est = q.ln_xi(twomode, theta, horizon=4.0, n_grid=80, classical=True)
        _, big_p = q.discretize_kernels(twomode, 4.0, 80)
        expected = -0.5 * float(np.sum(np.log(
            1.0 - theta * np.linalg.eigvalsh(big_p))))
        assert abs(est.ln_xi - expected) < 1e-9 * max(1.0, abs(expected))

    def test_spec_value_reported_below_one(self, twomode, theta0):
        est = q.ln_xi(twomode, 0.5 * theta0, horizon=6.0, n_grid=120)
        assert 0.0 < est.spec_value < 1.0

    def test_infeasible_theta_raises(self, twomode, theta0):
        with pytest.raises(FeasibilityError):
            q.ln_xi(twomode, 40.0 * theta0, horizon=6.0, n_grid=120)

    def test_time_reversal_invariance(self, twomode, theta0):
        theta = 0.4 * theta0
        big_l, big_p = q.discretize_kernels(twomode, 5.0, 100)
        n = twomode.n
        perm = np.arange(100)[::-1]
        idx = (perm[:, None] * n + np.arange(n)[None, :]).ravel()
        l_rev = big_l[np.ix_(idx, idx)]
        p_rev = big_p[np.ix_(idx, idx)]
        a = ln_xi_from_matrices(big_l, big_p, theta)[0]
        b = ln_xi_from_matrices(l_rev, p_rev, theta)[0]
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_raises(self, twomode, theta):
        big_l, big_p = q.discretize_kernels(twomode, 2.0, 16)
        with pytest.raises(FeasibilityError, match="must be finite"):
            ln_xi_from_matrices(big_l, big_p, theta)

    @pytest.mark.parametrize("case", ["twomode", "random_odd_order"])
    def test_matches_complex_hermitian_reference(self, twomode, theta0, case):
        if case == "twomode":
            big_l, big_p = q.discretize_kernels(twomode, 4.0, 80)
            theta = 0.5 * theta0
        else:
            # odd order: a zero eigenvalue besides the +-i omega pairs
            rng = np.random.default_rng(7)
            g = rng.normal(size=(7, 7))
            big_l = 0.5 * (g - g.T)
            h = rng.normal(size=(7, 3))
            big_p = h @ h.T
            theta = 1.0
            # tanhc <= 1, so theta * lam_max(P K) <= 0.8
            big_p *= 0.8 / np.linalg.eigvalsh(big_p)[-1]
        expected, expected_spec = reference_ln_xi(big_l, big_p, theta)
        value, spec = ln_xi_from_matrices(big_l, big_p, theta)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert abs(spec - expected_spec) <= 1e-12

    def test_requires_enough_cells(self, twomode):
        with pytest.raises(NumericalError):
            q.ln_xi(twomode, 0.01, horizon=2.0, n_grid=4)

    def test_discrete_nonexpansion_spectrum(self, twomode, theta0):
        # tanhc spectrum of the discretized commutator operator lies in (0, 1]
        from qefrate._funcs import tanhc
        big_l, _ = q.discretize_kernels(twomode, horizon=4.0, n_grid=64)
        omega = np.linalg.eigvalsh(1j * big_l)
        k_eigs = np.asarray(tanhc(0.5 * theta0 * omega))
        assert np.all(k_eigs > 0.0) and np.all(k_eigs <= 1.0)


class TestConvergence:
    def test_single_horizon_passthrough(self, twomode, theta0):
        study = q.convergence_study(twomode, 0.3 * theta0, [5.0],
                                    n_per_unit_time=20)
        assert study.extrapolated_rate == study.estimates[0].per_time_rate

    def test_error_decreases_with_refinement(self, twomode, grid_full,
                                             cfg_full, theta0):
        # fixed horizon, doubled time resolution; the step is chosen coarse
        # enough that discretization bias dominates the finite-horizon term
        theta = 0.5 * theta0
        target = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
        coarse = q.ln_xi(twomode, theta, horizon=10.0, n_grid=50)
        fine = q.ln_xi(twomode, theta, horizon=10.0, n_grid=100)
        err_c = abs(coarse.per_time_rate - target)
        err_f = abs(fine.per_time_rate - target)
        assert err_f < err_c

    def test_error_decreases_with_horizon(self, twomode, grid_full, cfg_full,
                                          theta0):
        # fixed time step, doubled horizon
        theta = 0.5 * theta0
        target = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
        short = q.ln_xi(twomode, theta, horizon=10.0, n_grid=200)
        long = q.ln_xi(twomode, theta, horizon=20.0, n_grid=400)
        assert abs(long.per_time_rate - target) \
            < abs(short.per_time_rate - target)

    def test_classical_extrapolation_hits_closed_form(self, surrogate):
        theta = 0.5 * SURROGATE_A ** 2 / SURROGATE_G ** 2
        study = q.convergence_study(surrogate, theta, [10.0, 20.0, 40.0],
                                    n_per_unit_time=20, classical=True)
        exact = surrogate_v_closed(theta)
        assert abs(study.extrapolated_rate - exact) < 0.01 * exact
