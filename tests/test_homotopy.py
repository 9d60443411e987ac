"""Riccati march in the risk parameter and its structural checks."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qefrate as q
from qefrate import homotopy
from qefrate._funcs import hermitize
from qefrate.errors import FeasibilityError
from qefrate.homotopy import (_guard_floor, _guarded_step, _march,
                              _RiccatiStack, rate_by_homotopy)
from qefrate.spectral import grid_for

from conftest import (SURROGATE_A, SURROGATE_G, d_second_derivative_check,
                      surrogate_v_closed, u_direct, u_ode_step, uniform_rule)


def synthetic_sample(phi: np.ndarray, psi: np.ndarray,
                     lam: float = 1.0) -> q.SpectralGrid:
    """A one-node grid holding the given Phi and Psi."""
    return q.SpectralGrid(lambdas=np.array([lam]), phi=phi[None],
                          psi=psi[None])


def reference_march(grid, theta_max, d_theta, cfg):
    """The complex-stack march: RK4 on u @ u, hermitize, norm guard.

    Returns (rate, rate_derivative, final u), or the FeasibilityError of
    the first escape.
    """
    n_steps = max(1, int(math.ceil(theta_max / d_theta - 1e-12)))
    h, psi_sq, u = theta_max / n_steps, grid.psi @ grid.psi, grid.phi.astype(complex)
    floor = np.maximum(np.linalg.norm(grid.psi, axis=(1, 2)), 1e-300)
    norms = np.linalg.norm(u, axis=(1, 2))

    def rhs(v):
        return psi_sq + v @ v

    def derivative(v):
        tr = np.real(np.trace(v, axis1=1, axis2=2))
        return cfg.half_line(tr).value / (2.0 * math.pi)

    derivs = [derivative(u)]
    for k in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = hermitize(u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        new_norms = np.linalg.norm(u, axis=(1, 2))
        escaped = np.flatnonzero(
            new_norms > homotopy.GROWTH_GUARD * np.maximum(norms, floor))
        if escaped.size:
            return FeasibilityError("escape", theta=(k + 1) * h,
                                    lam=float(grid.lambdas[escaped[0]]))
        norms = new_norms
        derivs.append(derivative(u))
    derivs = np.array(derivs)
    rate = np.concatenate([[0.0], np.cumsum(0.5 * h * (derivs[1:] + derivs[:-1]))])
    return rate, derivs, u


class TestUDirect:
    def test_theta_zero_is_phi(self, twomode):
        s = q.sample_grid(twomode, [1.9])
        assert np.max(np.abs(u_direct(s, 0.0) - s.phi)) < 1e-12

    def test_classical_resolvent_form(self, twomode):
        s = q.sample_grid(twomode, [1.9])
        zero = dataclasses.replace(s, psi=0.0 * s.psi)
        theta = 0.05
        expected = np.linalg.solve(np.eye(twomode.n) - theta * s.phi, s.phi)
        assert np.max(np.abs(u_direct(zero, theta) - expected)) < 1e-10

    def test_hermitian_before_symmetrization(self, twomode, theta0):
        # evaluate the raw closed form and measure its Hermiticity defect
        s = q.sample_grid(twomode, [2.4])
        theta = 0.5 * theta0
        cos_m, sinc_m, _ = s.trig(theta)
        sin_m = theta * s.psi @ sinc_m
        raw = (s.psi @ np.linalg.solve(s.psi @ cos_m - s.phi @ sin_m,
                                       s.phi @ cos_m + s.psi @ sin_m))[0]
        assert np.linalg.norm(raw - raw.conj().T) < 1e-10


    def test_singular_node_named(self):
        # D = I - theta Phi vanishes at the second node only
        phi = np.stack([0.5 * np.eye(2), np.eye(2)]).astype(complex)
        grid = q.SpectralGrid(lambdas=np.array([1.0, 2.0]), phi=phi,
                              psi=np.zeros_like(phi))
        with pytest.raises(FeasibilityError) as err:
            u_direct(grid, 1.0)
        assert err.value.lam == 2.0


class TestStackedNodes:
    """The per-frequency checks take a grid of any size, node by node."""

    def test_stack_matches_one_node_grids(self, twomode, theta0):
        lams = [0.5, 4.3, 12.0]
        grid = q.sample_grid(twomode, lams)
        theta = 0.5 * theta0
        u = u_direct(grid, theta)
        stepped = u_ode_step(grid, u, theta, 0.01 * theta0)
        for k, lam in enumerate(lams):
            one = q.sample_grid(twomode, [lam])
            u_one = u_direct(one, theta)
            stepped_one = u_ode_step(one, u_one, theta, 0.01 * theta0)
            assert np.max(np.abs(u[k] - u_one[0])) \
                <= 1e-13 * np.max(np.abs(u_one))
            assert np.max(np.abs(stepped[k] - stepped_one[0])) \
                <= 1e-13 * np.max(np.abs(stepped_one))
        worst = max(d_second_derivative_check(q.sample_grid(twomode, [lam]),
                                              theta) for lam in lams)
        assert d_second_derivative_check(grid, theta) \
            == pytest.approx(worst, rel=1e-6)


class TestUOdeStep:
    def test_scalar_riccati_order(self, twomode):
        # psi = 0, scalar u' = u^2 has solution phi/(1 - theta phi)
        phi = np.diag([0.8, 0.8]).astype(complex)
        s = synthetic_sample(phi, np.zeros((2, 2), dtype=complex))

        def march(n_steps, theta_end=0.5):
            h = theta_end / n_steps
            u = s.phi.copy()
            for k in range(n_steps):
                u = u_ode_step(s, u, k * h, h)
            return u[0, 0, 0].real

        exact = 0.8 / (1.0 - 0.5 * 0.8)
        err_coarse = abs(march(20) - exact)
        err_fine = abs(march(40) - exact)
        assert err_fine < err_coarse / 12.0   # fourth-order step halving

    def test_pure_commutator_start(self, twomode, theta0):
        # Phi = 0 gives U = Psi tan(theta Psi), reachable from u_direct
        s = q.sample_grid(twomode, [1.2])
        stripped = dataclasses.replace(s, phi=np.zeros_like(s.phi))
        theta_end = 0.5 * theta0
        n_steps = 60
        h = theta_end / n_steps
        u = np.zeros_like(s.phi)
        for k in range(n_steps):
            u = u_ode_step(stripped, u, k * h, h)
        assert np.max(np.abs(u - u_direct(stripped, theta_end))) < 1e-8

    def test_growth_guard_trips(self):
        phi = np.diag([1.0, 1.0]).astype(complex)
        s = synthetic_sample(phi, np.zeros((2, 2), dtype=complex))
        u = s.phi.copy()
        with pytest.raises(FeasibilityError):
            # one huge step across the finite-escape point theta = 1 of
            # the scalar equation u' = u^2 started from u = 1
            u_ode_step(s, u, 0.0, 2.0)


class TestHopfColeEquivalence:
    # the resonance peak needs finer marching at 0.9 theta0, where the
    # Riccati state stiffens as the feasibility margin closes
    @pytest.mark.parametrize("lam,n_steps", [(1.0, 90), (4.3, 720)])
    def test_march_matches_closed_form(self, twomode, theta0, lam, n_steps):
        s = q.sample_grid(twomode, [lam])
        theta_end = 0.9 * theta0
        h = theta_end / n_steps
        u = s.phi.astype(complex)
        herm_defect = 0.0
        for k in range(n_steps):
            u_raw = u_ode_step(s, u, k * h, h)
            herm_defect = max(herm_defect, float(np.linalg.norm(
                u_raw - np.swapaxes(u_raw, 1, 2).conj())))
            u = u_raw
        assert np.max(np.abs(u - u_direct(s, theta_end))) < 1e-6
        assert herm_defect < 1e-9


class TestRateByHomotopy:
    def test_zero_target(self, twomode, cfg_coarse):
        tr = rate_by_homotopy(twomode, 0.0, 1e-3, cfg_coarse)
        assert len(tr.rate) == 1 and tr.rate[0] == 0.0

    @pytest.mark.parametrize("theta_max,d_theta", [
        (math.nan, 1e-3), (math.inf, 1e-3), (0.01, math.nan), (0.01, math.inf)])
    def test_non_finite_parameters_rejected(self, twomode, cfg_coarse,
                                            theta_max, d_theta):
        with pytest.raises(FeasibilityError, match="must be finite"):
            rate_by_homotopy(twomode, theta_max, d_theta, cfg_coarse)

    def test_trace_structure(self, twomode, cfg_coarse, theta0):
        tr = rate_by_homotopy(twomode, 0.3 * theta0, 0.02 * theta0, cfg_coarse)
        assert tr.rate[0] == 0.0
        assert abs(tr.rate_derivative[0] - q.lqg_rate(twomode)) \
            < 1e-3 * q.lqg_rate(twomode)
        assert np.all(np.diff(tr.rate) >= -1e-15)

    def test_trace_retains_no_node_stack(self, twomode, cfg_full, theta0):
        # a finished march keeps its scalar curve only: what a live trace
        # holds is far below one complex stack of states at the nodes
        grid = grid_for(twomode, cfg_full)
        assert grid.phi.shape == (360, 4, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr = rate_by_homotopy(twomode, 0.5 * theta0, 0.05 * theta0,
                                  cfg_full)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr.rate) == 11
        assert retained < 0.1 * 360 * 16 * 16

    def test_classical_surrogate_matches_closed_form(self, surrogate):
        cfg = q.QuadratureConfig.for_system(surrogate)
        grid = q.sample_grid(surrogate, cfg.lambdas())
        classical = dataclasses.replace(grid, psi=0.0 * grid.psi)
        theta_end = 0.5 * SURROGATE_A ** 2 / SURROGATE_G ** 2
        tr = _march(classical, theta_end, theta_end / 200.0, cfg)
        exact = surrogate_v_closed(theta_end)
        assert abs(tr.rate[-1] - exact) < 1e-6 * exact

    def test_step_halving_stability(self, surrogate):
        cfg = uniform_rule(100.0, 0.05)
        theta_end = 0.4 * SURROGATE_A ** 2 / SURROGATE_G ** 2
        a = rate_by_homotopy(surrogate, theta_end, theta_end / 50.0, cfg)
        b = rate_by_homotopy(surrogate, theta_end, theta_end / 100.0, cfg)
        assert abs(a.rate[-1] - b.rate[-1]) < 1e-6 * abs(b.rate[-1])

    def test_escape_detected_beyond_feasible_range(self, twomode, theta0):
        # a 4020-node stack, whose escaping frequency lies deep inside it
        cfg = uniform_rule(10.0, 0.0025)
        grid = q.sample_grid(twomode, cfg.lambdas())
        with pytest.raises(FeasibilityError) as err:
            _march(grid, 40.0 * theta0, 0.4 * theta0, cfg)
        assert err.value.lam is not None
        ref = reference_march(grid, 40.0 * theta0, 0.4 * theta0, cfg)
        assert isinstance(ref, FeasibilityError)
        assert (err.value.theta, err.value.lam) == (ref.theta, ref.lam)

    def test_matches_complex_reference(self, twomode, theta0):
        cfg = uniform_rule(100.0, 0.025)
        grid = q.sample_grid(twomode, cfg.lambdas())
        tr = _march(grid, 0.9 * theta0, 0.01 * theta0, cfg)
        rate, derivs, u = reference_march(grid, 0.9 * theta0, 0.01 * theta0, cfg)
        np.testing.assert_allclose(tr.rate, rate, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(tr.rate_derivative, derivs, rtol=1e-13,
                                   atol=0.0)
        # the trace keeps no states: step a stack as the march does
        n_steps = len(tr.theta_grid) - 1
        h = 0.9 * theta0 / n_steps
        st = _RiccatiStack(grid.phi, grid.psi, _guard_floor(grid))
        for theta in tr.theta_grid[1:]:
            _guarded_step(st, h, float(theta), grid.lambdas)
        err = np.linalg.norm(st.x + 1j * st.y - u, axis=(1, 2))
        assert np.all(err <= 1e-13 * np.linalg.norm(u, axis=(1, 2)))

    def test_cross_method_agreement(self, surrogate):
        cfg = uniform_rule(100.0, 0.02)
        grid = q.sample_grid(surrogate, cfg.lambdas())
        theta_end = 0.6 * SURROGATE_A ** 2 / SURROGATE_G ** 2
        tr = _march(grid, theta_end, theta_end / 100.0, cfg)
        for k in range(10, 101, 30):
            direct = q.upsilon_from_grid(grid, float(tr.theta_grid[k]),
                                         cfg).upsilon
            assert abs(tr.rate[k] - direct) < 1e-4 * max(direct, 1e-12)


class TestSecondDerivativeStructure:
    def test_residual_small_at_zero(self, twomode):
        s = q.sample_grid(twomode, [1.5])
        assert d_second_derivative_check(s, 0.0) < 1e-6

    def test_residual_small_at_random_sample(self, twomode, theta0):
        s = q.sample_grid(twomode, [3.1])
        assert d_second_derivative_check(s, 0.4 * theta0) < 1e-6

    def test_vanishing_commutator_leaves_noise(self, twomode):
        # D is then linear in theta; the residual is pure differencing
        # roundoff, of order machine epsilon / D2_STEP^2
        s = q.sample_grid(twomode, [3.1])
        zeroed = dataclasses.replace(s, psi=0.0 * s.psi)
        assert d_second_derivative_check(zeroed, 0.03) < 1e-7
