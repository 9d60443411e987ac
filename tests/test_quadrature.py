"""Composite Gauss-Kronrod frequency rule, its resonance-placed panels and
the mesh-free threshold, checked against state-space references."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import qefrate as q
from qefrate import quadrature, rate
from qefrate.errors import DegeneracyError, ParameterError

from conftest import care_v, single_mode

#: theta0 of the built-in two-mode example, 1/||F||_inf^2
TWO_MODE_THETA0 = 0.09082804086534736


class TestRule:
    def test_embedded_gauss_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        gauss = quadrature.KRONROD_WEIGHTS - quadrature._DIFF_WEIGHTS
        on_gauss = gauss != 0.0
        np.testing.assert_allclose(quadrature.KRONROD_NODES[on_gauss], nodes,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss[on_gauss], weights, rtol=0,
                                   atol=1e-15)

    def test_kronrod_exact_to_degree_22(self):
        x, w = quadrature.KRONROD_NODES, quadrature.KRONROD_WEIGHTS
        for k in range(23):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(w, x ** k)) - exact) < 1e-14

    @pytest.mark.parametrize("cfg", [
        q.QuadratureConfig(cutoff=10.0, step=0.1),
        q.QuadratureConfig(cutoff=50.0, step=0.5,
                           edges=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0))],
        ids=["uniform", "edges"])
    def test_half_line_lorentzian(self, cfg):
        # integral over [0, inf) of a / (a^2 + lam^2) is pi/2, a 1/lam^2
        # tail included
        lam = cfg.lambdas()
        res = cfg.half_line(1.0 / (1.0 + lam ** 2))
        assert abs(res.value - 0.5 * math.pi) < 1e-12
        assert abs(res.tail - math.atan(1.0 / cfg.cutoff)) < 1e-14
        assert res.error < rate.QUAD_AGREEMENT * res.value

    def test_layout(self, cfg_full, cfg_coarse):
        for cfg in (cfg_full, cfg_coarse):
            lam = cfg.lambdas()
            assert cfg.n_intervals + 1 == len(lam)
            assert len(lam) % quadrature.PANEL_NODES == 0
            assert lam[0] > 0.0 and np.all(np.diff(lam) > 0.0)
            assert lam[-quadrature.PANEL_NODES - 1] < cfg.cutoff \
                < lam[-quadrature.PANEL_NODES]
        assert cfg_full.rule == "gauss-kronrod-15/resonance"
        assert cfg_coarse.rule == "gauss-kronrod-15/uniform"

    @pytest.mark.parametrize("cutoff, step", [(100.0, 0.05), (10.0, 0.0025),
                                              (60.0, 0.15)])
    def test_uniform_node_count_follows_step(self, cutoff, step):
        n = len(q.QuadratureConfig(cutoff=cutoff, step=step).lambdas())
        per_panel = quadrature.PANEL_NODES
        assert cutoff / step <= n - per_panel < cutoff / step + per_panel

    def test_for_system_keeps_cutoff_and_step(self, twomode, random_models):
        for ss in [twomode, *random_models]:
            cfg = q.QuadratureConfig.for_system(ss)
            rad = float(np.max(np.abs(np.linalg.eigvals(ss.a))))
            cutoff = max(100.0, 10.0 * rad)
            assert (cfg.cutoff, cfg.step) == (cutoff, 0.005 * (cutoff / 100.0))
            assert all(0.0 < e < cfg.cutoff for e in cfg.edges)

    def test_edges_bracket_resonances(self):
        ss = single_mode(1e-3)
        edges = np.array(q.QuadratureConfig.for_system(ss).edges)
        assert np.any(np.isclose(edges, 1.0, rtol=0, atol=1e-15))
        for s in (2.5e-4, 5e-4, 1e-3, 2e-3):
            assert np.any(np.isclose(edges, 1.0 - s, rtol=0, atol=1e-15))
            assert np.any(np.isclose(edges, 1.0 + s, rtol=0, atol=1e-15))

    def test_sample_count_mismatch_raises(self, cfg_coarse):
        with pytest.raises(ParameterError):
            cfg_coarse.half_line(np.ones(cfg_coarse.n_intervals))

    @pytest.mark.parametrize("cutoff,step", [
        (math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1), (10.0, math.nan),
        (10.0, math.inf), (10.0, -0.1)])
    def test_cutoff_and_step_must_be_positive_and_finite(self, cutoff, step):
        with pytest.raises(ParameterError, match="positive and finite"):
            q.QuadratureConfig(cutoff=cutoff, step=step)


class TestTwoModeRule:
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_v_matches_riccati(self, twomode, grid_full, cfg_full, frac):
        theta = frac * TWO_MODE_THETA0
        res = q.upsilon_from_grid(grid_full, theta, cfg_full)
        ref = care_v(twomode, theta)
        assert abs(res.classical_v - ref) <= 1e-10 * ref
        assert res.converged
        assert 0.0 <= res.quad_error <= 1e-6 * res.upsilon

    @pytest.mark.parametrize("cutoff", [20.0, 1000.0, 1e4])
    def test_cutoff_override(self, twomode, cfg_full, cutoff):
        theta = 0.5 * TWO_MODE_THETA0
        base = q.upsilon(twomode, theta, cfg_full)
        res = q.upsilon(twomode, theta,
                        dataclasses.replace(cfg_full, cutoff=cutoff))
        assert res.converged
        assert abs(res.upsilon - base.upsilon) <= 1e-10 * base.upsilon

    def test_threshold_value(self, theta0):
        assert abs(theta0 - TWO_MODE_THETA0) <= 1e-12 * TWO_MODE_THETA0


@pytest.mark.parametrize("damping", [1e-2, 1e-3])
def test_single_mode_resonance_resolved(damping):
    # a step scaled with the cutoff only used to miss these resonances:
    # V off by 3.5e-3 (damping 1e-2) and by 46% (1e-3)
    ss = single_mode(damping)
    cfg = q.QuadratureConfig.for_system(ss)
    theta0 = q.theta_threshold(ss, cfg)
    assert abs(theta0 - 0.5 * damping) <= 1e-12 * theta0
    res = q.upsilon(ss, 0.5 * theta0, cfg)
    ref = care_v(ss, 0.5 * theta0)
    assert res.converged
    assert abs(res.classical_v - ref) <= 1e-8 * ref


@st.composite
def lightly_damped_models(draw):
    """One mode with Hurwitz margin in [1e-3, 1e-1], random input and
    weight, and a risk parameter fraction of theta0."""
    margin = 10.0 ** draw(st.floats(-3.0, -1.0))
    freq = draw(st.floats(0.2, 5.0))
    m = draw(st.sampled_from([2, 4]))
    entries = st.floats(-1.0, 1.0)
    g = np.array(draw(st.lists(entries, min_size=2 * m, max_size=2 * m)))
    l = np.array(draw(st.lists(entries, min_size=4, max_size=4)))
    frac = draw(st.floats(0.1, 0.9))
    a = np.array([[-margin, freq], [-freq, -margin]])
    b = math.sqrt(2.0 * margin) * g.reshape(2, m)
    l = l.reshape(2, 2)
    return a, b, l @ l.T + 0.5 * np.eye(2), frac


@given(lightly_damped_models())
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_lightly_damped_v_matches_riccati(case):
    a, b, pi, frac = case
    try:
        ss = q.from_state_space(a, b, pi)
    except DegeneracyError:
        assume(False)
    cfg = q.QuadratureConfig.for_system(ss)
    theta = frac * q.theta_threshold(ss, cfg)
    ref = care_v(ss, theta)
    assert q.classical_v(ss, theta, cfg) == pytest.approx(ref, rel=1e-8, abs=0)
    assert q.upsilon(ss, theta, cfg).converged


def dense_threshold(ss: q.StateSpace) -> float:
    """1/lam_max(Phi) from a dense uniform scan and a bounded refinement
    between the neighbours of the best node."""
    rad = float(np.max(np.abs(np.linalg.eigvals(ss.a))))
    lam = np.linspace(0.0, 4.0 * rad, 20001)
    peaks = q.sample_grid(ss, lam).phi_eigvals[:, -1]
    k = int(np.argmax(peaks))

    def neg_peak(x: float) -> float:
        return -float(q.sample_grid(ss, np.array([x])).phi_eigvals[0, -1])

    res = minimize_scalar(neg_peak, bounds=(lam[max(k - 1, 0)],
                                            lam[min(k + 1, len(lam) - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return 1.0 / max(float(peaks[k]), -float(res.fun))


def test_threshold_matches_dense_scan(random_models, cfg_coarse):
    for ss in random_models:
        ref = dense_threshold(ss)
        assert abs(q.theta_threshold(ss, cfg_coarse) - ref) <= 1e-9 * ref
