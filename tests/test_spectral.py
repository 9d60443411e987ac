"""Transfer function, spectral pair, matrix trigonometry, feasibility."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qefrate as q
from qefrate._funcs import lncosh, sinhc, tanhc
from qefrate import spectral
from qefrate.errors import SingularityError
from qefrate.spectral import grid_for, trig_bundle


def adjugate_inverse(m: np.ndarray) -> np.ndarray:
    """Cofactor-expansion inverse (test oracle, independent of LU)."""
    n = m.shape[0]
    cof = np.empty_like(m, dtype=complex)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T / np.linalg.det(m)


class TestScalarFunctions:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_tanhc_range(self, x):
        val = tanhc(x)
        assert 0.0 < val <= 1.0

    @given(st.floats(min_value=-1e-3, max_value=1e-3))
    @settings(max_examples=200, deadline=None)
    def test_sinhc_series_matches_direct(self, x):
        direct = np.sinh(x) / x if x != 0 else 1.0
        assert abs(sinhc(x) - direct) < 1e-14

    @given(st.floats(min_value=-800.0, max_value=800.0))
    @settings(max_examples=200, deadline=None)
    def test_lncosh_stable(self, x):
        val = lncosh(x)
        assert np.isfinite(val)
        if abs(x) < 600:
            assert abs(val - np.log(np.cosh(x))) < 1e-10 * max(1.0, abs(x))

    @given(st.floats(min_value=1e-100, max_value=1e-3), st.sampled_from([-1, 1]))
    @settings(max_examples=200, deadline=None)
    def test_lncosh_small_argument_relative(self, x, sign):
        # log(cosh x) = x^2/2 - x^4/12 + x^6/45 - ... to full relative precision
        expected = x * x / 2.0 - x ** 4 / 12.0 + x ** 6 / 45.0
        assert abs(lncosh(sign * x) - expected) <= 1e-14 * expected

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_tanhc_cosh_is_sinhc(self, x):
        assert abs(tanhc(x) * np.cosh(x) - sinhc(x)) < 1e-12 * max(1.0, abs(sinhc(x)))


class TestTransfer:
    def test_resolvent_identity(self, twomode):
        rng = np.random.default_rng(3)
        for _ in range(5):
            v1, v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            f1 = q.transfer(twomode, v1)
            f2 = q.transfer(twomode, v2)
            n = twomode.n
            inner = np.linalg.solve(v1 * np.eye(n) - twomode.a,
                                    np.linalg.solve(v2 * np.eye(n) - twomode.a,
                                                    twomode.b))
            rhs = (v2 - v1) * twomode.s_half @ inner
            assert np.allclose(f1 - f2, rhs, atol=1e-10)

    def test_zero_frequency_against_adjugate(self, twomode):
        f0 = q.transfer(twomode, 0.0)
        inv = adjugate_inverse(twomode.a.astype(complex))
        assert np.allclose(f0, -twomode.s_half @ inv @ twomode.b, atol=1e-10)

    def test_strictly_proper_decay(self, twomode):
        a_norm = np.linalg.norm(twomode.a, 2)
        bound_coeff = np.linalg.norm(twomode.s_half, 2) * np.linalg.norm(twomode.b, 2)
        for lam in [20.0, 100.0, 500.0]:
            f = q.transfer(twomode, 1j * lam)
            assert np.linalg.norm(f, 2) <= bound_coeff / (lam - a_norm)

    def test_eigenvalue_singularity(self, twomode):
        v = np.linalg.eigvals(twomode.a)[0]
        with pytest.raises(SingularityError):
            q.transfer(twomode, v)


class TestSpectralSample:
    @pytest.mark.parametrize("lam", [0.0, 0.7, 4.3, 25.0])
    def test_phi_psd(self, twomode, lam):
        s = q.spectral_sample(twomode, lam)
        w = np.linalg.eigvalsh(s.phi)
        assert w[0] >= -1e-12 * max(w[-1], 1.0)

    @pytest.mark.parametrize("lam", [0.7, 4.3])
    def test_structure(self, twomode, lam):
        s = q.spectral_sample(twomode, lam)
        assert np.array_equal(s.phi, s.phi.conj().T)
        assert np.array_equal(s.psi, -s.psi.conj().T)
        assert np.array_equal(s.h, s.h.conj().T)

    @pytest.mark.parametrize("lam", [0.9, 3.3, 12.0])
    def test_conjugate_mirror(self, twomode, lam):
        plus = q.spectral_sample(twomode, lam)
        minus = q.spectral_sample(twomode, -lam)
        assert np.max(np.abs(plus.phi - np.conj(minus.phi))) < 1e-12
        assert np.max(np.abs(plus.psi - np.conj(minus.psi))) < 1e-12

    def test_det_psi_identity_log_spaced(self, twomode):
        n = twomode.n
        det_pi = np.linalg.det(twomode.weight)
        det_noise = np.linalg.det(twomode.b @ twomode.j @ twomode.b.T)
        for lam in np.geomspace(0.05, 80.0, 12):
            s = q.spectral_sample(twomode, float(lam))
            lhs = np.linalg.det(s.psi)
            denom = abs(np.linalg.det(1j * lam * np.eye(n) - twomode.a)) ** 2
            rhs = det_pi * det_noise / denom
            assert abs(lhs - rhs) < 1e-8 * abs(rhs)
            assert abs(lhs.imag) < 1e-10 * abs(lhs.real)


class TestTrigBundle:
    def test_theta_zero_is_identity(self, twomode):
        s = q.spectral_sample(twomode, 1.3)
        tb = trig_bundle(s, 0.0)
        eye = np.eye(twomode.n)
        assert np.allclose(tb.cos_tp, eye, atol=1e-14)
        assert np.allclose(tb.sinc_tp, eye, atol=1e-14)
        assert np.allclose(tb.tanc_tp, eye, atol=1e-14)

    def test_vanishing_commutator_gives_identity(self, twomode):
        s = q.spectral_sample(twomode, 1.3)
        zero = q.SpectralSample(lam=s.lam, phi=s.phi, psi=0.0 * s.psi,
                                h=0.0 * s.h)
        tb = trig_bundle(zero, 0.4)
        assert np.allclose(tb.cos_tp, np.eye(twomode.n), atol=1e-14)
        assert np.allclose(tb.sinc_tp, np.eye(twomode.n), atol=1e-14)
        assert np.allclose(tb.tanc_tp, np.eye(twomode.n), atol=1e-14)

    def test_tanc_cos_equals_sinc(self, random_models):
        rng = np.random.default_rng(7)
        for ss in random_models[:8]:
            lam = float(rng.uniform(0.0, 5.0))
            s = q.spectral_sample(ss, lam)
            tb = trig_bundle(s, 0.3)
            assert np.max(np.abs(tb.tanc_tp @ tb.cos_tp - tb.sinc_tp)) < 1e-12 \
                * max(1.0, np.linalg.norm(tb.sinc_tp))

    def test_hyperbolic_pythagoras_per_eigenvalue(self, twomode):
        s = q.spectral_sample(twomode, 2.2)
        w = np.linalg.eigvalsh(s.h)
        x = 0.37 * w
        assert np.max(np.abs(np.cosh(x) ** 2 - np.sinh(x) ** 2 - 1.0)) < 1e-12

    def test_cos_eigenvalues_at_least_one(self, twomode):
        s = q.spectral_sample(twomode, 2.2)
        tb = trig_bundle(s, 0.5)
        assert np.min(np.linalg.eigvalsh(tb.cos_tp)) >= 1.0 - 1e-12

    def test_tanc_eigenvalues_in_unit_interval(self, twomode):
        s = q.spectral_sample(twomode, 2.2)
        tb = trig_bundle(s, 0.5)
        w = np.linalg.eigvalsh(tb.tanc_tp)
        assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)


class TestFeasibilityMargin:
    def test_zero_theta(self, twomode, cfg_coarse):
        assert q.upsilon(twomode, 0.0, cfg_coarse).margin == 0.0

    def test_below_classical_bound(self, twomode, cfg_coarse, theta0):
        # tanhc <= 1 makes each per-frequency value at most theta*lam_max(Phi)
        theta = 0.5 * theta0
        margin = q.upsilon(twomode, theta, cfg_coarse).margin
        assert margin <= theta / theta0 + 1e-9

    def test_feasible_at_high_theta(self, grid_full, cfg_full, theta0):
        assert q.upsilon_from_grid(grid_full, 0.9 * theta0,
                                   cfg_full).margin < 1.0


class TestGridCache:
    """One spectral grid per (model, rule), sampled on first use."""

    @pytest.fixture()
    def sampled(self, monkeypatch):
        """Rules of every ``sample_grid`` call made through the cache."""
        calls = []
        original = spectral.sample_grid

        def counting(ss, lambdas):
            calls.append(len(lambdas))
            return original(ss, lambdas)

        monkeypatch.setattr(spectral, "sample_grid", counting)
        return calls

    def test_every_entry_point_samples_once(self, sampled):
        ss = q.two_mode_example()
        cfg = q.QuadratureConfig.for_system(ss)
        theta0 = q.theta_threshold(ss, cfg)
        for f in (0.2, 0.5, 0.8):
            q.upsilon(ss, f * theta0, cfg)
        q.classical_v(ss, 0.5 * theta0, cfg)
        q.small_theta_expansion(ss, theta0 / 8.0, cfg)
        thetas = np.linspace(0.05, 0.95, 5) * theta0
        q.tail_bound(ss, 1.5 * q.lqg_rate(ss), thetas, cfg)
        q.worst_case_lqg_bound(ss, 0.05, thetas, cfg)
        q.rate_by_homotopy(ss, 0.5 * theta0, 0.05 * theta0, cfg)
        assert sampled == [cfg.n_intervals + 1]

    def test_another_rule_samples_again(self, sampled):
        ss = q.two_mode_example()
        fine = q.QuadratureConfig.for_system(ss)
        coarse = q.QuadratureConfig(cutoff=100.0, step=0.25)
        assert grid_for(ss, fine) is grid_for(ss, fine)
        grid_coarse = grid_for(ss, coarse)
        assert len(grid_coarse.lambdas) == coarse.n_intervals + 1
        # one slot per model: the first rule was replaced
        grid_for(ss, fine)
        assert len(sampled) == 3

    def test_replace_starts_with_empty_cache(self, sampled):
        ss = q.two_mode_example()
        cfg = q.QuadratureConfig(cutoff=100.0, step=0.25)
        q.upsilon(ss, 0.02, cfg)
        q.theta_threshold(ss, cfg)
        twin = dataclasses.replace(ss, residual_tol=2.0 * ss.residual_tol)
        assert not {"_spectral_grid", "_theta0"} & set(vars(twin))
        q.upsilon(twin, 0.02, cfg)
        assert len(sampled) == 2

    def test_model_arrays_read_only(self):
        ref = q.two_mode_example()
        a = np.array(ref.a)
        ss = q.from_state_space(a, ref.b, ref.weight)
        for name in ("a", "b", "j", "weight", "s_half", "sigma", "theta_ccr"):
            with pytest.raises(ValueError):
                getattr(ss, name)[0, 0] = 1.0
        # the caller's array is copied, not frozen
        a[0, 0] += 0.0

    def test_cached_upsilon_bit_identical(self, twomode, theta0):
        cfg = q.QuadratureConfig.for_system(twomode)
        for f in (0.05, 0.5, 0.95):
            cached = q.upsilon(twomode, f * theta0, cfg)
            fresh = q.upsilon_from_grid(q.sample_grid(twomode, cfg.lambdas()),
                                        f * theta0, cfg)
            assert cached == fresh
