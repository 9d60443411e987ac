"""Model construction, validation, and kernel evaluation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qefrate as q
from qefrate.errors import (DegeneracyError, DimensionError, ParameterError,
                            StabilityError)
from qefrate.model import BJ2, build_j_matrix


def expm_series(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Brute-force Taylor series of the matrix exponential (test oracle)."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestBuildJMatrix:
    def test_two_channels(self):
        assert np.array_equal(build_j_matrix(2), BJ2)

    def test_square_is_minus_identity(self):
        j = build_j_matrix(2)
        assert np.array_equal(j @ j, -np.eye(2))

    def test_six_channels_orthogonal_antisymmetric(self):
        j = build_j_matrix(6)
        assert np.allclose(j @ j.T, np.eye(6))
        assert np.array_equal(j, -j.T)
        assert np.array_equal(j @ j, -np.eye(6))
        assert np.array_equal(j, np.kron(BJ2, np.eye(3)))

    @pytest.mark.parametrize("bad", [0, 1, 3, 5, -2])
    def test_rejects_bad_channel_count(self, bad):
        with pytest.raises(DimensionError):
            build_j_matrix(bad)


class TestRealize:
    def test_onemode_eigenvalues(self):
        # M' J M = 0.5 BJ2 realized by det(M) = 0.5 for a 2x2 coupling
        params = q.OqhoParams(theta_ccr=0.5 * BJ2, energy=np.eye(2),
                              coupling=np.diag([1.0, 0.5]), weight=np.eye(2))
        ss = q.realize(params)
        eig = np.sort_complex(np.linalg.eigvals(ss.a))
        assert np.allclose(eig, [-0.5 - 1.0j, -0.5 + 1.0j], atol=1e-12)

    def test_pr_residual_tiny(self, random_models):
        for ss in random_models[:10]:
            scale = 1.0 + np.linalg.norm(ss.a) * np.linalg.norm(ss.theta_ccr)
            assert ss.pr_residual() < 1e-10 * scale

    def test_rejects_non_pd_weight(self):
        params = dict(theta_ccr=0.5 * BJ2, energy=np.eye(2),
                      coupling=np.diag([1.0, 0.5]))
        with pytest.raises(ParameterError):
            q.realize(q.OqhoParams(weight=np.diag([1.0, -1.0]), **params))

    def test_rejects_unstable(self):
        # det(M) < 0 flips the damping sign; drift eigenvalues +1/2 +/- i
        params = q.OqhoParams(theta_ccr=0.5 * BJ2, energy=np.eye(2),
                              coupling=np.diag([1.0, -0.5]), weight=np.eye(2))
        with pytest.raises(StabilityError):
            q.realize(params)


class TestOqhoParamsValidation:
    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            q.OqhoParams(theta_ccr=np.zeros((3, 3)), energy=np.eye(3),
                         coupling=np.ones((2, 3)), weight=np.eye(3))

    def test_non_antisymmetric_theta_rejected(self):
        with pytest.raises(ParameterError):
            q.OqhoParams(theta_ccr=np.eye(2), energy=np.eye(2),
                         coupling=np.ones((2, 2)), weight=np.eye(2))

    def test_singular_theta_rejected(self):
        with pytest.raises(ParameterError):
            q.OqhoParams(theta_ccr=np.zeros((2, 2)), energy=np.eye(2),
                         coupling=np.ones((2, 2)), weight=np.eye(2))

    def test_asymmetric_energy_rejected(self):
        with pytest.raises(ParameterError):
            q.OqhoParams(theta_ccr=0.5 * BJ2,
                         energy=np.array([[1.0, 2.0], [0.0, 1.0]]),
                         coupling=np.ones((2, 2)), weight=np.eye(2))


class TestFromStateSpace:
    def test_twomode_spectrum(self, twomode):
        eig = np.linalg.eigvals(twomode.a)
        expected = np.array([-3.4734 + 2.6849j, -3.4734 - 2.6849j,
                             -2.2911 + 4.1584j, -2.2911 - 4.1584j])
        for e in expected:
            assert np.min(np.abs(eig - e)) < 1e-3

    def test_twomode_norm(self, twomode):
        assert abs(np.linalg.norm(twomode.a, 2) - 9.4475) < 1e-3

    def test_twomode_sigma_residual(self, twomode):
        scale = 1.0 + np.linalg.norm(twomode.a) * np.linalg.norm(twomode.sigma)
        assert twomode.sigma_residual() < 1e-10 * scale

    def test_recovered_theta_from_diagonal_drift(self):
        # A = -I, B = I: commutation matrix solves -2 Theta + BJ2 = 0
        ss = q.from_state_space(-np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(ss.theta_ccr, 0.5 * BJ2, atol=1e-14)

    def test_recovered_theta_matches_gramian_integral(self, twomode):
        # independent oracle: Simpson quadrature of the decaying Gramian
        from scipy.linalg import expm
        noise = twomode.b @ twomode.j @ twomode.b.T
        taus = np.linspace(0.0, 30.0, 6001)
        h = taus[1] - taus[0]
        step = expm(h * twomode.a)
        weights = np.ones(len(taus))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        e_t = np.eye(twomode.n)
        acc = np.zeros_like(noise)
        for w in weights:
            acc += w * e_t @ noise @ e_t.T
            e_t = e_t @ step
        gramian = acc * h / 3.0
        assert np.allclose(gramian, twomode.theta_ccr, atol=1e-6)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            q.from_state_space(np.eye(2), np.eye(2), np.eye(2))

    def test_rejects_odd_dimensions(self):
        with pytest.raises(DimensionError):
            q.from_state_space(-np.eye(2), np.ones((2, 3)), np.eye(2))

    def test_rejects_zero_input(self):
        with pytest.raises(DegeneracyError):
            q.from_state_space(-np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_rejects_inconsistent_theta(self, twomode):
        with pytest.raises(ParameterError):
            q.from_state_space(twomode.a, twomode.b, twomode.weight,
                               theta_ccr=1.7 * twomode.theta_ccr)

    def test_roundtrip_matches_realize(self, random_models):
        for ss in random_models[:5]:
            back = q.from_state_space(ss.a, ss.b, ss.weight)
            assert np.allclose(back.sigma, ss.sigma, atol=1e-10)
            assert np.allclose(back.theta_ccr, ss.theta_ccr, atol=1e-10)

    def test_sigma_positive_semidefinite(self, random_models):
        for ss in random_models[:10]:
            w = np.linalg.eigvalsh(ss.sigma)
            assert w[0] > -1e-10 * max(w[-1], 1.0)

    def test_weight_root_squares_back(self, twomode):
        assert np.allclose(twomode.s_half @ twomode.s_half, twomode.weight,
                           atol=1e-12)
        assert np.array_equal(twomode.s_half, twomode.s_half.T)


class TestDriftSpectrum:
    @pytest.mark.parametrize("build", ["from_state_space", "realize"])
    def test_solved_once_per_model(self, monkeypatch, twomode, onemode_params,
                                   build):
        orders = []
        eigvals = np.linalg.eigvals

        def counted(a):
            orders.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        if build == "realize":
            ss = q.realize(q.OqhoParams(theta_ccr=0.5 * BJ2,
                                        energy=onemode_params.r,
                                        coupling=onemode_params.m_mat,
                                        weight=onemode_params.r))
        else:
            ss = q.from_state_space(twomode.a, twomode.b, twomode.weight)
        cfg = q.QuadratureConfig.for_system(ss)
        q.theta_threshold(ss, cfg)
        ss.hurwitz_margin()
        q.transfer(ss, 0.5j)
        # the level-set search solves 2n x 2n Hamiltonians, never A again
        assert orders.count(ss.n) == 1

    def test_read_only_and_dropped_by_replace(self, twomode):
        eig = twomode.drift_eigenvalues
        assert np.array_equal(eig, np.linalg.eigvals(twomode.a))
        with pytest.raises(ValueError):
            eig[0] = 0.0
        twin = dataclasses.replace(twomode)
        assert "drift_eigenvalues" not in vars(twin)
        assert np.array_equal(twin.drift_eigenvalues, eig)


class TestKernelAt:
    def test_zero_lag(self, twomode):
        ks = q.kernel_at(twomode, 0.0)
        s = twomode.s_half
        assert np.allclose(ks.lambda_k, s @ twomode.theta_ccr @ s, atol=1e-14)
        assert np.allclose(ks.p_k, s @ twomode.sigma @ s, atol=1e-14)

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.7])
    def test_mirror_symmetry_exact(self, twomode, tau):
        plus = q.kernel_at(twomode, tau)
        minus = q.kernel_at(twomode, -tau)
        assert np.array_equal(minus.lambda_k, -plus.lambda_k.T)
        assert np.array_equal(minus.p_k, plus.p_k.T)

    def test_against_series_exponential(self, twomode):
        ks = q.kernel_at(twomode, 1.0)
        s = twomode.s_half
        e = expm_series(twomode.a)
        assert np.allclose(ks.p_k, s @ e @ twomode.sigma @ s, atol=1e-12)
        assert np.allclose(ks.lambda_k, s @ e @ twomode.theta_ccr @ s,
                           atol=1e-12)
