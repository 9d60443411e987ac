"""Model construction, validation, and kernel evaluation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qefrate as q
from qefrate.errors import (DegeneracyError, DimensionError, ParameterError,
                            StabilityError)
from qefrate.model import BJ2, build_j_matrix

from conftest import kernel_at, passive_params


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

    def test_rejects_theta_of_wrong_order(self, twomode):
        with pytest.raises(DimensionError):
            q.from_state_space(twomode.a, twomode.b, twomode.weight,
                               theta_ccr=0.5 * BJ2)

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


def kron_lyapunov(a: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """X with A X + X A' + Q = 0 from the n^2 x n^2 Kronecker system
    (test reference for the library's Bartels-Stewart solve)."""
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    x = np.linalg.solve(lhs, -q_mat.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


def normwise_gap(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def relative_residual(a: np.ndarray, x: np.ndarray,
                      q_mat: np.ndarray) -> float:
    return float(np.linalg.norm(a @ x + x @ a.T + q_mat)
                 / (np.linalg.norm(a) * np.linalg.norm(x)))


class TestLyapunovSolutions:
    def test_match_kronecker_reference(self, twomode, random_models):
        for ss in [twomode, *random_models]:
            noise = ss.b @ ss.j @ ss.b.T
            sigma_ref = kron_lyapunov(ss.a, ss.b @ ss.b.T)
            theta_ref = kron_lyapunov(ss.a, noise)
            theta = q.from_state_space(ss.a, ss.b, ss.weight).theta_ccr
            sigma_ref = 0.5 * (sigma_ref + sigma_ref.T)
            theta_ref = 0.5 * (theta_ref - theta_ref.T)
            assert normwise_gap(ss.sigma, sigma_ref) <= 1e-12
            assert normwise_gap(theta, theta_ref) <= 1e-12
            assert relative_residual(ss.a, ss.sigma, ss.b @ ss.b.T) <= 1e-14
            assert relative_residual(ss.a, theta, noise) <= 1e-14

    @pytest.mark.parametrize("active", [0.0, 0.1],
                             ids=["passive", "perturbed"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_large_passive_draws_validate(self, n, active):
        params = passive_params(np.random.default_rng([n, int(10 * active)]),
                                n, active)
        ss = q.realize(params)
        assert ss.n == n and ss.hurwitz_margin() > 0.0
        # the recovered commutation matrix is the one the model was built on
        back = q.from_state_space(ss.a, ss.b, ss.weight)
        assert normwise_gap(back.theta_ccr, params.theta_ccr) <= 1e-12


class TestCoercion:
    # a JSON null entry reads as nan, which the finiteness check refuses
    BAD = {"text": [["x", 1.0], [0.0, 1.0]], "ragged": [[1.0, 2.0], [3.0]],
           "null-entry": [[None, 1.0], [0.0, 1.0]]}

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_from_state_space_raises_parameter_error(self, bad):
        with pytest.raises(ParameterError):
            q.from_state_space(bad, np.eye(2), np.eye(2))
        with pytest.raises(ParameterError):
            q.from_state_space(-np.eye(2), np.eye(2), np.eye(2),
                               theta_ccr=bad)

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    @pytest.mark.parametrize("field", ["theta_ccr", "energy", "coupling",
                                       "weight"])
    def test_oqho_params_raises_parameter_error(self, bad, field):
        fields = dict(theta_ccr=0.5 * BJ2, energy=np.eye(2),
                      coupling=np.diag([1.0, 0.5]), weight=np.eye(2))
        fields[field] = bad
        with pytest.raises(ParameterError):
            q.OqhoParams(**fields)


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

    def test_read_only_and_solved_anew_by_replace(self, twomode):
        eig = twomode.drift_eigenvalues
        assert np.array_equal(eig, np.linalg.eigvals(twomode.a))
        with pytest.raises(ValueError):
            eig[0] = 0.0
        # the twin validates itself, which solves its own drift spectrum
        twin = dataclasses.replace(twomode)
        assert twin.drift_eigenvalues is not eig
        assert np.array_equal(twin.drift_eigenvalues, eig)
        with pytest.raises(ValueError):
            twin.drift_eigenvalues[0] = 0.0


class TestIdentity:
    """Models compare and hash by identity."""

    def test_equal_fields_are_different_models(self, twomode):
        assert (q.two_mode_example() == q.two_mode_example()) is False
        assert (q.two_mode_example() != q.two_mode_example()) is True

    def test_a_model_equals_itself_and_hashes(self, twomode):
        assert twomode == twomode
        assert hash(twomode) == hash(twomode)
        assert {twomode: "two-mode"}[twomode] == "two-mode"


class TestReplace:
    """``dataclasses.replace`` validates the new model and derives J, S and
    Sigma from its own fields, as every other constructor does."""

    def test_new_weight_rederives_root(self, twomode):
        twice = 2.0 * twomode.weight
        replaced = dataclasses.replace(twomode, weight=twice)
        built = q.from_state_space(twomode.a, twomode.b, twice)
        answers = []
        for ss in (replaced, built):
            cfg = q.QuadratureConfig.for_system(ss)
            theta0 = q.theta_threshold(ss, cfg)
            answers.append((theta0, q.upsilon(ss, 0.25 * theta0, cfg).upsilon,
                            q.lqg_rate(ss)))
        assert [float(x).hex() for x in answers[0]] \
            == [float(x).hex() for x in answers[1]]

    def test_new_drift_keeps_theta_and_is_refused(self, twomode):
        with pytest.raises(ParameterError):
            dataclasses.replace(twomode, a=twomode.a - 0.5 * np.eye(4))

    def test_new_drift_with_theta_recovered(self, twomode):
        a = twomode.a - 0.5 * np.eye(4)
        replaced = dataclasses.replace(twomode, a=a, theta_ccr=None)
        built = q.from_state_space(a, twomode.b, twomode.weight)
        for name in ("a", "b", "weight", "theta_ccr", "sigma", "s_half", "j"):
            assert getattr(replaced, name).tobytes() \
                == getattr(built, name).tobytes(), name

    def test_direct_and_replaced_models_check_stability(self, twomode):
        with pytest.raises(StabilityError):
            q.StateSpace(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(StabilityError):
            dataclasses.replace(twomode, a=-twomode.a)


class TestKernelAt:
    def test_zero_lag(self, twomode):
        ks = kernel_at(twomode, 0.0)
        s = twomode.s_half
        assert np.allclose(ks.lambda_k, s @ twomode.theta_ccr @ s, atol=1e-14)
        assert np.allclose(ks.p_k, s @ twomode.sigma @ s, atol=1e-14)

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.7])
    def test_mirror_symmetry_exact(self, twomode, tau):
        plus = kernel_at(twomode, tau)
        minus = kernel_at(twomode, -tau)
        assert np.array_equal(minus.lambda_k, -plus.lambda_k.T)
        assert np.array_equal(minus.p_k, plus.p_k.T)

    def test_against_series_exponential(self, twomode):
        ks = kernel_at(twomode, 1.0)
        s = twomode.s_half
        e = expm_series(twomode.a)
        assert np.allclose(ks.p_k, s @ e @ twomode.sigma @ s, atol=1e-12)
        assert np.allclose(ks.lambda_k, s @ e @ twomode.theta_ccr @ s,
                           atol=1e-12)
