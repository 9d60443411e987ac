"""Single-mode closed forms against the generic pipeline."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import sqrtm

import qefrate as q
from qefrate.cli import main
from qefrate.errors import (DimensionError, ParameterError, SingularityError,
                            StructureError)
from qefrate.model import BJ2, build_j_matrix
from qefrate.onemode import (ab_functions, extract_mu, onemode_trig, poles,
                             random_params, residue_at, to_state_space)


class TestExtractMu:
    def test_identity_coupling(self):
        assert extract_mu(np.eye(2), BJ2) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        assert extract_mu(2.5 * np.eye(2), BJ2) == pytest.approx(6.25)

    def test_projection_oracle(self):
        rng = np.random.default_rng(11)
        j6 = build_j_matrix(6)
        for _ in range(5):
            m = rng.normal(size=(6, 2))
            mjm = m.T @ j6 @ m
            mu_proj = 0.5 * float(np.trace(BJ2.T @ mjm))
            if mu_proj <= 0:
                m = m @ np.diag([1.0, -1.0])
                mu_proj = -mu_proj
            assert extract_mu(m, j6) == pytest.approx(mu_proj, rel=1e-12)

    def test_structure_error_on_bad_j(self):
        with pytest.raises(StructureError):
            extract_mu(np.eye(2), np.eye(2))

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ParameterError):
            extract_mu(np.diag([1.0, -1.0]), BJ2)

    @pytest.mark.parametrize("field", ["r", "m_mat"])
    def test_non_numeric_entry_rejected(self, field):
        mats = {"r": np.eye(2), "m_mat": np.eye(2)}
        mats[field] = [["x", 0.0], [0.0, 1.0]]
        with pytest.raises(ParameterError, match="not a numeric matrix"):
            q.OneModeParams.from_matrices(**mats)

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            extract_mu(np.ones((4, 3)), build_j_matrix(4))


def realized_drift(r: np.ndarray, mu: float) -> np.ndarray:
    """The drift ``to_state_space`` builds for energy ``r`` and coupling
    scalar ``mu``, reached through the coupling sqrt(mu) I."""
    params = q.OneModeParams.from_matrices(r, np.sqrt(mu) * np.eye(2))
    return to_state_space(params).a


class TestOnemodeDrift:
    def test_identity_energy(self):
        a = realized_drift(np.eye(2), 0.5)
        assert np.allclose(a, BJ2 - 0.5 * np.eye(2), atol=1e-12)
        eig = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(eig, [-0.5 - 1.0j, -0.5 + 1.0j], atol=1e-12)

    def test_random_energy_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = rng.normal(size=(2, 2))
            r = g @ g.T + 0.4 * np.eye(2)
            mu = float(rng.uniform(0.2, 2.0))
            nu = float(np.sqrt(np.linalg.det(r)))
            eig = np.sort_complex(np.linalg.eigvals(realized_drift(r, mu)))
            assert np.allclose(eig, [-mu - 1j * nu, -mu + 1j * nu], atol=1e-10)

    def test_consistent_with_realization(self, onemode_params, onemode_ss):
        # the closed form R^{-1/2} (nu BJ2 - mu I) sqrt(R)
        r, mu, nu = onemode_params.r, onemode_params.mu, onemode_params.nu
        root = sqrtm(r).real
        a = np.linalg.solve(root, (nu * BJ2 - mu * np.eye(2)) @ root)
        assert np.allclose(a, onemode_ss.a, atol=1e-10)

    def test_rejects_indefinite_energy(self):
        with pytest.raises(ParameterError):
            realized_drift(np.diag([1.0, -1.0]), 0.5)


class TestAbFunctions:
    def test_at_zero(self):
        mu, nu = 0.7, 1.3
        a, b = ab_functions(mu, nu, 0.0)
        assert a == 0.0
        assert b == pytest.approx(mu * nu / (mu ** 2 + nu ** 2), rel=1e-12)

    def test_parity(self):
        mu, nu = 0.7, 1.3
        for s in [0.3 + 0.1j, 2.0j, -1.1 + 0.8j]:
            a_p, b_p = ab_functions(mu, nu, s)
            a_m, b_m = ab_functions(mu, nu, -s)
            assert a_m == pytest.approx(-a_p, rel=1e-12)
            assert b_m == pytest.approx(b_p, rel=1e-12)

    def test_pole_guard(self):
        mu, nu = 0.7, 1.3
        with pytest.raises(SingularityError):
            ab_functions(mu, nu, mu + 1j * nu)

    def test_pole_guard_on_arrays(self):
        mu, nu = 0.7, 1.3
        with pytest.raises(SingularityError):
            ab_functions(mu, nu, np.array([0.0, mu + 1j * nu]))

    def test_matches_generic_commutator_spectrum(self, onemode_params,
                                                 onemode_ss):
        for lam in [0.4, 1.9, 6.0]:
            sample = q.sample_grid(onemode_ss, [lam])
            a, b = ab_functions(onemode_params.mu, onemode_params.nu,
                                1j * lam)
            closed = a * np.eye(2) + b * BJ2
            assert np.max(np.abs(sample.psi - closed)) < 1e-10


class TestOnemodeTrig:
    def test_theta_zero(self, onemode_params):
        cos_m, sin_m = onemode_trig(onemode_params.mu, onemode_params.nu,
                                    0.9j, 0.0)
        assert np.array_equal(cos_m, np.eye(2).astype(complex))
        assert np.array_equal(sin_m, np.zeros((2, 2)).astype(complex))

    @pytest.mark.parametrize("lam", [0.5, 2.7])
    def test_matches_generic_bundle(self, onemode_params, onemode_ss, lam):
        theta = 0.25
        sample = q.sample_grid(onemode_ss, [lam])
        cos_tp, sinc_tp, _ = sample.trig(theta)
        cos_c, sin_c = onemode_trig(onemode_params.mu, onemode_params.nu,
                                    1j * lam, theta)
        sin_generic = theta * sample.psi @ sinc_tp
        assert np.max(np.abs(cos_tp - cos_c)) < 1e-10
        assert np.max(np.abs(sin_generic - sin_c)) < 1e-10

    def test_full_log_det_matrix_assembly(self, onemode_params, onemode_ss):
        # closed-form D = cos(theta Mho) - Phi Mho^{-1} sin(theta Mho)
        theta = 0.2
        for lam in [0.8, 3.1]:
            sample = q.sample_grid(onemode_ss, [lam])
            cos_tp, sinc_tp, _ = sample.trig(theta)
            d_generic = cos_tp - theta * sample.phi @ sinc_tp
            a, b = ab_functions(onemode_params.mu, onemode_params.nu,
                                1j * lam)
            mho = a * np.eye(2) + b * BJ2
            cos_c, sin_c = onemode_trig(onemode_params.mu, onemode_params.nu,
                                        1j * lam, theta)
            d_closed = cos_c - sample.phi @ np.linalg.solve(mho, sin_c)
            assert np.max(np.abs(d_generic - d_closed)) < 1e-10


def residue_loop(mu, nu, pole, radius=1e-3, nodes=64):
    """Residue of Mho by the node-by-node trapezoid loop, the reference
    for the array expression in ``residue_at``."""
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    acc = np.zeros((2, 2), dtype=complex)
    for z in pole + radius * np.exp(1j * angles):
        a, b = ab_functions(mu, nu, z)
        acc += (a * np.eye(2) + b * BJ2) * (z - pole)
    return acc / nodes


class TestResidues:
    def test_determinants_vanish_at_all_poles(self, onemode_params):
        for pole in poles(onemode_params.mu, onemode_params.nu):
            res = residue_at(onemode_params.mu, onemode_params.nu, pole)
            assert abs(np.linalg.det(res)) < 1e-6
            # the residue itself is far from zero; only its det collapses
            assert np.max(np.abs(res)) > 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_node_loop(self, seed):
        params = random_params(np.random.default_rng(seed))
        for pole in poles(params.mu, params.nu):
            ref = residue_loop(params.mu, params.nu, pole)
            res = residue_at(params.mu, params.nu, pole)
            assert np.max(np.abs(res - ref)) <= 1e-15


def per_sample_check(seed: int, samples: int = 100) -> dict:
    """The onemode-check command as one frequency at a time: the reference
    for its single-grid, stacked-eigensolve evaluation."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2))
    r = g @ g.T + 0.5 * np.eye(2)
    m_mat = rng.normal(size=(4, 2))
    if (m_mat.T @ build_j_matrix(4) @ m_mat)[0, 1] < 0:
        m_mat = m_mat @ np.diag([1.0, -1.0])
    params = q.OneModeParams.from_matrices(r, m_mat)
    ss = to_state_space(params)
    dev_psi = dev_trig = 0.0
    for lam in rng.uniform(-8.0, 8.0, size=samples):
        sample = q.sample_grid(ss, [lam])
        a, b = ab_functions(params.mu, params.nu, 1j * lam)
        closed = a * np.eye(2) + b * BJ2
        dev_psi = max(dev_psi, float(np.max(np.abs(sample.psi - closed))))
        theta = 0.3 / (1.0 + abs(float(lam)))
        cos_c, sin_c = onemode_trig(params.mu, params.nu, 1j * lam, theta)
        cos_tp, sinc_tp, _ = sample.trig(theta)
        sin_generic = theta * sample.psi @ sinc_tp
        dev_trig = max(dev_trig, float(np.max(np.abs(cos_tp - cos_c))),
                       float(np.max(np.abs(sin_generic - sin_c))))
    res_det = max(abs(np.linalg.det(residue_loop(params.mu, params.nu, p)))
                  for p in poles(params.mu, params.nu))
    ok = max(dev_psi, dev_trig) < 1e-10 and res_det < 1e-6
    return {"psi": dev_psi, "trig": dev_trig, "residue_det": res_det,
            "status": "ok" if ok else "mismatch"}


class TestVectorizedCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_cli_matches_per_sample_loop(self, seed, tmp_path):
        result = CliRunner().invoke(main, ["onemode-check", "--seed", str(seed),
                                           "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        ref = per_sample_check(seed)
        assert summary["status"] == ref["status"]
        assert result.exit_code == (0 if ref["status"] == "ok" else 4)
        for key in ("psi", "trig", "residue_det"):
            assert abs(summary["max_dev"][key] - ref[key]) <= 1e-15


class TestRealizationLink:
    def test_noise_structure(self, onemode_params, onemode_ss):
        bjb = onemode_ss.b @ onemode_ss.j @ onemode_ss.b.T
        assert np.allclose(bjb, onemode_params.mu * BJ2, atol=1e-12)

    def test_transfer_closed_form(self, onemode_params, onemode_ss):
        from qefrate._funcs import sqrtm_spd
        root = sqrtm_spd(onemode_params.r)
        for lam in [0.3, 1.4, 5.2]:
            f_generic = q.transfer(onemode_ss, 1j * lam)
            lhs = (1j * lam + onemode_params.mu) * np.eye(2) \
                - onemode_params.nu * BJ2
            f_closed = np.linalg.solve(lhs, root @ onemode_ss.b)
            assert np.max(np.abs(f_generic - f_closed)) < 1e-10
