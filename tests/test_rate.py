"""Direct frequency-domain rate computation and the derived bounds."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import qefrate as q
from qefrate import rate
from qefrate._funcs import apply_herm, hermitize, lncosh, minimize_bounded, tanhc
from qefrate.errors import (DegeneracyError, FeasibilityError, NumericalError,
                            ParameterError)
from qefrate.model import BJ2
from qefrate.spectral import grid_for

from conftest import (SURROGATE_A, SURROGATE_G, benchmark_module,
                      contour_e, log_det_d, make_random_model, single_mode,
                      surrogate_v_closed, uniform_rule)


def zero_psi(grid: q.SpectralGrid) -> q.SpectralGrid:
    """Commutative twin of a spectral grid (commutator spectrum dropped)."""
    return dataclasses.replace(grid, psi=0.0 * grid.psi)


class TestLogDetD:
    def test_zero_theta(self, twomode):
        s = q.sample_grid(twomode, [1.1])
        assert log_det_d(s, 0.0) == 0.0

    def test_classical_integrand_when_psi_vanishes(self, twomode):
        zero = zero_psi(q.sample_grid(twomode, [1.1]))
        theta = 0.04
        expected = float(np.sum(np.log(
            1.0 - theta * np.linalg.eigvalsh(zero.phi[0]))))
        assert abs(log_det_d(zero, theta) - expected) < 1e-12

    @pytest.mark.parametrize("lam", [0.7, 4.3, 33.0])
    def test_mirror_exact(self, twomode, lam):
        plus = q.sample_grid(twomode, [lam])
        minus = q.sample_grid(twomode, [-lam])
        assert log_det_d(plus, 0.05) == log_det_d(minus, 0.05)

    def test_high_frequency_asymptote(self, twomode, theta0):
        theta = 0.9 * theta0
        coeff = theta * twomode.lqg_weight_trace()
        for lam in [300.0, 600.0, 1000.0]:
            s = q.sample_grid(twomode, [lam])
            ratio = -log_det_d(s, theta) / (coeff / lam ** 2)
            assert 0.98 <= ratio <= 1.02

    @pytest.mark.parametrize("lams", [[], [1.1, 2.2]], ids=["empty", "two"])
    def test_one_node_only(self, twomode, lams):
        with pytest.raises(ParameterError, match="one-node grid"):
            log_det_d(q.sample_grid(twomode, lams), 0.05)

    def test_infeasible_theta_names_frequency(self, twomode, theta0):
        s = q.sample_grid(twomode, [4.3])   # near the spectral peak
        with pytest.raises(FeasibilityError) as err:
            log_det_d(s, 5.0 * theta0)
        assert err.value.lam == pytest.approx(4.3)


def neg_log_det_reference(grid: q.SpectralGrid, theta: float) -> np.ndarray:
    """-ln det D_theta per node, the stacked-product formulation: sqrt(tanc)
    reassembled as V diag(r) V* and sqrt(tanc) Phi sqrt(tanc) multiplied
    out before its eigensolve."""
    w, v = grid.h_eigh
    x = theta * w
    sym = apply_herm(np.sqrt(tanhc(x)), v)
    eigs = np.linalg.eigvalsh(hermitize(sym @ grid.phi @ sym))
    return -np.sum(np.log1p(-theta * eigs), axis=-1) \
        - np.sum(lncosh(x), axis=-1)


class TestRotatedKernel:
    """The per-theta factor taken in the eigenbasis of H."""

    @staticmethod
    def check_model(ss: q.StateSpace) -> None:
        cfg = q.QuadratureConfig.for_system(ss)
        grid = q.sample_grid(ss, cfg.lambdas())
        theta0 = q.theta_threshold(ss, cfg)
        for f in (0.05, 0.5, 0.95):
            got = rate._neg_log_det(grid, f * theta0)
            ref = neg_log_det_reference(grid, f * theta0)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_matches_stacked_products_twomode(self, twomode):
        self.check_model(twomode)

    def test_matches_stacked_products_random_pool(self, random_models):
        for ss in random_models:
            self.check_model(ss)

    def test_infeasible_names_first_frequency(self, grid_full, theta0):
        theta = 5.0 * theta0
        w, v = grid_full.h_eigh
        sym = apply_herm(np.sqrt(tanhc(theta * w)), v)
        eigs = np.linalg.eigvalsh(hermitize(sym @ grid_full.phi @ sym))
        first = int(np.flatnonzero(theta * eigs[:, -1] >= 1.0)[0])
        with pytest.raises(FeasibilityError) as err:
            rate._neg_log_det(grid_full, theta)
        assert err.value.lam == grid_full.lambdas[first]


def stacked_kernel(grid: q.SpectralGrid, theta: float) -> np.ndarray:
    """M = sqrt(tanc) Phi sqrt(tanc) at every node, in the eigenbasis of H."""
    r = np.sqrt(tanhc(theta * grid.h_eigh[0]))
    return grid.phi_rot * (r[:, :, None] * r[:, None, :])


@pytest.fixture(scope="module")
def sized_models():
    """Three random stable models of each state dimension 2, 4 and 6,
    each with its default rule and theta0."""
    rng = np.random.default_rng(20261018)
    out = []
    for n in (2, 4, 6):
        drawn = 0
        while drawn < 3:
            ss = make_random_model(rng, n)
            if ss is None:
                continue
            cfg = q.QuadratureConfig.for_system(ss)
            out.append((ss, cfg, q.theta_threshold(ss, cfg)))
            drawn += 1
    return out


class TestStackedFactor:
    """The pivot-column LDL* of I - theta M over the whole frequency stack
    and the bounded search for the feasibility margin."""

    @pytest.fixture(scope="class")
    def sized_grids(self, sized_models):
        """The sized models' sampled grids, each with its rule and theta0."""
        return [(q.sample_grid(ss, cfg.lambdas()), cfg, theta0)
                for ss, cfg, theta0 in sized_models]

    @pytest.mark.parametrize("frac", [1e-8, 0.1, 0.5, 0.9, 0.999])
    def test_matches_eigensolve_with_exact_margin(self, sized_grids, frac):
        assert {g.phi.shape[-1] for g, _, _ in sized_grids} == {2, 4, 6}
        for grid, cfg, theta0 in sized_grids:
            theta = frac * theta0
            eigs = np.linalg.eigvalsh(stacked_kernel(grid, theta))
            ref = -np.sum(np.log1p(-theta * eigs), axis=-1) \
                - np.sum(lncosh(theta * grid.h_eigh[0]), axis=-1)
            got = rate._neg_log_det(grid, theta)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
            assert q.upsilon_from_grid(grid, theta, cfg).margin \
                == theta * np.max(eigs[:, -1])

    def test_negligible_commutator_margin(self):
        # A falsifying example of a property search: with a commutator
        # of order 1e-129, r = 1 to rounding and the bound at its own
        # argmax node fell below that node's eigenvalue, leaving no node
        # to solve.
        ss = q.from_state_space(np.array([[-0.1, 2.0], [-2.0, -0.1]]),
                                np.array([[5.8e-130, 0.0], [0.0, 1.0]]),
                                np.diag([0.5, 1.5]))
        cfg = q.QuadratureConfig.for_system(ss)
        grid = q.sample_grid(ss, cfg.lambdas())
        theta = 0.5 * q.theta_threshold(ss, cfg)
        eigs = np.linalg.eigvalsh(stacked_kernel(grid, theta))
        res = q.upsilon_from_grid(grid, theta, cfg)
        assert res.margin == theta * np.max(eigs[:, -1])
        assert res.margin == pytest.approx(0.5, rel=1e-4)

    def test_eigensolves_only_candidate_nodes(self, twomode, grid_full,
                                              cfg_full, theta0, monkeypatch):
        theta = 0.9 * theta0
        r2 = tanhc(theta * grid_full.h_eigh[0])
        bound = np.max(r2, axis=-1) * grid_full.phi_eigvals[:, -1]
        top = int(np.argmax(bound))
        peak = np.linalg.eigvalsh(stacked_kernel(grid_full, theta)[top])[-1]
        cands = bound >= peak - rate.MARGIN_SLACK * peak
        cands[top] = True
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            solved.append(math.prod(np.shape(a)[:-2]))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        q.upsilon_from_grid(grid_full, theta, cfg_full)
        assert sum(solved) == np.count_nonzero(cands)
        assert sum(solved) <= len(grid_full.lambdas) // 10
        solved.clear()
        q.tail_bound(twomode, 0.5, np.linspace(0.05, 0.95, 8) * theta0,
                     cfg_full)
        q.worst_case_lqg_bound(twomode, 0.1,
                               np.linspace(0.05, 0.95, 8) * theta0, cfg_full)
        assert solved == []

    def test_infeasible_names_lowest_frequency_failing_later(self):
        # with Psi = 0 the factor is I - theta Phi; at theta = 1 the node
        # at 1.0 fails at the second pivot and the one at 2.0 at the first
        phi = np.array([np.diag([0.5, 2.0]), np.diag([2.0, 0.5])],
                       dtype=complex)
        grid = q.SpectralGrid(lambdas=np.array([1.0, 2.0]), phi=phi,
                              psi=np.zeros_like(phi))
        assert np.array_equal(grid.phi_rot, phi)
        with pytest.raises(FeasibilityError) as err:
            rate._neg_log_det(grid, 1.0)
        assert err.value.lam == 1.0
        assert "margin 2 >= 1" in str(err.value)

    @pytest.mark.parametrize("lam", [0.0, 0.7, 4.3, 33.0])
    def test_one_node_matches_complex_slogdet(self, twomode, theta0, lam):
        s = q.sample_grid(twomode, [lam])
        for frac in (0.1, 0.5, 0.95):
            theta = frac * theta0
            cos_tp, sinc_tp, _ = s.trig(theta)
            sign, ref = np.linalg.slogdet(cos_tp[0]
                                          - theta * s.phi[0] @ sinc_tp[0])
            assert abs(np.angle(sign)) < 1e-8
            assert abs(log_det_d(s, theta) - ref) <= 1e-11 * abs(ref)


class TestUpsilon:
    def test_zero_theta(self, twomode, cfg_coarse):
        res = q.upsilon(twomode, 0.0, cfg_coarse)
        assert res.upsilon == 0.0
        assert res.margin == 0.0
        assert res.tail_contrib == 0.0

    def test_classical_reduction_matches_entropy_integral(self, twomode,
                                                           cfg_coarse):
        grid = q.sample_grid(twomode, cfg_coarse.lambdas())
        for theta in [0.02, 0.05, 0.08]:
            forced = q.upsilon_from_grid(zero_psi(grid), theta, cfg_coarse)
            v = q.classical_v(twomode, theta, cfg_coarse)
            assert abs(forced.upsilon - v) < 1e-6 * max(abs(v), 1e-12)

    def test_nondecreasing_in_theta(self, twomode, cfg_coarse, theta0):
        grid = q.sample_grid(twomode, cfg_coarse.lambdas())
        values = [q.upsilon_from_grid(grid, t, cfg_coarse).upsilon
                  for t in np.linspace(0.0, 0.9 * theta0, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_nonnegative_and_below_classical(self, grid_full, cfg_full, theta0):
        res = q.upsilon_from_grid(grid_full, theta0 / 4.0, cfg_full)
        assert res.upsilon >= 0.0
        assert res.upsilon < res.classical_v

    def test_cached_decompositions_are_pure(self, twomode, cfg_coarse, theta0):
        used = q.sample_grid(twomode, cfg_coarse.lambdas())
        q.upsilon_from_grid(used, 0.3 * theta0, cfg_coarse)
        again = q.upsilon_from_grid(used, 0.6 * theta0, cfg_coarse)
        fresh = q.upsilon_from_grid(
            q.sample_grid(twomode, cfg_coarse.lambdas()), 0.6 * theta0,
            cfg_coarse)
        assert again == fresh
        zeroed = zero_psi(used)
        assert "h_eigh" not in vars(zeroed)
        assert "phi_eigvals" not in vars(zeroed)
        assert np.array_equal(zeroed.h_eigh[0], np.zeros_like(used.h_eigh[0]))
        assert np.array_equal(zeroed.phi_eigvals, used.phi_eigvals)

    def test_replaced_psi_leaves_no_commutator(self, grid_full, cfg_full,
                                               theta0):
        # the grid stores Psi alone, so replacing it drops the commutator
        # everywhere: Upsilon is then the classical value V
        res = q.upsilon_from_grid(
            dataclasses.replace(grid_full, psi=np.zeros_like(grid_full.psi)),
            0.5 * theta0, cfg_full)
        assert abs(res.upsilon - res.classical_v) <= 1e-14 * res.classical_v

    def test_mesh_halving_stability(self, twomode, theta0):
        base = uniform_rule(100.0, 0.01)
        fine = uniform_rule(100.0, 0.005)
        a = q.upsilon(twomode, 0.5 * theta0, base).upsilon
        b = q.upsilon(twomode, 0.5 * theta0, fine).upsilon
        assert abs(a - b) < 1e-5 * abs(b)

    def test_cutoff_doubling_stability(self, twomode, theta0):
        base = uniform_rule(100.0, 0.01)
        wide = uniform_rule(200.0, 0.01)
        a = q.upsilon(twomode, 0.5 * theta0, base).upsilon
        b = q.upsilon(twomode, 0.5 * theta0, wide).upsilon
        assert abs(a - b) < 1e-5 * abs(b)

    def test_grid_of_another_rule_raises(self, twomode, theta0):
        # as many nodes, elsewhere: integrated anyway, Upsilon at 0.5 theta0
        # came out twice its value
        sampled_on, other = uniform_rule(100.0, 0.05), uniform_rule(200.0, 0.1)
        assert other.n_intervals == sampled_on.n_intervals
        grid = q.sample_grid(twomode, sampled_on.lambdas())
        with pytest.raises(ParameterError, match="rule's nodes"):
            q.upsilon_from_grid(grid, 0.5 * theta0, other)

    def test_infeasible_theta_raises_with_frequency(self, twomode, cfg_coarse,
                                                    theta0):
        with pytest.raises(FeasibilityError) as err:
            q.upsilon(twomode, 5.0 * theta0, cfg_coarse)
        assert err.value.lam is not None

    def test_unresolved_mesh_sets_warning_flag(self, twomode, theta0):
        crude = uniform_rule(100.0, 12.5)
        res = q.upsilon(twomode, 0.5 * theta0, crude)
        assert res.converged is False


class TestClassicalV:
    def test_zero_theta(self, surrogate, cfg_coarse):
        assert q.classical_v(surrogate, 0.0, cfg_coarse) == 0.0

    def test_scalar_surrogate_closed_form(self, surrogate):
        cfg = q.QuadratureConfig.for_system(surrogate)
        theta0 = SURROGATE_A ** 2 / SURROGATE_G ** 2
        for theta in [0.2 * theta0, 0.5 * theta0, 0.8 * theta0]:
            v = q.classical_v(surrogate, theta, cfg)
            exact = surrogate_v_closed(theta)
            assert abs(v - exact) < 1e-6 * max(exact, 1e-12)

    def test_divergence_toward_threshold(self, twomode, cfg_coarse, theta0):
        assert (q.classical_v(twomode, 0.99 * theta0, cfg_coarse)
                > q.classical_v(twomode, 0.9 * theta0, cfg_coarse))

    def test_above_threshold_raises(self, twomode, cfg_coarse, theta0):
        with pytest.raises(FeasibilityError):
            q.classical_v(twomode, 1.05 * theta0, cfg_coarse)


def recorded_peaks(monkeypatch) -> list:
    """The frequencies at which ``rate._phi_peak`` is evaluated from now on,
    in call order."""
    calls = []
    peak = rate._phi_peak
    monkeypatch.setattr(rate, "_phi_peak",
                        lambda ss, lam: calls.append(lam) or peak(ss, lam))
    return calls


class TestThetaThreshold:
    def test_twomode_value(self, theta0):
        assert abs(theta0 - 0.0908) < 2e-4

    def test_weight_scaling(self, twomode, cfg_coarse):
        c = 1.7
        scaled = q.from_state_space(twomode.a, twomode.b,
                                    c ** 2 * twomode.weight)
        base = q.theta_threshold(twomode, cfg_coarse)
        assert q.theta_threshold(scaled, cfg_coarse) == pytest.approx(
            base / c ** 2, rel=1e-9)

    def test_scalar_surrogate_exact(self, surrogate):
        cfg = q.QuadratureConfig.for_system(surrogate)
        expected = SURROGATE_A ** 2 / SURROGATE_G ** 2
        assert q.theta_threshold(surrogate, cfg) == pytest.approx(expected,
                                                                  rel=1e-10)

    def test_peak_at_zero_polished_in_few_evaluations(self, cfg_coarse,
                                                      monkeypatch):
        # the surrogate's lam_max(Phi) = g^2 / (a^2 + lam^2) peaks at
        # lam = 0, flat to rounding there: the polish stops once the value
        # is settled, not after closing in on an abscissa to 1e-12; both
        # real drift eigenvalues list lam = 0 again, evaluated once
        calls = recorded_peaks(monkeypatch)
        fresh = q.from_state_space(-SURROGATE_A * np.eye(2),
                                   SURROGATE_G * np.eye(2), np.eye(2))
        expected = SURROGATE_A ** 2 / SURROGATE_G ** 2
        assert q.theta_threshold(fresh, cfg_coarse) == pytest.approx(
            expected, rel=1e-14)
        assert len(calls) <= 7
        assert calls.count(0.0) == 1

    def test_each_start_frequency_evaluated_once(self, monkeypatch):
        # the starts, lam = 0 and |Im mu| for each drift eigenvalue mu, come
        # first; two-mode's two conjugate pairs list each frequency twice
        ss = q.two_mode_example()
        calls = recorded_peaks(monkeypatch)
        q.theta_threshold(ss, None)
        starts = {0.0, *np.abs(ss.drift_eigenvalues.imag).tolist()}
        assert len(starts) == 3
        assert sorted(calls[:3]) == sorted(starts)

    def test_no_frequency_evaluated_twice(self, tmp_path, monkeypatch):
        # the level-set iteration comes back to lam = 0 as the midpoint of
        # each crossing pair +-w, twice on two-mode, and the polish may
        # come back to a point it or the iteration has tried: each is
        # evaluated once
        models = [q.two_mode_example(),
                  *(md.ss for md in benchmark_module("modelgen").draw_models(
                      2, 5, tmp_path)[0])]
        calls = recorded_peaks(monkeypatch)
        for ss in models:
            calls.clear()
            q.theta_threshold(ss, None)
            assert len(set(calls)) == len(calls)
            if ss is models[0]:
                assert len(calls) == 9

    def test_tie_at_peak_keeps_best_point(self, tmp_path, monkeypatch):
        # a modelgen draw whose lam_max(Phi) peaks at lam = 0: a trial at
        # 4.1e-9 ties the value there, and a tie that became the best point
        # would send the search after rounding noise
        ss = benchmark_module("modelgen").draw_models(2, 2, tmp_path)[0][1].ss
        peak = rate._phi_peak
        calls = recorded_peaks(monkeypatch)
        theta0 = q.theta_threshold(ss, None)
        assert theta0 == pytest.approx(1.0 / peak(ss, 0.0), rel=1e-15)
        assert len(calls) <= 9

    def test_memoized_per_model(self, cfg_coarse, monkeypatch):
        calls = []
        original = rate._phi_sup
        monkeypatch.setattr(rate, "_phi_sup",
                            lambda ss: calls.append(1) or original(ss))
        ss = q.two_mode_example()
        first = q.theta_threshold(ss, cfg_coarse)
        assert q.theta_threshold(ss, q.QuadratureConfig.for_system(ss)) == first
        assert len(calls) == 1


class TestLqgRate:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_quadratic_in_input(self, twomode, eps):
        # Sigma, and with it the rate, is quadratic in B; a zero input is
        # refused by every constructor, so the limit is taken by scaling
        scaled = q.from_state_space(twomode.a, eps * twomode.b, twomode.weight)
        assert abs(q.lqg_rate(scaled) / (eps ** 2 * q.lqg_rate(twomode))
                   - 1.0) < 1e-12

    def test_zero_input_refused(self):
        with pytest.raises(DegeneracyError):
            q.StateSpace(a=-np.eye(2), b=np.zeros((2, 2)), weight=np.eye(2),
                         theta_ccr=0.5 * BJ2)

    def test_matches_trace_quadrature(self, twomode, grid_full, cfg_full):
        # mean-square rate is the half-line trace integral over 2 pi
        tr_phi = np.real(np.trace(grid_full.phi, axis1=1, axis2=2))
        quad = cfg_full.half_line(tr_phi).value / (2.0 * math.pi)
        assert abs(quad - q.lqg_rate(twomode)) < 1e-4 * q.lqg_rate(twomode)

    def test_matches_slope_of_upsilon(self, twomode, grid_full, cfg_full,
                                      theta0):
        h = 1e-4 * theta0
        slope = q.upsilon_from_grid(grid_full, h, cfg_full).upsilon / h
        assert abs(slope - q.lqg_rate(twomode)) < 1e-3 * q.lqg_rate(twomode)


class TestSmallThetaExpansion:
    def test_zero_theta(self, twomode, cfg_coarse):
        assert q.small_theta_expansion(twomode, 0.0, cfg_coarse) == 0.0

    def test_below_classical(self, twomode, cfg_full, theta0):
        theta = theta0 / 8.0
        expansion = q.small_theta_expansion(twomode, theta, cfg_full)
        v = q.classical_v(twomode, theta, cfg_full)
        assert expansion < v

    def test_error_is_higher_order(self, twomode, grid_full, cfg_full, theta0):
        ratios = []
        for theta in [theta0 / 8.0, theta0 / 16.0, theta0 / 32.0]:
            ups = q.upsilon_from_grid(grid_full, theta, cfg_full).upsilon
            exp = q.small_theta_expansion(twomode, theta, cfg_full)
            ratios.append(abs(ups - exp) / theta ** 3)
        # o(theta^3): normalized errors stay bounded under halving (a
        # theta^2-level defect would quadruple the ratio over two halvings)
        assert ratios[2] <= 2.0 * ratios[0] + 1e-9
        assert ratios[1] <= 2.0 * ratios[0] + 1e-9

    def test_above_threshold_raises(self, twomode, cfg_coarse, theta0):
        with pytest.raises(FeasibilityError):
            q.small_theta_expansion(twomode, 1.1 * theta0, cfg_coarse)


def expansion_reference(ss: q.StateSpace, theta: float,
                        cfg: q.QuadratureConfig) -> float:
    """The small-theta expansion with its correction integrand formed by a
    stacked solve, Tr((I - theta Phi)^-1 (I - theta Phi / 3) Psi^2)."""
    grid = grid_for(ss, cfg)
    eye = np.eye(ss.n)
    resolvent = np.linalg.solve(eye - theta * grid.phi,
                                eye - (theta / 3.0) * grid.phi)
    corr = np.real(np.trace(resolvent @ grid.psi @ grid.psi,
                            axis1=1, axis2=2))
    return q.classical_v(ss, theta, cfg) \
        + theta ** 2 / (4.0 * math.pi) * cfg.half_line(corr).value


class TestPerThetaCost:
    """A further theta on a cached grid costs elementwise work, the L D L*
    sweep and a few bounded-search evaluations."""

    FRACS = (1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 0.5, 0.9)

    def test_expansion_matches_stacked_solve(self, twomode, cfg_full, theta0,
                                             sized_models):
        cases = [(twomode, cfg_full, theta0)] + list(sized_models)
        assert {ss.n for ss, _, _ in cases} >= {2, 4, 6}
        for ss, cfg, th0 in cases:
            for frac in self.FRACS:
                ref = expansion_reference(ss, frac * th0, cfg)
                got = q.small_theta_expansion(ss, frac * th0, cfg)
                assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_expansion_weights_are_nonpositive(self, grid_full):
        phi_w, d = grid_full.phi_psi_sq
        assert phi_w.shape == d.shape
        assert np.all(d <= 0.0)

    def test_further_theta_solves_nothing(self, cfg_full, monkeypatch):
        ss = q.two_mode_example()
        theta0 = q.theta_threshold(ss, cfg_full)
        q.upsilon(ss, 0.3 * theta0, cfg_full)
        q.small_theta_expansion(ss, theta0 / 16.0, cfg_full)
        calls = []

        def counting(name, func):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapped

        for name in ("solve", "eigh"):
            monkeypatch.setattr(np.linalg, name,
                                counting(name, getattr(np.linalg, name)))
        q.upsilon(ss, 0.6 * theta0, cfg_full)
        q.small_theta_expansion(ss, theta0 / 8.0, cfg_full)
        assert calls == []

    def test_bounds_refine_in_few_evaluations(self, cfg_full, theta0,
                                              upsilon_calls):
        # one fresh model per bound: a model keeps the curve of its grid
        grid = np.linspace(0.05, 0.95, 10) * theta0
        ss = q.two_mode_example()
        q.tail_bound(ss, 1.5 * q.lqg_rate(ss), grid, cfg_full)
        assert len(upsilon_calls) <= len(grid) + 8
        upsilon_calls.clear()
        q.worst_case_lqg_bound(q.two_mode_example(), 0.05, grid, cfg_full)
        assert len(upsilon_calls) <= len(grid) + 10


@pytest.fixture()
def upsilon_calls(monkeypatch) -> list:
    """The theta of every Upsilon integral, in call order."""
    calls = []
    quad = rate._upsilon_quad

    def counting(*args, **kwargs):
        calls.append(args[1])
        return quad(*args, **kwargs)

    monkeypatch.setattr(rate, "_upsilon_quad", counting)
    return calls


class TestKeptCurve:
    """The bounds read Upsilon on their theta grid from a curve kept on
    the model's spectral grid.  Every test builds its own models: a kept
    curve makes call counts depend on what ran before."""

    @pytest.fixture()
    def grid(self, theta0):
        """twomode-curve's theta grid."""
        return np.linspace(0.05, 0.95, 10) * theta0

    def test_second_bound_evaluates_only_its_refinement(self, cfg_full, grid,
                                                        upsilon_calls):
        ss = q.two_mode_example()
        q.tail_bound(ss, 1.5 * q.lqg_rate(ss), grid, cfg_full)
        upsilon_calls.clear()
        q.worst_case_lqg_bound(ss, 0.05, grid, cfg_full)
        assert len(upsilon_calls) <= 10
        assert not set(upsilon_calls) & set(grid)

    def test_bounds_identical_to_fresh_model(self, cfg_full, grid):
        ss = q.two_mode_example()
        alpha = 1.5 * q.lqg_rate(ss)
        tail = q.tail_bound(ss, alpha, grid, cfg_full)
        worst = q.worst_case_lqg_bound(ss, 0.05, grid, cfg_full)
        assert q.tail_bound(ss, alpha, grid, cfg_full) == tail
        assert worst == q.worst_case_lqg_bound(q.two_mode_example(), 0.05,
                                               grid, cfg_full)
        assert tail == q.tail_bound(q.two_mode_example(), alpha, grid,
                                    cfg_full)

    def test_recomputes_for_another_theta_grid(self, cfg_full, grid,
                                               upsilon_calls):
        ss = q.two_mode_example()
        q.tail_bound(ss, 1.5 * q.lqg_rate(ss), grid, cfg_full)
        # the same values as a list read the curve
        upsilon_calls.clear()
        q.worst_case_lqg_bound(ss, 0.05, grid.tolist(), cfg_full)
        assert not set(upsilon_calls) & set(grid)
        # one value a bit off integrates the whole grid again
        moved = grid.copy()
        moved[3] = np.nextafter(moved[3], 1.0)
        upsilon_calls.clear()
        q.worst_case_lqg_bound(ss, 0.05, moved, cfg_full)
        assert set(moved) <= set(upsilon_calls)
        # ... and so does the first grid, which it replaced
        upsilon_calls.clear()
        q.worst_case_lqg_bound(ss, 0.05, grid, cfg_full)
        assert set(grid) <= set(upsilon_calls)

    def test_recomputes_for_another_rule(self, cfg_full, grid,
                                         upsilon_calls):
        ss = q.two_mode_example()
        alpha = 1.5 * q.lqg_rate(ss)
        q.tail_bound(ss, alpha, grid, cfg_full)
        coarse = uniform_rule(100.0, 0.25)
        upsilon_calls.clear()
        q.tail_bound(ss, alpha, grid, coarse)
        assert set(grid) <= set(upsilon_calls)
        assert q.tail_bound(ss, alpha, grid, coarse) == q.tail_bound(
            q.two_mode_example(), alpha, grid, coarse)

    def test_keeps_feasible_subset_past_threshold(self, cfg_full, theta0,
                                                  upsilon_calls):
        # two-mode stays feasible a little past theta0, so the subset is
        # the quantum one, not theta < theta0
        wide = np.linspace(0.9, 1.1, 81) * theta0
        feasible, ref = [], q.two_mode_example()
        for th in wide:
            try:
                q.upsilon(ref, float(th), cfg_full)
                feasible.append(th)
            except FeasibilityError:
                continue
        assert theta0 < max(feasible) < wide[-1]
        ss = q.two_mode_example()
        grid = grid_for(ss, cfg_full)
        upsilon_calls.clear()
        thetas, quads = rate._feasible_curve(grid, wide, cfg_full)
        assert thetas.tolist() == feasible
        assert len(upsilon_calls) == len(wide)
        upsilon_calls.clear()
        again, _ = rate._feasible_curve(grid, wide, cfg_full)
        assert again.tolist() == feasible and upsilon_calls == []
        assert q.worst_case_lqg_bound(ss, 0.05, wide, cfg_full) == \
            q.worst_case_lqg_bound(q.two_mode_example(), 0.05, wide,
                                   cfg_full)

    def test_no_feasible_theta_raises_every_call(self, cfg_full, theta0,
                                                 upsilon_calls):
        ss = q.two_mode_example()
        for _ in range(2):
            with pytest.raises(FeasibilityError, match="no feasible"):
                q.tail_bound(ss, 1.0, [100.0 * theta0], cfg_full)
            with pytest.raises(FeasibilityError, match="no feasible"):
                q.worst_case_lqg_bound(ss, 0.0, [100.0 * theta0], cfg_full)
        assert len(upsilon_calls) == 1
        # theta = 0 is feasible but no worst-case node
        with pytest.raises(FeasibilityError, match="no feasible"):
            q.worst_case_lqg_bound(ss, 0.0, [0.0, 100.0 * theta0], cfg_full)

    @pytest.mark.parametrize("step, fracs", [
        (None, (0.05, 0.5, 0.95)),
        (0.5, (0.05, 0.5, 0.95)),
        (None, (0.5, 0.999, 1.003, 1.2)),
        (None, (1.2, 1.5)),
    ], ids=["converged", "coarse", "past-threshold", "none-feasible"])
    def test_converged_as_upsilon_flags(self, theta0, step, fracs):
        ss = q.two_mode_example()
        cfg = q.QuadratureConfig.for_system(ss)
        if step is not None:
            cfg = uniform_rule(cfg.cutoff, step)
        thetas = np.array(fracs) * theta0
        flags = []
        for th in thetas:
            try:
                flags.append(q.upsilon(ss, float(th), cfg).converged)
            except FeasibilityError:
                continue
        assert rate.curve_converged(ss, thetas, cfg) == all(flags)


class TestContourE:
    def test_restricts_to_log_det_matrix(self, twomode, theta0):
        theta = 0.5 * theta0
        for lam in [0.9, 3.7, 11.0]:
            e_mat = contour_e(twomode, 1j * lam, theta)
            s = q.sample_grid(twomode, [lam])
            cos_tp, sinc_tp, _ = s.trig(theta)
            d_mat = cos_tp[0] - theta * s.phi[0] @ sinc_tp[0]
            assert np.max(np.abs(e_mat - d_mat)) < 1e-8

    def test_large_s_limit(self, twomode, theta0):
        theta = 0.5 * theta0
        s_pt = 4000.0 + 3000.0j
        e_mat = contour_e(twomode, s_pt, theta)
        target = theta * twomode.s_half @ twomode.b @ twomode.b.T \
            @ twomode.s_half
        approx = s_pt ** 2 * (e_mat - np.eye(twomode.n))
        assert np.max(np.abs(approx - target)) < 2e-3 * np.max(np.abs(target))

    def test_zero_theta_is_identity(self, twomode):
        assert np.array_equal(contour_e(twomode, 2.0 + 1.0j, 0.0),
                              np.eye(twomode.n).astype(complex))

    def test_overflow_raises(self, twomode):
        # cos and sinc of theta Mho overflow: an error, not NaN entries
        with pytest.raises(NumericalError, match="not finite"):
            contour_e(twomode, 1.0 + 2.0j, 1e6)


@pytest.fixture(scope="module")
def bound_cfg():
    return uniform_rule(100.0, 0.2)


@pytest.fixture(scope="module")
def bound_grid(twomode, bound_cfg):
    return q.sample_grid(twomode, bound_cfg.lambdas())


class TestBounds:
    def dense_oracle(self, grid, cfg, objective, theta_lo, theta_hi, n=1500):
        best = math.inf
        for theta in np.linspace(theta_lo, theta_hi, n):
            try:
                best = min(best, objective(float(theta)))
            except FeasibilityError:
                continue
        return best

    def test_tail_bound_tangency(self, twomode, bound_cfg, theta0):
        # objective is nonnegative with infimum 0 approached at theta -> 0
        alpha = q.lqg_rate(twomode)
        grid = np.linspace(0.0, 0.9, 20) * theta0
        bound = q.tail_bound(twomode, alpha, grid, bound_cfg)
        assert bound <= 1e-12

    def test_tail_bound_matches_dense_grid(self, twomode, bound_cfg,
                                           bound_grid, theta0):
        alpha = 2.0 * q.lqg_rate(twomode)
        grid = np.linspace(0.05, 0.9, 18) * theta0

        def objective(th):
            return q.upsilon_from_grid(bound_grid, th, bound_cfg).upsilon \
                - alpha * th

        bound = q.tail_bound(twomode, alpha, grid, bound_cfg)
        assert bound < 0.0
        dense = self.dense_oracle(bound_grid, bound_cfg, objective,
                                  0.05 * theta0, 0.9 * theta0)
        assert abs(bound - dense) < 1e-6 * max(1.0, abs(dense))

    def test_tail_bound_steep_alpha_hits_top_of_grid(self, twomode, bound_cfg,
                                                     bound_grid, theta0):
        alpha = 100.0 * q.lqg_rate(twomode)
        grid = np.linspace(0.1, 0.8, 8) * theta0

        def objective(th):
            return q.upsilon_from_grid(bound_grid, th, bound_cfg).upsilon \
                - alpha * th

        bound = q.tail_bound(twomode, alpha, grid, bound_cfg)
        assert bound <= objective(float(grid[-1])) + 1e-12

    def test_worst_case_approaches_twice_lqg(self, twomode, bound_cfg, theta0):
        grid = np.linspace(0.001, 0.2, 25) * theta0
        bound = q.worst_case_lqg_bound(twomode, 0.0, grid, bound_cfg)
        assert bound >= 2.0 * q.lqg_rate(twomode) - 1e-6
        assert bound <= 2.02 * q.lqg_rate(twomode)

    def test_worst_case_matches_dense_grid(self, twomode, bound_cfg,
                                           bound_grid, theta0):
        eps = 0.1
        grid = np.linspace(0.05, 0.9, 18) * theta0

        def objective(th):
            return (eps + q.upsilon_from_grid(bound_grid, th,
                                              bound_cfg).upsilon) / th

        bound = q.worst_case_lqg_bound(twomode, eps, grid, bound_cfg)
        dense = 2.0 * self.dense_oracle(bound_grid, bound_cfg, objective,
                                        0.05 * theta0, 0.9 * theta0)
        assert abs(bound - dense) < 1e-6 * max(1.0, abs(dense))

    def test_worst_case_large_eps(self, twomode, bound_cfg, theta0):
        eps = 1e4
        grid = np.linspace(0.1, 0.9, 9) * theta0
        bound = q.worst_case_lqg_bound(twomode, eps, grid, bound_cfg)
        assert bound == pytest.approx(2.0 * eps / (0.9 * theta0), rel=0.05)

    def test_empty_feasible_grid_raises(self, twomode, bound_cfg, theta0):
        with pytest.raises(FeasibilityError):
            q.tail_bound(twomode, 1.0, [100.0 * theta0], bound_cfg)
        with pytest.raises(FeasibilityError):
            q.worst_case_lqg_bound(twomode, 0.0, [], bound_cfg)

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_levels_raise(self, twomode, bound_cfg, theta0, level):
        grid = np.linspace(0.1, 0.9, 5) * theta0
        with pytest.raises(FeasibilityError, match="finite"):
            q.tail_bound(twomode, level, grid, bound_cfg)
        with pytest.raises(FeasibilityError, match="finite"):
            q.worst_case_lqg_bound(twomode, level, grid, bound_cfg)


class TestFrequencyProfile:
    def test_shapes_and_signs(self, twomode, cfg_coarse, theta0):
        lambdas, neg_ld, classical = q.frequency_profile(
            q.sample_grid(twomode, cfg_coarse.lambdas()), 0.5 * theta0)
        assert len(lambdas) == len(neg_ld) == len(classical)
        assert np.all(neg_ld >= -1e-12)
        assert np.all(classical >= neg_ld - 1e-12)


#: Entry points that take a risk parameter, each called on the two-mode
#: model with a coarse rule; all share one check of its domain.
THETA_ENTRY_POINTS = {
    "upsilon_from_grid": lambda ss, cfg, th: q.upsilon_from_grid(
        q.sample_grid(ss, cfg.lambdas()), th, cfg),
    "classical_v": lambda ss, cfg, th: q.classical_v(ss, th, cfg),
    "small_theta_expansion":
        lambda ss, cfg, th: q.small_theta_expansion(ss, th, cfg),
    "log_det_d": lambda ss, cfg, th: log_det_d(q.sample_grid(ss, [1.1]), th),
    "frequency_profile": lambda ss, cfg, th: q.frequency_profile(
        q.sample_grid(ss, cfg.lambdas()), th),
    "ln_xi": lambda ss, cfg, th: q.ln_xi(ss, th, horizon=1.0, n_grid=8),
    "contour_e": lambda ss, cfg, th: contour_e(ss, 1.0 + 2.0j, th),
}


@pytest.mark.parametrize("theta", [math.nan, -0.01, math.inf],
                         ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
def test_risk_parameter_domain(twomode, cfg_coarse, entry, theta):
    with pytest.raises(FeasibilityError, match="finite and nonnegative"):
        THETA_ENTRY_POINTS[entry](twomode, cfg_coarse, theta)


def scipy_bounded(func, lo, hi, xatol):
    """The reference minimizer: scipy's bounded Brent method."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return float(res.x), float(res.fun)


class TestBoundedMinimizer:
    @pytest.mark.parametrize("func, lo, hi, xatol", [
        (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-10),
        (lambda x: math.cos(3.0 * x) + 0.1 * x, 0.0, 3.0, 1e-12),
        (lambda x: abs(x - 1.0) ** 0.5, 0.0, 4.0, 1e-8),
        (lambda x: math.inf if x > 0.7 else -x * (1.0 - x), 0.0, 1.0, 1e-10),
        (lambda x: x, 2.0, 5.0, 1e-6),
    ], ids=["quadratic", "cosine", "cusp", "wall", "monotone"])
    def test_iterates_match_scipy(self, func, lo, hi, xatol):
        # one start pair at scipy's opening point, the golden-section
        # point of the bracket
        x = lo + 0.5 * (3.0 - math.sqrt(5.0)) * (hi - lo)
        assert minimize_bounded(func, lo, hi, xatol, start=[(x, func(x))]) \
            == scipy_bounded(func, lo, hi, xatol)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            minimize_bounded(abs, 1.0, 0.0, 1e-8, start=[(0.5, 0.5)])
        with pytest.raises(ValueError):
            minimize_bounded(abs, 0.0, math.nan, 1e-8, start=[(0.5, 0.5)])

    def test_start_is_required(self):
        with pytest.raises(TypeError):
            minimize_bounded(abs, 0.0, 1.0, 1e-8)

    @pytest.mark.parametrize("func, lo, hi, xatol", [
        (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-10),
        (lambda x: math.exp(x) - 2.0 * x, 0.0, 2.0, 1e-12),
        (lambda x: math.inf if x > 0.7 else -x * (1.0 - x), 0.0, 1.0, 1e-10),
        (lambda x: x, 2.0, 5.0, 1e-6),
    ], ids=["quadratic", "exponential", "wall", "monotone"])
    @pytest.mark.parametrize("at", [(0.3, 0.5, 0.7), (0.0, 0.25, 0.5),
                                    (1.0, 0.6, 1.2), (0.5,)],
                             ids=["inside", "from-lo", "past-hi", "one"])
    def test_warm_start_reaches_scipy_minimum(self, func, lo, hi, xatol, at):
        # start pairs at fractions of the bracket; at an end of a grid the
        # third pair lies outside the bracket
        start = [(lo + t * (hi - lo), func(lo + t * (hi - lo))) for t in at]
        x, fx = minimize_bounded(func, lo, hi, xatol, start=start)
        ref_x, ref_f = scipy_bounded(func, lo, hi, xatol)
        assert lo <= x <= hi and fx == func(x)
        assert fx <= ref_f + 1e-12 * max(1.0, abs(ref_f))
        assert abs(x - ref_x) <= 4.0 * xatol + 1e-7 * abs(ref_x)

    def test_warm_start_best_pair_in_bracket(self):
        with pytest.raises(ValueError):
            minimize_bounded(abs, 1.0, 2.0, 1e-8,
                             start=[(0.0, 0.0), (1.5, 1.5)])

    def test_threshold_and_bounds_match_scipy_path(self, bound_cfg,
                                                   monkeypatch):
        # every warm-started search against scipy's bounded Brent, started
        # cold on the same bracket
        searches = []

        def recording(func, lo, hi, xatol, start):
            found = minimize_bounded(func, lo, hi, xatol, start=start)
            searches.append((func, lo, hi, xatol, found[1]))
            return found

        monkeypatch.setattr(rate, "minimize_bounded", recording)
        # fresh models: theta0 is memoized on the model
        ss = q.two_mode_example()
        theta0 = q.theta_threshold(ss, bound_cfg)
        q.theta_threshold(single_mode(1e-3), bound_cfg)
        grid = np.linspace(0.05, 0.95, 10) * theta0
        q.tail_bound(ss, 1.5 * q.lqg_rate(ss), grid, bound_cfg)
        q.worst_case_lqg_bound(ss, 0.05, grid, bound_cfg)
        assert len(searches) == 4
        for func, lo, hi, xatol, f_min in searches:
            reference = scipy_bounded(func, lo, hi, min(xatol, 1e-12))[1]
            assert f_min == pytest.approx(reference, rel=1e-12)
