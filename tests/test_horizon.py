"""Finite-horizon oracle: discretization structure and convergence."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_triangular
from scipy.linalg.lapack import dgesdd, dsyev

import qefrate as q
from qefrate import horizon
from qefrate._funcs import lncosh, sinhc, tanhc
from qefrate.errors import FeasibilityError, NumericalError, SizeError
from qefrate.horizon import _BlockToeplitz, _kernel_blocks

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


def riccati_ln_det_every_step(d0, realization, theta, n_grid):
    """ln det(I - theta P) by the pivot recursion of
    ``horizon._riccati_ln_det`` run for all ``n_grid`` steps, with no stop
    at a fixed point of Pi_k (reference)."""
    step, c, b = realization
    n = len(step)
    stacked = np.concatenate([-theta * c, step])
    pi = np.zeros((n, n))
    eigs = []
    for _ in range(n_grid):
        prod = stacked @ pi @ stacked.T
        w, v, _ = dsyev(theta * d0 + prod[:n, :n], lower=1)
        eigs.append(w)
        rv = (b - prod[n:, :n]) @ v
        pi = prod[n:, n:] + (rv / (1.0 - w)) @ rv.T
    return math.fsum(np.log1p(-np.array(eigs)).ravel())


def gram_eigh_reference(big_l, big_p, theta):
    """(ln_xi, spec_value) from the real symmetric eigensolve of L'L.

    The eigenvectors V of L'L = V diag(omega^2) V' give Tr ln cos(theta L)
    as a sum of lncosh(theta omega), and R V'PV R with R =
    diag(sqrt(tanhc(theta omega))) is orthogonally similar to
    sqrt(K) P sqrt(K); its spectrum is taken densely.
    """
    omega_sq, v = np.linalg.eigh(big_l.T @ big_l)
    x = theta * np.sqrt(np.maximum(omega_sq, 0.0))
    v *= np.sqrt(np.asarray(tanhc(x)))
    sym = v.T @ big_p @ v
    sym = 0.5 * (sym + sym.T)
    spec = theta * np.linalg.eigvalsh(sym)[-1]
    sign, ln_det = np.linalg.slogdet(np.eye(len(x)) - theta * sym)
    assert sign == 1.0
    return -0.5 * (math.fsum(np.asarray(lncosh(x))) + ln_det), spec


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

    @pytest.mark.parametrize("t_n", [(2.0, 16), (7.0, 40)])
    def test_matches_blockwise_definition(self, twomode, t_n):
        # block (j, k) is the lag-(j - k) kernel block, mirrored below zero;
        # P's block m >= 1 is c A_d^(m-1) b for the realization (A_d, c, b)
        t, n_grid = t_n
        lam_blocks, p_blocks, (step, c, b) = _kernel_blocks(twomode, t,
                                                             n_grid)
        for m in range(1, n_grid):
            realized = c @ np.linalg.matrix_power(step, m - 1) @ b
            assert np.max(np.abs(p_blocks[m] - realized)) \
                <= 1e-14 * np.max(np.abs(p_blocks[1]))
        n = twomode.n
        ref_l = np.empty((n * n_grid, n * n_grid))
        ref_p = np.empty_like(ref_l)
        for j in range(n_grid):
            for k in range(n_grid):
                rows, cols = slice(j * n, (j + 1) * n), slice(k * n, (k + 1) * n)
                if j >= k:
                    ref_l[rows, cols] = lam_blocks[j - k]
                    ref_p[rows, cols] = p_blocks[j - k]
                else:
                    ref_l[rows, cols] = -lam_blocks[k - j].T
                    ref_p[rows, cols] = p_blocks[k - j].T
        big_l, big_p = q.discretize_kernels(twomode, t, n_grid)
        assert np.array_equal(big_l, ref_l)
        assert np.array_equal(big_p, ref_p)

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
        # the dense reference on the time-reversed matrices agrees with
        # ln_xi on the kernel's own lag blocks
        theta = 0.4 * theta0
        big_l, big_p = q.discretize_kernels(twomode, 5.0, 100)
        n = twomode.n
        perm = np.arange(100)[::-1]
        idx = (perm[:, None] * n + np.arange(n)[None, :]).ravel()
        l_rev = big_l[np.ix_(idx, idx)]
        p_rev = big_p[np.ix_(idx, idx)]
        a = q.ln_xi(twomode, theta, 5.0, 100).ln_xi
        b = gram_eigh_reference(l_rev, p_rev, theta)[0]
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_raises(self, twomode, theta):
        with pytest.raises(FeasibilityError, match="must be finite"):
            q.ln_xi(twomode, theta, 2.0, 16)

    @pytest.mark.parametrize("case", ["twomode", "random_odd_order",
                                      "twomode_near_threshold",
                                      "random_odd_order_scaled",
                                      "random_300_cells_scaled"])
    def test_matches_complex_hermitian_reference(self, twomode, theta0, case):
        if case.startswith("twomode"):
            big_l, big_p = q.discretize_kernels(twomode, 4.0, 80)
            theta = (0.9 if case.endswith("threshold") else 0.5) * theta0
            est = q.ln_xi(twomode, theta, 4.0, 80)
            value, spec = est.ln_xi, est.spec_value
        else:
            # random lag blocks of order 2, whatever the ids say:
            # ||theta^2 L'L||_inf = 50.6 with N = 8, five halving steps,
            # 1568 with N = 20 and L tripled, eight, and 4420 with N = 300
            # and L tripled, nine, on hierarchical matrices of four leaves
            # whose off-diagonal blocks have full rank and are copied whole
            n_grid = {"random_odd_order": 8, "random_odd_order_scaled": 20,
                      "random_300_cells_scaled": 300}[case]
            rng = np.random.default_rng(7)
            lam_blocks = random_lag_blocks(rng, 2, n_grid)
            lam_blocks[0] = 0.5 * (lam_blocks[0] - lam_blocks[0].T)
            p_blocks = random_lag_blocks(rng, 2, n_grid)
            p_blocks[0] = 0.5 * (p_blocks[0] + p_blocks[0].T)
            if case.endswith("scaled"):
                lam_blocks *= 3.0
            big_l = horizon._assemble(
                horizon._lags(lam_blocks, antisymmetric=True))
            big_p = horizon._assemble(
                horizon._lags(p_blocks, antisymmetric=False))
            # tanhc <= 1, so theta * lam_max(P K) <= 0.8
            p_blocks *= 0.8 / np.linalg.eigvalsh(big_p)[-1]
            big_p *= 0.8 / np.linalg.eigvalsh(big_p)[-1]
            theta = 1.0
            bound = np.abs(big_l.T @ big_l).sum(axis=1).max()
            halvings = {8: 5, 20: 8, 300: 9}[n_grid]
            assert horizon._SERIES_BOUND * 4 ** (halvings - 1) < bound \
                <= horizon._SERIES_BOUND * 4 ** halvings
            value, spec = horizon._ln_xi_from_blocks(
                lam_blocks, p_blocks, None, theta, classical=False)
        expected, expected_spec = reference_ln_xi(big_l, big_p, theta)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert abs(spec - expected_spec) <= 1e-12

    def test_working_set(self, random_models):
        # numpy reports its buffers to tracemalloc; the peak counts the
        # full-size matrices alive at once.  On the halving path Y, Q and
        # the factor of Q are hierarchical matrices, alive beside a column
        # strip of Y, of Q and of Q^-1 Y and the sketches of the next Q
        # (1.206 matrices measured at order 1600, bound 8 % above)
        ss = random_models[1]
        theta = 0.5 * q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        big_l, _ = q.discretize_kernels(ss, 8.0, 800)
        bound = theta ** 2 * np.abs(big_l.T @ big_l).sum(axis=1).max()
        assert bound > horizon._SERIES_BOUND
        del big_l
        tracemalloc.start()
        try:
            q.ln_xi(ss, theta, horizon=8.0, n_grid=800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = ss.n * 800
        assert order == 1600
        assert peak < 1.3 * order ** 2 * 8

    def test_releases_its_memory_without_the_collector(self, twomode,
                                                       theta0):
        # nothing built for one call outlives it in a reference cycle,
        # which would hold the hierarchical matrices until the cyclic
        # collector ran: with the collector off, the call leaves almost
        # nothing behind
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 0.01 * 1600 ** 2 * 8

    def test_working_set_classical(self, twomode, theta0):
        # no full-order array: the pivots are n x n, and the largest
        # buffers are the margin's Lanczos vectors (0.097 matrices
        # measured at order 1600)
        tracemalloc.start()
        try:
            est = q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400,
                          classical=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = twomode.n * est.n_grid
        assert order == 1600
        assert peak < 0.12 * order ** 2 * 8

    def test_classical_factors_n_pivots_and_packs_nothing(self, twomode,
                                                          theta0,
                                                          monkeypatch):
        def refuse(*args):
            raise AssertionError("a hierarchical matrix on the classical "
                                 "route")

        pivots = []
        eig = horizon.dsyev

        def counted(a, **kwargs):
            pivots.append(a.shape)
            return eig(a, **kwargs)

        monkeypatch.setattr(horizon._Hodlr, "from_strips", refuse)
        monkeypatch.setattr(horizon, "dsyev", counted)
        q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400,
                classical=True)
        assert pivots == [(twomode.n, twomode.n)] * 400

    def test_classical_matches_dense_log1p_reference(self, twomode, theta0):
        # the pivots' log-dets are sums of log1p over the eigenvalues of
        # E_k; taken as logs of Cholesky diagonals instead they were
        # 1.2e-14 off at 0.1 theta0
        _, big_p = q.discretize_kernels(twomode, 10.0, 400)
        eigs = np.linalg.eigvalsh(big_p)
        for frac in (0.1, 0.5, 0.9):
            theta = frac * theta0
            expected = -0.5 * math.fsum(np.log1p(-theta * eigs))
            est = q.ln_xi(twomode, theta, horizon=10.0, n_grid=400,
                          classical=True)
            assert abs(est.ln_xi - expected) <= 2e-15 * abs(expected)

    def test_classical_matches_dense_on_random_models(self, random_models):
        draws = ([ss for ss in random_models if ss.n == 2][:3]
                 + [ss for ss in random_models if ss.n == 4][:3])
        for ss in draws:
            theta0 = q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
            n_grid = 800 // ss.n
            _, big_p = q.discretize_kernels(ss, 4.0, n_grid)
            eigs = np.linalg.eigvalsh(big_p)
            for frac in (0.5, 0.9):
                theta = frac * theta0
                expected = -0.5 * math.fsum(np.log1p(-theta * eigs))
                est = q.ln_xi(ss, theta, horizon=4.0, n_grid=n_grid,
                              classical=True)
                assert abs(est.ln_xi - expected) <= 1e-13 * abs(expected)

    def test_classical_infeasible_theta_raises(self, twomode):
        _, big_p = q.discretize_kernels(twomode, 4.0, 80)
        theta = 1.05 / np.linalg.eigvalsh(big_p)[-1]
        with pytest.raises(FeasibilityError,
                           match=r"theta \* lam_max\(P K\) = 1.05 >= 1"):
            q.ln_xi(twomode, theta, horizon=4.0, n_grid=80, classical=True)
        # the recursion's own test: a pivot that is not positive definite
        _, p_blocks, realization = _kernel_blocks(twomode, 4.0, 80)
        with pytest.raises(FeasibilityError, match="positive definiteness"):
            horizon._riccati_ln_det(p_blocks[0], realization, theta, 80)

    @pytest.mark.parametrize("frac, n_grid", [(0.1, 400), (0.1, 1600),
                                              (0.5, 800)])
    def test_riccati_stops_at_fixed_point(self, twomode, theta0, monkeypatch,
                                          frac, n_grid):
        # dt = 1/40; Pi_k repeats itself bit for bit before the last cell
        # in each case (at steps 326, 326 and 466 when measured; where
        # depends on rounding)
        theta = frac * theta0
        _, p_blocks, realization = _kernel_blocks(twomode, n_grid / 40, n_grid)
        expected = riccati_ln_det_every_step(p_blocks[0], realization, theta,
                                             n_grid)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return dsyev(*args, **kwargs)

        monkeypatch.setattr(horizon, "dsyev", counted)
        ln_det = horizon._riccati_ln_det(p_blocks[0], realization, theta,
                                         n_grid)
        assert ln_det.hex() == expected.hex()
        assert len(calls) < n_grid

    def test_refuses_bound_beyond_halving_range(self, twomode, monkeypatch):
        # ||theta^2 L'L||_inf = 61145 on two-mode at theta = 100, refused
        # before any hierarchical matrix is built or factored
        def refuse(*args):
            raise AssertionError("a hierarchical matrix past the bound "
                                 "check")

        monkeypatch.setattr(horizon._Hodlr, "from_strips", refuse)
        with pytest.raises(NumericalError, match="exceeds 10000"):
            q.ln_xi(twomode, 100.0, horizon=4.0, n_grid=80)

    def test_spec_value_on_arpack_path(self, twomode, theta0):
        # order 1280, above the order up to which the margin was once
        # dense; it comes from Lanczos on F^-1 P F^-T, F the hierarchical
        # Cholesky factor
        theta = 0.5 * theta0
        big_l, big_p = q.discretize_kernels(twomode, 8.0, 320)
        assert big_p.shape[0] == 1280
        expected, expected_spec = gram_eigh_reference(big_l, big_p, theta)
        est = q.ln_xi(twomode, theta, 8.0, 320)
        assert abs(est.ln_xi - expected) <= 1e-12 * abs(expected)
        assert abs(est.spec_value - expected_spec) <= 1e-12

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


def riccati_ln_xi_classical(ss, theta, horizon, piece=0.5):
    """Exact -1/2 ln det(I - theta P) of the continuous-time covariance
    operator on [0, T], with no time mesh.

    Feynman-Kac gives ln E exp(theta/2 int x'Pi x dt) = 1/2 int Tr(BB'Q)
    - 1/2 ln det(I - Sigma Q(T)) for the stationary x, where Q' = A'Q +
    QA + QBB'Q + theta Pi from Q(0) = 0 (Jacobson 1973).  Q = Y X^-1 with
    (X, Y)' = [[-A, -BB'], [theta Pi, A']] (X, Y) makes the trace integral
    -(ln det X(T) + T Tr A); the pieces of length ``piece`` each take one
    expm and reset (X, Y) to (I, Q), which keeps X well conditioned.
    """
    n = ss.n
    ham = np.block([[-ss.a, -ss.b @ ss.b.T], [theta * ss.weight, ss.a.T]])
    pieces = int(round(horizon / piece))
    step = expm((horizon / pieces) * ham)
    q_mat = np.zeros((n, n))
    ln_det_x = 0.0
    for _ in range(pieces):
        xy = step @ np.vstack([np.eye(n), q_mat])
        sign, ln_det = np.linalg.slogdet(xy[:n])
        assert sign == 1.0
        ln_det_x += ln_det
        q_mat = np.linalg.solve(xy[:n].T, xy[n:].T).T
    sign, ln_det = np.linalg.slogdet(np.eye(n) - ss.sigma @ q_mat)
    assert sign == 1.0
    return -0.5 * (ln_det_x + horizon * np.trace(ss.a)) - 0.5 * ln_det


def random_lag_blocks(rng, n, n_grid):
    """Decaying random n x n lag blocks B_0, ..., B_{N-1}."""
    decay = np.exp(-0.05 * np.arange(n_grid))[:, None, None]
    return rng.normal(size=(n_grid, n, n)) * decay


def assemble(first, g, h):
    """The symmetric C of ``horizon._lower_strips`` as a full matrix, from
    its strips (reference)."""
    dim = first.shape[1]
    out = np.empty((dim, dim))
    for j0, strip in horizon._lower_strips(first, g, h):
        s = slice(j0, j0 + strip.shape[1])
        # the strip's transpose is the upper triangle's row strip; its top
        # square and the columns below it take the mirror
        out[s, j0:] = strip.T
        block = out[s, s]
        np.copyto(block, block.T, where=np.tri(*block.shape, -1, dtype=bool))
        out[s.stop:, s] = out[s, s.stop:].T
    return out


def check_products_match_gemm(lam_blocks, big_l):
    """Y = 0.09 L'L from ``_gram`` and its powers Y^k, k = 1..7, from
    ``_powers`` on FFT products with L, each assembled from its first
    block row and generators, are exactly symmetric and within 1e-13 of
    plain gemm powers, and the trace formula gives their traces to 1e-13.
    ``_series`` at degree 7 gives Tr Y^k, k = 1..6, and Q - I =
    sum_k q_k Y^k to 1e-13.  Both multiply Y by the Krylov block and the
    newest generator chunks only: 4n, 6n, then 10n columns a product."""
    op = _BlockToeplitz(lam_blocks, antisymmetric=True)
    first, g, h = horizon._gram(op, 0.3)
    n = first.shape[0]
    widths = []

    def times_y(x):
        widths.append(x.shape[1])
        return -0.09 * (op @ (op @ x))

    y_ref = 0.09 * big_l.T @ big_l
    refs = [y_ref]
    for _ in range(6):
        refs.append(y_ref @ refs[-1])
    out = assemble(first.copy(), g, h)
    assert np.array_equal(out, out.T)
    assert np.max(np.abs(out - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
    k = 0
    for k, (col, gk, hk) in enumerate(
            horizon._powers(times_y, first, g, h, 7), start=1):
        ref = refs[k - 1]
        out = assemble(col.T, gk, hk)
        assert np.array_equal(out, out.T)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        expected = np.trace(ref)
        assert abs(horizon._trace(col.T, gk, hk) - expected) \
            <= 1e-13 * abs(expected)
    assert k == 7
    assert widths == [4 * n, 6 * n] + [10 * n] * 5
    widths.clear()
    q_first, q_g, q_h, traces = horizon._series(
        (first, g, h), times_y, 7, horizon._inf_norm(first, g, h))
    assert widths == [4 * n, 6 * n] + [10 * n] * 5
    q_ref = sum(horizon._Q[k] * ref for k, ref in enumerate(refs, start=1))
    q_mat = assemble(q_first, q_g, q_h)
    assert np.max(np.abs(q_mat - q_ref)) <= 1e-13 * np.max(np.abs(q_ref))
    expected = [np.trace(ref) for ref in refs[:6]]
    assert np.allclose(traces, expected, rtol=1e-13, atol=0.0)


class TestStructured:
    """ln_xi's block-Toeplitz route: the powers of Y from displacement
    generators, products with P by FFT, no dense L or P."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_displacement_products_match_gemm(self, n):
        rng = np.random.default_rng(n)
        n_grid = 67
        lam_blocks = random_lag_blocks(rng, n, n_grid)
        lam_blocks[0] = 0.5 * (lam_blocks[0] - lam_blocks[0].T)
        check_products_match_gemm(
            lam_blocks,
            horizon._assemble(horizon._lags(lam_blocks, antisymmetric=True)))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fft_product_matches_assembled(self, n):
        rng = np.random.default_rng(10 + n)
        blocks = random_lag_blocks(rng, n, 67)
        blocks[0] = 0.5 * (blocks[0] + blocks[0].T)
        big_p = _BlockToeplitz(blocks)
        dense = horizon._assemble(horizon._lags(blocks, antisymmetric=False))
        v = rng.normal(size=n * 67)
        expected = dense @ v
        assert np.max(np.abs(big_p @ v - expected)) \
            <= 1e-13 * np.max(np.abs(expected))

    def test_fft_product_owns_its_memory(self):
        # the product holds its N blocks, not the FFT-length buffer, about
        # 2N blocks, that it was cut from
        rng = np.random.default_rng(3)
        op = _BlockToeplitz(random_lag_blocks(rng, 4, 800),
                            antisymmetric=True)
        x = rng.normal(size=(3200, 40))
        op @ x  # the lag spectrum is computed on the first product
        tracemalloc.start()
        try:
            out = op @ x
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape and out.base is None
        assert held <= 1.05 * out.nbytes

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("t_n", [(4.0, 81), (8.25, 330)],
                             ids=["dense-margin", "arpack-margin"])
    @pytest.mark.parametrize("classical", [False, True])
    def test_matches_dense_matrices(self, twomode, theta0, frac, t_n,
                                    classical):
        # N - 1 = 80 and 329 block rows of displacement: neither is a
        # multiple of the 32-block-row strip.  The references are dense:
        # the eigensolve of L'L, or -1/2 sum log1p(-theta eig P)
        t, n_grid = t_n
        theta = frac * theta0
        est = q.ln_xi(twomode, theta, t, n_grid, classical=classical)
        big_l, big_p = q.discretize_kernels(twomode, t, n_grid)
        if classical:
            eigs = np.linalg.eigvalsh(big_p)
            value = -0.5 * math.fsum(np.log1p(-theta * eigs))
            spec = theta * eigs[-1]
        else:
            value, spec = gram_eigh_reference(big_l, big_p, theta)
        assert abs(est.ln_xi - value) <= 1e-13 * abs(value)
        assert abs(est.spec_value - spec) <= 1e-13 * spec

    def test_matches_dense_matrices_with_halvings(self, random_models):
        ss = random_models[1]
        theta = 0.5 * q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        big_l, big_p = q.discretize_kernels(ss, 6.0, 300)
        # ||theta^2 L'L||_inf = 0.198: one halving step
        bound = theta ** 2 * np.abs(big_l.T @ big_l).sum(axis=1).max()
        assert horizon._SERIES_BOUND < bound <= 4 * horizon._SERIES_BOUND
        est = q.ln_xi(ss, theta, 6.0, 300)
        value, spec = gram_eigh_reference(big_l, big_p, theta)
        assert abs(est.ln_xi - value) <= 1e-13 * abs(value)
        assert abs(est.spec_value - spec) <= 1e-13 * spec

    def test_halving_path_matches_eigh_reference(self, random_models):
        # one halving step (see the test above), against the complex
        # Hermitian eigensolve of iL on the assembled matrices
        ss = random_models[1]
        theta = 0.5 * q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        est = q.ln_xi(ss, theta, 6.0, 300)
        expected, expected_spec = reference_ln_xi(
            *q.discretize_kernels(ss, 6.0, 300), theta)
        assert abs(est.ln_xi - expected) <= 1e-12 * abs(expected)
        assert abs(est.spec_value - expected_spec) <= 1e-12

    def test_zero_theta_builds_nothing(self, twomode, monkeypatch):
        def refuse(*args):
            raise AssertionError("evaluated at theta = 0")
        monkeypatch.setattr(horizon, "_kernel_blocks", refuse)
        monkeypatch.setattr(horizon, "_ln_xi_from_blocks", refuse)
        est = q.ln_xi(twomode, 0.0, horizon=10.0, n_grid=400)
        assert (est.ln_xi, est.spec_value) == (0.0, 0.0)
        with pytest.raises(NumericalError, match="horizon must be positive"):
            q.ln_xi(twomode, 0.0, horizon=-1.0, n_grid=400)

    def test_working_set_structured(self, twomode, theta0):
        # no full matrix: Y and its powers are first block rows and
        # generators, and Q - theta P is a hierarchical matrix sketched
        # from strips of them: dense leaves of order 200, low-rank
        # off-diagonal blocks (0.547 matrices measured at order 1600,
        # bound 10 % above)
        tracemalloc.start()
        try:
            est = q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = twomode.n * est.n_grid
        assert order == 1600
        assert peak < 0.6 * order ** 2 * 8

    def test_working_set_structured_order_3200(self, twomode, theta0):
        # the leaves and sketches grow with the order, a matrix with its
        # square: 0.282 matrices measured at order 3200 (23.1 MB), bound
        # 6 % above
        tracemalloc.start()
        try:
            est = q.ln_xi(twomode, 0.5 * theta0, horizon=20.0, n_grid=800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = twomode.n * est.n_grid
        assert order == 3200
        assert peak < 0.3 * order ** 2 * 8

    @pytest.mark.parametrize("frac", [0.1, 0.5])
    def test_classical_richardson_hits_exact_reference(self, twomode, theta0,
                                                       frac):
        # midpoint collocation is O(dt^2); Richardson on 40 and 80 cells
        # per unit time leaves 4e-9 and 4e-8 (relative) at 0.1 and 0.5
        # theta0, and 20/40 cells would leave 6e-8 and 7e-7
        theta = frac * theta0
        coarse, fine = (q.ln_xi(twomode, theta, horizon=5.0, n_grid=n,
                                classical=True).ln_xi for n in (200, 400))
        exact = riccati_ln_xi_classical(twomode, theta, 5.0)
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-7 * exact


def hodlr_gram_plus_identity(n_grid):
    """I + 0.09 L'L as a hierarchical matrix from one walk of the strips
    of its first block row and generators, and assembled by gemm, for the
    two-mode model's lag blocks at N = ``n_grid`` and dt = 1/20 (order
    4N); and the first block row and generators of 0.09 L'L."""
    lam_blocks, _, _ = _kernel_blocks(q.two_mode_example(), n_grid / 20,
                                      n_grid)
    big_l = horizon._assemble(horizon._lags(lam_blocks, antisymmetric=True))
    gram = horizon._gram(_BlockToeplitz(lam_blocks, antisymmetric=True), 0.3)
    sym = horizon._Hodlr.from_strips(len(big_l),
                                     lambda: horizon._lower_strips(*gram),
                                     1.0)
    return sym, np.eye(len(big_l)) + 0.09 * big_l.T @ big_l, gram


class TestHodlr:
    """Q - theta P as a hierarchical (HODLR) matrix: the sketching walk,
    the recursive Cholesky factor, its solves and the Lanczos margin on
    them."""

    @pytest.mark.parametrize("case", ["structured-324", "structured-1000"])
    def test_write_factor_and_solves_match_dense(self, case):
        # order 324: two leaves of 162; order 1000: eight leaves of 125
        # under three levels of splits, whose Schur updates recompress
        sym, dense, gram = hodlr_gram_plus_identity(int(case[11:]) // 4)
        dim = len(dense)
        splits = [node for node in sym.nodes if node.mid is not None]
        assert len(splits) == (1 if dim == 324 else 7)
        # 128-column strips straddle the splits
        assert any(j0 < node.mid < j0 + s.shape[1]
                   for j0, s in horizon._lower_strips(*gram)
                   for node in splits)
        assert max(node.u.shape[1] for node in splits) <= 16
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(sym.columns(0, dim) - dense)) <= 1e-14 * scale
        ln_det = sym.factor()
        chol = np.linalg.cholesky(dense)
        # F^-1 determines the factor F
        inverse = solve_triangular(chol, np.eye(dim), lower=True)
        assert np.max(np.abs(sym.solve(np.eye(dim)) - inverse)) \
            <= 1e-13 * np.max(np.abs(inverse))
        assert abs(ln_det - np.linalg.slogdet(dense)[1]) <= 1e-13 * abs(ln_det)
        rng = np.random.default_rng(dim)
        v = rng.normal(size=dim)
        for trans in (False, True):
            expected = solve_triangular(chol, v, lower=True,
                                        trans="T" if trans else "N")
            assert np.max(np.abs(sym.solve(v, trans) - expected)) \
                <= 1e-13 * np.max(np.abs(expected))
        rhs = rng.normal(size=(dim, 5))
        expected = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(sym.cho_solve(rhs) - expected)) \
            <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("weight", [0.5, 1.5])
    def test_indefinite_fails_at_a_leaf_after_its_updates(self, weight):
        # A = I - (weight / d) 1 1' of order 1000 has eigenvalues 1 and
        # 1 - weight; its leaves, of order 125, are positive definite.  At
        # weight 1.5 the leading block of order k has the eigenvalue
        # 1 - 1.5 k / 1000, first negative at k = 750: the factor fails
        # at the sixth leaf, once the Schur updates have reached it
        dim = 1000
        dense = np.eye(dim) - weight / dim

        def strips():
            for j0 in range(0, dim, 128):
                yield j0, dense[j0:, j0:j0 + 128]

        sym = horizon._Hodlr.from_strips(dim, strips)
        assert [node.hi - node.lo for node in sym.nodes
                if node.mid is None] == [125] * 8
        assert {node.u.shape[1] for node in sym.nodes
                if node.mid is not None} == {1}
        if weight < 1.0:
            ln_det = sym.factor()
            assert abs(ln_det - math.log(1.0 - weight)) <= 1e-13
            return
        leaves = []
        cholesky = horizon.cholesky

        def recorded(a, **kwargs):
            leaves.append(len(a))
            return cholesky(a, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(horizon, "cholesky", recorded)
            with pytest.raises(np.linalg.LinAlgError):
                sym.factor()
        assert leaves == [125] * 6

    def test_sketch_too_narrow_is_redone_wider(self, monkeypatch):
        # a sketch of 4 columns cannot hold blocks of rank 8 or more: the
        # walk is redone at 8, then 16 columns, the width that sufficed is
        # kept, and the matrix comes out as with the default width
        widths = []
        sketch = horizon._sketch

        def recorded(nodes, strips, width, diagonal):
            widths.append(width)
            return sketch(nodes, strips, width, diagonal)

        monkeypatch.setattr(horizon, "_sketch", recorded)
        sym, dense, gram = hodlr_gram_plus_identity(250)
        assert widths == [horizon._SKETCH] and sym.width == horizon._SKETCH
        widths.clear()
        dim = len(dense)
        narrow = horizon._Hodlr.from_strips(
            dim, lambda: horizon._lower_strips(*gram), 1.0, width=4)
        assert len(widths) > 1
        assert widths == [4 * 2 ** k for k in range(len(widths))]
        assert narrow.width == widths[-1]
        assert np.max(np.abs(narrow.columns(0, dim) - dense)) \
            <= 1e-14 * np.max(np.abs(dense))

    def test_full_rank_blocks_end_the_widening(self, monkeypatch):
        # a random positive definite matrix of order 300 has full-rank
        # off-diagonal blocks of order 150: the sketches widen from 24 to
        # 192, past the blocks' side, and stop there, exact
        widths = []
        sketch = horizon._sketch

        def recorded(nodes, strips, width, diagonal):
            widths.append(width)
            return sketch(nodes, strips, width, diagonal)

        monkeypatch.setattr(horizon, "_sketch", recorded)
        rng = np.random.default_rng(300)
        g = rng.normal(size=(300, 300))
        dense = g @ g.T / 300 + np.eye(300)

        def strips():
            for j0 in range(0, 300, 128):
                yield j0, dense[j0:, j0:j0 + 128]

        sym = horizon._Hodlr.from_strips(300, strips)
        assert widths == [24, 48, 96, 192]
        assert [node.u.shape[1] for node in sym.nodes
                if node.mid is not None] == [150]
        assert np.max(np.abs(sym.columns(0, 300) - dense)) \
            <= 1e-13 * np.max(np.abs(dense))
        ln_det = sym.factor()
        assert abs(ln_det - np.linalg.slogdet(dense)[1]) <= 1e-13 * abs(ln_det)

    def test_svd_falls_back_when_divide_and_conquer_fails(self,
                                                          monkeypatch):
        # dgesdd returned info 1 and NaN on a 576 x 384 sketch core of
        # nine halving steps at order 800; dgesvd then gives the SVD
        def failing(a, **kwargs):
            u, s, vt, _ = dgesdd(a, **kwargs)
            return u, np.full_like(s, np.nan), vt, 1

        monkeypatch.setattr(horizon, "dgesdd", failing)
        core = np.random.default_rng(36).normal(size=(36, 24))
        u, s, vt = horizon._svd(core)
        assert u.shape == (36, 24) and vt.shape == (24, 24)
        assert np.max(np.abs((u * s) @ vt - core)) <= 1e-13

    @pytest.mark.parametrize("classical", [False, True],
                             ids=["quantum", "classical"])
    def test_lambda_max_matches_eigvalsh(self, twomode, theta0, classical):
        # order 324, against the assembled F^-1 P F^-T (or P) of the
        # dense Cholesky factor F of the assembled Q - theta P
        theta = 0.5 * theta0
        lam_blocks, p_blocks, _ = _kernel_blocks(twomode, 4.0, 81)
        big_p = _BlockToeplitz(p_blocks)
        dense_p = horizon._assemble(big_p.lags)
        if classical:
            chol, expected = None, np.linalg.eigvalsh(dense_p)[-1]
        else:
            chol, _ = horizon._coth_and_ln_det_sinhc(
                lam_blocks, big_p.first_row(), theta)
            factor = np.linalg.cholesky(chol.columns(0, chol.dim))
            chol.factor()
            half = solve_triangular(factor, dense_p, lower=True)
            expected = np.linalg.eigvalsh(
                solve_triangular(factor, half.T, lower=True))[-1]
        mu = horizon._lambda_max(big_p, chol)
        assert abs(mu - expected) <= 1e-13 * expected

    def test_lanczos_exhausts_one_block_of_order_7(self, monkeypatch):
        # the Krylov space of the ones vector is the whole space: the
        # Ritz solve runs at each of the 7 steps, the last one exact
        rng = np.random.default_rng(7)
        g = rng.normal(size=(7, 7))
        big_p = g @ g.T
        calls = []
        ritz = horizon.eigh_tridiagonal

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return ritz(*args, **kwargs)

        monkeypatch.setattr(horizon, "eigh_tridiagonal", counted)
        mu = horizon._lambda_max(_BlockToeplitz(big_p[None]))
        assert calls == list(range(1, 8))
        expected = np.linalg.eigvalsh(big_p)[-1]
        assert abs(mu - expected) <= 1e-13 * expected


class TestSeries:
    def test_coefficients(self):
        # q_k = 4^k B_2k/(2k)! and s_k = q_k/(2k), exactly rounded, with the
        # Bernoulli numbers from sum_j C(m+1, j) B_j = 0
        bern = [Fraction(1)]
        for m in range(1, 17):
            bern.append(-sum(math.comb(m + 1, j) * bern[j]
                             for j in range(m)) / (m + 1))
        exact = [4 ** k * bern[2 * k] / math.factorial(2 * k)
                 for k in range(9)]
        assert exact[:4] == [1, Fraction(1, 3), Fraction(-1, 45),
                             Fraction(2, 945)]
        assert horizon._Q == tuple(float(c) for c in exact)
        assert horizon._S == tuple(float(exact[k] / (2 * k))
                                   for k in range(1, 7))

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_q_against_tanhc_to_its_bound(self, steps):
        bound = (*horizon._DEGREE_BOUNDS, horizon._SERIES_BOUND)[steps]
        y = np.linspace(0.0, bound, 201)
        degree = 2 * steps + 3
        series = sum(horizon._Q[k] * y ** k for k in range(degree + 1))
        assert np.max(np.abs(series - 1.0 / np.asarray(tanhc(np.sqrt(y))))) \
            <= 4 * np.finfo(float).eps

    def test_ln_sinhc_to_the_series_bound(self):
        y = np.linspace(0.0, horizon._SERIES_BOUND, 201)
        series = sum(c * y ** k for k, c in enumerate(horizon._S, start=1))
        expected = np.log(np.asarray(sinhc(np.sqrt(y))))
        assert np.max(np.abs(series - expected)) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("target, degree, kept",
                             [(5e-4, 3, 4), (0.049, 7, 6)])
    def test_traces_stop_at_certified_remainder(self, target, degree, kept):
        # Tr ln sinhc(sqrt Y) against the eigenvalues of the assembled Y.
        # At b = 5e-4 two of the six trace powers are left out; just below
        # the series bound all six run, as Q's degree 7 needs its powers
        rng = np.random.default_rng(1)
        n, n_grid = 2, 60
        lam_blocks = random_lag_blocks(rng, n, n_grid)
        lam_blocks[0] = 0.5 * (lam_blocks[0] - lam_blocks[0].T)
        op = _BlockToeplitz(lam_blocks, antisymmetric=True)
        theta = math.sqrt(target / horizon._inf_norm(*horizon._gram(op, 1.0)))
        _, ln_det = horizon._coth_and_ln_det_sinhc(
            lam_blocks, np.zeros((n, n * n_grid)), theta)
        big_l = horizon._assemble(
            horizon._lags(lam_blocks, antisymmetric=True))
        y = np.abs(np.linalg.eigvalsh(theta ** 2 * (big_l.T @ big_l)))
        # ln sinhc(sqrt y) to full relative precision: log1p of sinhc's
        # Taylor series less its leading 1
        expected = math.fsum(np.log1p(
            sum(y ** k / math.factorial(2 * k + 1) for k in range(1, 13))))
        assert abs(ln_det - expected) <= 1e-14 * expected

        first, g, h = horizon._gram(op, theta)
        bound = horizon._inf_norm(first, g, h)
        assert 3 + 2 * sum(bound > limit for limit in horizon._DEGREE_BOUNDS) \
            == degree
        *_, traces = horizon._series(
            (first, g, h), lambda x: -theta ** 2 * (op @ (op @ x)), degree,
            bound)
        assert len(traces) == kept
        total = math.fsum(c * t for c, t in zip(horizon._S, traces))
        assert total == ln_det
        # the first term left out, s_(K+1) Tr Y^(K+1) <= |s_(K+1)| b Tr Y^K,
        # with s_7 = q_7 / 14 past the six coefficients kept
        s_next = (*horizon._S, horizon._Q[7] / 14)[kept]
        assert abs(s_next) * bound * traces[-1] <= 2.0 ** -53 * abs(total)

    @pytest.mark.parametrize("top", [1e-4, 0.04, 3.0, 1e3])
    def test_diagonal_matches_scalar_functions(self, top):
        # a diagonal Y commutes exactly with every step, halvings included.
        # L is one antisymmetric block (N = 1) of 2 x 2 rotations by
        # sqrt(y_i), so Y = L'L is diagonal, its displacement is empty and
        # the length-1 FFT products are exact: Q comes back diagonal
        block = np.zeros((64, 64))
        block[0::2, 1::2] = np.diag(np.sqrt(np.linspace(0.0, top, 32)))
        block[1::2, 0::2] = -block[0::2, 1::2]
        sym, ln_det = horizon._coth_and_ln_det_sinhc(
            block[None], np.zeros((64, 64)), 1.0)
        q_mat = sym.columns(0, 64)
        y = np.diag(horizon._gram(
            _BlockToeplitz(block[None], antisymmetric=True), 1.0)[0])
        x = np.sqrt(y)
        expected_q = 1.0 / np.asarray(tanhc(x))
        expected_ln_det = math.fsum(np.log(np.asarray(sinhc(x))))
        assert np.max(np.abs(np.diag(q_mat) - expected_q) / expected_q) \
            <= 1e-14
        assert np.count_nonzero(q_mat - np.diag(np.diag(q_mat))) == 0
        assert abs(ln_det - expected_ln_det) \
            <= 1e-14 * max(1.0, abs(expected_ln_det))


FROZEN = json.loads((Path(__file__).resolve().parent
                     / "horizon_values.json").read_text())


class TestFrozenValues:
    """``ln_xi`` and ``spec_value`` against the values that
    ``tests/make_horizon_values.py`` froze: two-mode at orders 1600 to
    6400 and the first eight random models, ten of whose quantum cases
    take halving steps, quantum and classical."""

    @pytest.mark.parametrize(
        "record", FROZEN,
        ids=[f"{r['model']}-{r['fraction']}-T{r['horizon']:g}"
             f"{'-classical' * r['classical']}" for r in FROZEN])
    def test_matches_frozen_values(self, twomode, random_models, record):
        name = record["model"]
        ss = (twomode if name == "two_mode"
              else random_models[int(name.split("_")[1])])
        theta = float.fromhex(record["theta"])
        theta0 = q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        assert theta == record["fraction"] * theta0
        n_grid = record["n_grid"]
        est = q.ln_xi(ss, theta, record["horizon"], n_grid,
                      max_dim=ss.n * n_grid, classical=record["classical"])
        for key in ("ln_xi", "spec_value"):
            expected = float.fromhex(record[key])
            assert abs(getattr(est, key) - expected) <= 1e-13 * abs(expected)


class TestConvergence:
    def test_single_horizon_passthrough(self, twomode, theta0):
        study = q.convergence_study(twomode, 0.3 * theta0, [5.0],
                                    n_per_unit_time=20)
        assert study.extrapolated_rate == study.estimates[0].per_time_rate

    def test_extrapolation_follows_replaced_estimates(self):
        # rates exactly 2 + 3/T extrapolate to 2; replacing the estimates
        # gives a study that fits them anew
        def study(intercept):
            return q.ConvergenceStudy(estimates=tuple(
                q.HorizonEstimate(horizon=t, n_grid=8,
                                  ln_xi=(intercept + 3.0 / t) * t,
                                  spec_value=0.0)
                for t in (2.0, 4.0, 8.0)))
        first = study(2.0)
        assert abs(first.extrapolated_rate - 2.0) < 1e-14
        moved = dataclasses.replace(first, estimates=study(5.0).estimates)
        assert abs(moved.extrapolated_rate - 5.0) < 1e-14

    @pytest.mark.parametrize("theta, horizons, error, message", [
        (math.nan, [2.0, 4.0], FeasibilityError, "must be finite"),
        (-0.01, [2.0, 4.0], FeasibilityError, "must be finite"),
        (0.04, [2.0, 0.1], NumericalError,
         "at least 8 time cells, got 4 at horizon 0.1"),
        (0.04, [], NumericalError, "empty horizon list"),
        (0.04, [2.0, 2.0], NumericalError, "repeated horizon"),
        (0.04, [2.0, math.nan], NumericalError,
         "horizon must be positive and finite, got nan"),
        (0.04, [4.0, 2.01], NumericalError,
         "horizon 2.01 is 80.4 cells of width 1/40, not a whole number; "
         "the nearest whole-cell horizons are 2 and 2.025")],
        ids=["theta-nan", "theta-negative", "too-few-cells", "empty",
             "repeated", "horizon-nan", "not-whole-cells"])
    def test_inputs_checked_before_any_evaluation(self, twomode, monkeypatch,
                                                  theta, horizons, error,
                                                  message):
        calls = []
        monkeypatch.setattr(q.horizon, "ln_xi",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(error, match=message):
            q.convergence_study(twomode, theta, horizons, n_per_unit_time=40)
        assert calls == []

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
