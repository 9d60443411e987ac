"""Finite-horizon oracle: discretization structure and convergence."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, solve_triangular
from scipy.linalg.lapack import dtfttr

import qefrate as q
from qefrate import horizon
from qefrate._funcs import lncosh, sinhc, tanhc
from qefrate.errors import FeasibilityError, NumericalError, SizeError
from qefrate.horizon import _BlockToeplitz, _kernel_blocks, ln_xi_from_matrices

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
        # block (j, k) is the lag-(j - k) kernel block, mirrored below zero
        t, n_grid = t_n
        lam_blocks, p_blocks = _kernel_blocks(twomode, t, n_grid)
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

    @pytest.mark.parametrize("case", ["twomode", "random_odd_order",
                                      "twomode_near_threshold",
                                      "random_odd_order_scaled"])
    def test_matches_complex_hermitian_reference(self, twomode, theta0, case):
        if case.startswith("twomode"):
            big_l, big_p = q.discretize_kernels(twomode, 4.0, 80)
            theta = (0.9 if case.endswith("threshold") else 0.5) * theta0
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
            if case.endswith("scaled"):
                # ||theta^2 L'L||_inf = 744: seven halving steps
                big_l *= 10.0
        expected, expected_spec = reference_ln_xi(big_l, big_p, theta)
        value, spec = ln_xi_from_matrices(big_l, big_p, theta)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert abs(spec - expected_spec) <= 1e-12

    @pytest.mark.parametrize("classical", [False, True])
    def test_from_matrices_leaves_inputs_unchanged(self, twomode, theta0,
                                                   classical):
        big_l, big_p = q.discretize_kernels(twomode, 4.0, 80)
        l_before, p_before = big_l.copy(), big_p.copy()
        ln_xi_from_matrices(big_l, big_p, 0.5 * theta0, classical=classical)
        assert np.array_equal(big_l, l_before)
        assert np.array_equal(big_p, p_before)

    def test_working_set(self, random_models):
        # numpy reports its buffers to tracemalloc; the peak counts the
        # full-size matrices alive at once.  On the halving path the dense
        # Y, the packed Q and the packed factor of Q, half a matrix each,
        # are alive beside a strip of Q^-1 Y (2.18 matrices measured at
        # order 1600)
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
        assert peak < 2.3 * order ** 2 * 8

    @pytest.mark.parametrize("classical, matrices",
                             [(False, 2.5), (True, 0.65)],
                             ids=["quantum", "classical"])
    def test_working_set_from_matrices(self, twomode, theta0, classical,
                                       matrices):
        # one block: Y and Y^2, each a full matrix, and column strips of
        # Y^3 during the series, Q then written over Y^2 (2.39 measured at
        # order 1600); on the classical route packed I - theta P alone,
        # written from strips of P (0.59 measured)
        big_l, big_p = q.discretize_kernels(twomode, 10.0, 400)
        tracemalloc.start()
        try:
            ln_xi_from_matrices(big_l, big_p, 0.5 * theta0, classical=classical)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big_p.shape[0] == 1600
        assert peak < matrices * big_p.size * 8

    def test_working_set_classical(self, twomode, theta0):
        # packed I - theta P, half a matrix, written from strips of P,
        # which is never assembled (0.62 matrices measured at order 1600)
        tracemalloc.start()
        try:
            est = q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400,
                          classical=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = twomode.n * est.n_grid
        assert order == 1600
        assert peak < 0.7 * order ** 2 * 8

    @pytest.mark.parametrize("shapes, bad", [
        (((3, 3), (4, 4)), None), (((4, 4), (3, 3)), None),
        (((3, 4), (3, 4)), None), (((4,), (4,)), None),
        (((0, 0), (0, 0)), None), (((4, 4), (4, 4)), ("l", math.nan)),
        (((4, 4), (4, 4)), ("p", math.inf))],
        ids=["orders-differ", "orders-differ-l-larger", "not-square",
             "not-a-matrix", "empty", "l-nan", "p-inf"])
    @pytest.mark.parametrize("classical", [False, True])
    def test_from_matrices_checks_inputs(self, monkeypatch, shapes, bad,
                                         classical):
        big_l, big_p = (np.ones(shape) for shape in shapes)
        if bad is not None:
            (big_l if bad[0] == "l" else big_p)[1, 2] = bad[1]
        calls = []
        monkeypatch.setattr(horizon, "_ln_xi_consuming",
                            lambda *a: calls.append(a))
        with pytest.raises(NumericalError, match="L and P must be"):
            ln_xi_from_matrices(big_l, big_p, 0.1, classical=classical)
        assert calls == []

    def test_refuses_bound_beyond_halving_range(self):
        # ||L'L||_inf = 7.4e6, where the halving steps would put ln_xi
        # 6e-5 (relative) and the margin 0.04 off
        rng = np.random.default_rng(7)
        g = rng.normal(size=(7, 7))
        big_l = 500.0 * (g - g.T)
        with pytest.raises(NumericalError, match="exceeds 10000"):
            ln_xi_from_matrices(big_l, np.eye(7), 1.0)

    def test_spec_value_on_arpack_path(self, twomode, theta0):
        # order 1280, above the order up to which the margin was once
        # dense; it comes from Lanczos on F^-1 P F^-T, F the packed factor
        theta = 0.5 * theta0
        big_l, big_p = q.discretize_kernels(twomode, 8.0, 320)
        assert big_p.shape[0] == 1280
        expected, expected_spec = gram_eigh_reference(big_l, big_p, theta)
        value, spec = ln_xi_from_matrices(big_l, big_p, theta)
        assert abs(value - expected) <= 1e-12 * abs(expected)
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


def unpack(sym, factor=False):
    """The symmetric matrix a packed ``sym`` holds, assembled from its lower
    triangle with ``dtfttr``, or with ``factor`` that lower triangle alone
    (the Cholesky factor once ``sym.factor()`` has run); an odd order
    drops the padding."""
    k = sym.buf.shape[0]
    full, info = dtfttr(2 * k, sym.buf.reshape(-1, order="F"), transr="T",
                        uplo="L")
    assert info == 0
    lower = np.tril(full)[:sym.dim, :sym.dim]
    return lower if factor else lower + np.tril(lower, -1).T


def check_products_match_gemm(lam_blocks, big_l):
    """Y = 0.09 L'L from ``_gram`` and, with more than one block, its
    powers Y^k, k = 1..7, from ``_powers`` on FFT products with L, each
    assembled from its first block row and generators, are exactly
    symmetric and within 1e-13 of plain gemm powers, and the trace
    formula gives their traces to 1e-13.  ``_series`` at degree 7 gives
    Tr Y^k, k = 1..6, and Q - I = sum_k q_k Y^k to 1e-13 on either
    route."""
    first, g, h = horizon._gram(lam_blocks, 0.3)
    op = _BlockToeplitz(lam_blocks, antisymmetric=True)

    def times_y(x):
        return -0.09 * (op @ (op @ x))

    y_ref = 0.09 * big_l.T @ big_l
    refs = [y_ref]
    for _ in range(6):
        refs.append(y_ref @ refs[-1])
    out = horizon._dense(first.copy(), g, h)
    assert np.array_equal(out, out.T)
    assert np.max(np.abs(out - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
    k = 0
    if first.shape[0] < first.shape[1]:
        for k, (col, gk, hk) in enumerate(
                horizon._powers(times_y, first, g, h, 7), start=1):
            ref = refs[k - 1]
            out = horizon._dense(col.T, gk, hk)
            assert np.array_equal(out, out.T)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
            expected = np.trace(ref)
            assert abs(horizon._trace(col.T, gk, hk) - expected) \
                <= 1e-13 * abs(expected)
        assert k == 7
    q_first, q_g, q_h, traces = horizon._series((first, g, h), times_y, 7)
    q_ref = sum(horizon._Q[k] * ref for k, ref in enumerate(refs, start=1))
    q_mat = horizon._dense(q_first, q_g, q_h)
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

    def test_one_block_products_match_gemm(self):
        # ln_xi_from_matrices reads an arbitrary L as one block, whose
        # displacement is empty: each power is its first block row
        rng = np.random.default_rng(37)
        g = rng.normal(size=(37, 37))
        big_l = 0.5 * (g - g.T)
        check_products_match_gemm(big_l[None], big_l)

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

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("t_n", [(4.0, 81), (8.25, 330)],
                             ids=["dense-margin", "arpack-margin"])
    @pytest.mark.parametrize("classical", [False, True])
    def test_matches_dense_matrices(self, twomode, theta0, frac, t_n,
                                    classical):
        # N - 1 = 80 and 329 block rows of displacement: neither is a
        # multiple of the 32-block-row strip
        t, n_grid = t_n
        theta = frac * theta0
        est = q.ln_xi(twomode, theta, t, n_grid, classical=classical)
        value, spec = ln_xi_from_matrices(*q.discretize_kernels(twomode, t,
                                                                 n_grid),
                                          theta, classical=classical)
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
        value, spec = ln_xi_from_matrices(big_l, big_p, theta)
        assert abs(est.ln_xi - value) <= 1e-13 * abs(value)
        assert abs(est.spec_value - spec) <= 1e-13 * spec

    def test_halving_path_matches_eigh_reference(self, random_models):
        # one halving step (see the test above), against the real
        # symmetric eigensolve of L'L on the assembled matrices
        ss = random_models[1]
        theta = 0.5 * q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        est = q.ln_xi(ss, theta, 6.0, 300)
        expected, expected_spec = gram_eigh_reference(
            *q.discretize_kernels(ss, 6.0, 300), theta)
        assert abs(est.ln_xi - expected) <= 1e-12 * abs(expected)
        assert abs(est.spec_value - expected_spec) <= 1e-12

    def test_zero_theta_builds_nothing(self, twomode, monkeypatch):
        def refuse(*args):
            raise AssertionError("evaluated at theta = 0")
        monkeypatch.setattr(horizon, "_kernel_blocks", refuse)
        monkeypatch.setattr(horizon, "_ln_xi_consuming", refuse)
        est = q.ln_xi(twomode, 0.0, horizon=10.0, n_grid=400)
        assert (est.ln_xi, est.spec_value) == (0.0, 0.0)
        assert ln_xi_from_matrices(np.eye(4), np.eye(4), 0.0) == (0.0, 0.0)
        with pytest.raises(NumericalError, match="horizon must be positive"):
            q.ln_xi(twomode, 0.0, horizon=-1.0, n_grid=400)
        with pytest.raises(NumericalError, match="L and P must be"):
            ln_xi_from_matrices(np.eye(3), np.eye(4), 0.0)

    def test_working_set_structured(self, twomode, theta0):
        # no full matrix: Y and its powers are first block rows and
        # generators, and packed Q - theta P, half a matrix, is written
        # from strips of them (0.79 matrices measured at order 1600)
        tracemalloc.start()
        try:
            est = q.ln_xi(twomode, 0.5 * theta0, horizon=10.0, n_grid=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order = twomode.n * est.n_grid
        assert order == 1600
        assert peak < 0.85 * order ** 2 * 8

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


def packed_gram_plus_identity(case):
    """I + 0.09 L'L packed from its first block row and generators, and
    assembled by gemm, for the lag blocks of ``case``: the two-mode
    model's at N = 81 (order 324) or one random antisymmetric block of
    order 37, which packs as [[M, 0], [0, 1]] of order 38; and the first
    block row and generators of 0.09 L'L."""
    if case == "structured-324":
        lam_blocks, _ = _kernel_blocks(q.two_mode_example(), 4.0, 81)
        big_l = horizon._assemble(
            horizon._lags(lam_blocks, antisymmetric=True))
    else:
        g = np.random.default_rng(37).normal(size=(37, 37))
        big_l = 0.5 * (g - g.T)
        lam_blocks = big_l[None]
    gram = horizon._gram(lam_blocks, 0.3)
    sym = horizon._Packed(len(big_l))
    sym.add(*gram)
    sym.add_diagonal(1.0)
    return sym, np.eye(len(big_l)) + 0.09 * big_l.T @ big_l, gram


class TestPacked:
    """Q - theta P in rectangular full packed storage: the strip writer,
    dpftrf, the split solves and the Lanczos margin on them."""

    @pytest.mark.parametrize("case", ["structured-324", "one-block-37"])
    def test_write_factor_and_solves_match_dense(self, case):
        sym, dense, gram = packed_gram_plus_identity(case)
        dim = len(dense)
        k = sym.buf.shape[0]
        if case == "structured-324":
            # 128-column strips: the second, [128, 256), straddles k = 162
            assert any(j0 < k < j0 + s.shape[1]
                       for j0, s in horizon._lower_strips(*gram))
        else:
            assert (dim, k) == (37, 19)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(unpack(sym) - dense)) <= 1e-14 * scale
        ln_det = sym.factor()
        chol = np.linalg.cholesky(dense)
        assert np.max(np.abs(unpack(sym, factor=True) - chol)) \
            <= 1e-13 * np.max(np.abs(chol))
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

    @pytest.mark.parametrize("classical", [False, True],
                             ids=["quantum", "classical"])
    def test_lambda_max_matches_eigvalsh(self, twomode, theta0, classical):
        # order 324, against the assembled F^-1 P F^-T (or P) of the
        # packed factor F of Q - theta P
        theta = 0.5 * theta0
        lam_blocks, p_blocks = _kernel_blocks(twomode, 4.0, 81)
        big_p = _BlockToeplitz(p_blocks)
        dense_p = horizon._assemble(big_p.lags)
        if classical:
            chol, expected = None, np.linalg.eigvalsh(dense_p)[-1]
        else:
            chol, _ = horizon._coth_and_ln_det_sinhc(
                lam_blocks, big_p.first_row(), theta)
            chol.factor()
            factor = unpack(chol, factor=True)
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

    @pytest.mark.parametrize("top", [1e-4, 0.04, 3.0, 1e3])
    def test_diagonal_matches_scalar_functions(self, top):
        # a diagonal Y commutes exactly with every step, halvings included;
        # as one block its displacement is empty, and Q comes back packed
        y = np.linspace(0.0, top, 64)
        sym, ln_det = horizon._coth_and_ln_det_sinhc(
            np.diag(np.sqrt(y))[None], np.zeros((64, 64)), 1.0)
        q_mat = unpack(sym)
        y = np.diag(horizon._gram(np.diag(np.sqrt(y))[None], 1.0)[0])
        x = np.sqrt(y)
        expected_q = 1.0 / np.asarray(tanhc(x))
        expected_ln_det = math.fsum(np.log(np.asarray(sinhc(x))))
        assert np.max(np.abs(np.diag(q_mat) - expected_q) / expected_q) \
            <= 1e-14
        assert np.count_nonzero(q_mat - np.diag(np.diag(q_mat))) == 0
        assert abs(ln_det - expected_ln_det) \
            <= 1e-14 * max(1.0, abs(expected_ln_det))


class TestConvergence:
    def test_single_horizon_passthrough(self, twomode, theta0):
        study = q.convergence_study(twomode, 0.3 * theta0, [5.0],
                                    n_per_unit_time=20)
        assert study.extrapolated_rate == study.estimates[0].per_time_rate

    @pytest.mark.parametrize("theta, horizons, error, message", [
        (math.nan, [2.0, 4.0], FeasibilityError, "must be finite"),
        (-0.01, [2.0, 4.0], FeasibilityError, "must be finite"),
        (0.04, [2.0, 0.1], NumericalError,
         "at least 8 time cells, got 4 at horizon 0.1"),
        (0.04, [], NumericalError, "empty horizon list"),
        (0.04, [2.0, 2.0], NumericalError, "repeated horizon"),
        (0.04, [2.0, math.nan], NumericalError,
         "horizon must be positive and finite, got nan")],
        ids=["theta-nan", "theta-negative", "too-few-cells", "empty",
             "repeated", "horizon-nan"])
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
