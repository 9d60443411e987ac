"""Finite-horizon oracle for the exponential cost via dense discretization.

The commutator and covariance kernels generate integral operators on the
time interval [0, T].  Midpoint collocation with N cells turns them into
an antisymmetric matrix L and a symmetric matrix P of order n*N whose
blocks are the kernels at the node lags times the cell width; the kernel
mirror symmetries make the assembled structure exact.  The log of the
exponential cost is then

    ln Xi = -1/2 * ( Tr ln cos(theta L) + ln det(I - theta P K) ),
    K = tanc(theta L),

and (ln Xi)/T approaches the growth rate as the horizon grows, which makes
this an oracle for the frequency-domain methods that shares nothing with
them but the model matrices.

Everything stays in real arithmetic, and no eigendecomposition is made.
The eigenvalues of the antisymmetric L come in pairs +-i omega, and every
function the formula needs is even in omega, so each is a function of the
real symmetric positive semidefinite Y = theta^2 L'L = -(theta L)^2, whose
eigenvalues are y = (theta omega)^2:

    cos(theta L) = cosh(sqrt Y),   K = tanhc(sqrt Y),   Sc = sinhc(sqrt Y),
    Q = K^-1 = q(Y),   q(y) = sqrt(y) coth(sqrt y).

These commute, cosh = q * sinhc and K cosh = sinhc, so

    det(cos theta L) det(I - theta P K) = det(Q - theta P) det(Sc),
    ln Xi = -1/2 * ( ln det(Q - theta P) + Tr ln sinhc(sqrt Y) ).

Q - theta P = sqrt(Q) (I - theta sqrt(K) P sqrt(K)) sqrt(Q) is positive
definite exactly when theta * lam_max(P K) < 1, so its Cholesky factor R
is the feasibility test and gives the first log-det.  The generalized
eigenvalues mu of P v = mu Q v are those of P K, and mu' = mu / (1 -
theta mu) are those of R^-T P R^-1, so the feasibility margin is
theta * lam_max(P K) = theta mu' / (1 + theta mu') for the largest mu'.

Both q and ln sinhc(sqrt .) are analytic for |y| < pi^2, with Taylor
coefficients q_k = 4^k B_2k / (2k)! and s_k = q_k / (2k) (Bernoulli
numbers B_2k); both series alternate with decreasing terms for small y,
so the first term left out bounds the remainder.  The bound
b = ||Y||_inf >= lam_max(Y) decides how often Y is divided by 4 to bring
it below Y* = 0.05, where ln sinhc to degree 6 is within 2e-15 of each
term (Higham, Functions of Matrices, 2008, ch. 4-5).  The log-det takes
sum_k s_k Tr Y^k to degree 6, and Q = sum_k q_k Y^k the least degree, 3,
5 or 7, whose remainder at b is below 2^-53: 3 up to b = 8.5e-4, 5 up to
0.019 and 7 above.  Each halving step undoes one division by 4 with

    q(4y) = q(y) + y / q(y),   ln sinhc(2x) = 2 ln sinhc(x) + ln q(x^2),

that is one Cholesky factor of Q, its log-det, and Q^-1 Y from it.  The
steps amplify rounding that does not commute with Y, so b above 1e4 is
refused: on random L of orders 7 and 40, Q is within 1e-14 of q(Y)
(relative, 2-norm) up to b = 1.6e4, but 3e-12 off at 1.6e5 and 2e-4 at
1.6e7.  The models' own b is far smaller: at order 1600 and 0.5 theta0
it is 0.013 on the two-mode model and at most 0.37 on forty seeded
random models (1.2 at 0.9 theta0).

L and P are block Toeplitz: block (j, k) is the kernel at lag j - k.
Both entry points hand their lag blocks to one evaluator: ``ln_xi`` the
kernel blocks, and ``ln_xi_from_matrices`` the arbitrary L and P of order
d, each read as a block-Toeplitz matrix with one d x d block.  L is never
built, and P only for the classical route's Cholesky factor and for the
dense eigensolve of the feasibility margin, up to order 1200.  A product
of such matrices has a low-rank block-shift displacement.  With
A[n:, n:] - A[:-n, :-n] = G_A H_A', the product C = AB satisfies

    C[n:, n:] - C[:-n, :-n] = A[n:, :n] B[:n, n:] - A[:-n, -n:] B[-n:, :-n]
                              + G_A (H_A' B[n:, n:]) + (A[:-n, :-n] G_B) H_B',

so C is its first block row plus a displacement of rank r_A + r_B + 2n,
O((r_A + r_B + n) (nN)^2) work instead of O((nN)^3) (Kailath, Kung and
Morf 1979; Kailath and Sayed 1995).  Y = theta^2 L'L comes from the lag
blocks, with generators of rank 2n from L's first and last block rows.
Each power Y^k = Y Y^(k-1) takes the rule's generators (ranks 8, 24, ...,
104 on the two-mode model), and the blocks of Y^(k-1) they read are rows
of the Krylov block Y^(k-1) [E_0, E_last, [0; H_Y]], E_0 and E_last the
first and last n columns of I: one product of the dense Y with a few
dozen columns takes a power on, and Y is its one full matrix.  Tr Y^k is
N Tr C_00 plus the traces of the displacement's diagonal blocks, each
weighted by the block rows below it.  The H's nest, that of Y^(k-1) being
the trailing columns of that of Y^k, so Q - q_0 I has generators of the
top degree's rank.  It is rebuilt once, one block row at a time,
C[i+1, i+1:] = C[i, i:-1] + the displacement's row, its upper triangle
mirrored, and q_0 is added on the diagonal after.  Products with P are
FFT convolutions with its lag stack, and Q - theta P reads P through a
strided view of it.  With one block the displacement is empty, so Y is
one gemm from the lag blocks, each power a full gemm written over the
last, and P its own lag stack, multiplied in real arithmetic.  The
halving steps are dense on both entry points.

Each matrix of order n*N is allocated once and overwritten in place
after that: Q is rebuilt over Y, and Q - theta P and its Cholesky factor
take the place of Q.  On ``ln_xi``'s quantum route one such matrix is
alive at a time, Y during the series, or three, Y, Q and the Cholesky
factor of Q, during the halving steps.  The generators and one strip of
displacement add 0.44 of a matrix at order 1600 and 0.22 at order 3200,
a peak of 100 MB there (82 MB a matrix).  The classical route holds P
alone.  With one block a power and Q's first block row are full
matrices beside Y, so ``ln_xi_from_matrices`` holds about three matrices
beside its inputs on the quantum route and one on the classical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided
# hessenberg and eigh_tridiagonal stay bound: benchmarks/spans.py traces them
from scipy.linalg import (cho_solve, cholesky, eigh_tridiagonal,  # noqa: F401
                          expm, hessenberg, solve_triangular)

from ._funcs import check_theta
from .errors import FeasibilityError, NumericalError, SizeError
from .model import StateSpace

__all__ = ["HorizonEstimate", "ConvergenceStudy", "discretize_kernels",
           "ln_xi", "ln_xi_from_matrices", "convergence_study"]

#: Matrices of order above this guard are refused unless the caller
#: raises the limit explicitly.
DEFAULT_MAX_DIM = 6000

#: Fewest time cells ``ln_xi`` accepts.
MIN_CELLS = 8


@dataclass(frozen=True)
class HorizonEstimate:
    """Finite-horizon cost evaluation at one (T, N) cell."""

    horizon: float
    n_grid: int
    ln_xi: float
    per_time_rate: float
    spec_value: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Horizon sweep at fixed time step with a 1/T extrapolation."""

    estimates: list[HorizonEstimate]
    extrapolated_rate: float


def _kernel_blocks(ss: StateSpace, horizon: float, n_grid: int):
    """Stacks S exp(m dt A) X S * dt for m = 0..N-1, X in {Theta, Sigma}."""
    dt = horizon / n_grid
    step = expm(dt * ss.a)
    powers = np.empty((n_grid, ss.n, ss.n))
    powers[0] = np.eye(ss.n)
    for m in range(1, n_grid):
        powers[m] = powers[m - 1] @ step
    s = ss.s_half
    lam_blocks = np.einsum("ij,mjk,kl->mil", s, powers @ ss.theta_ccr, s) * dt
    p_blocks = np.einsum("ij,mjk,kl->mil", s, powers @ ss.sigma, s) * dt
    # zero-lag blocks carry the kernel symmetry exactly
    lam_blocks[0] = 0.5 * (lam_blocks[0] - lam_blocks[0].T)
    p_blocks[0] = 0.5 * (p_blocks[0] + p_blocks[0].T)
    return lam_blocks, p_blocks


def _lags(blocks: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """The lag stack [-+B_{N-1}', ..., -+B_1', B_0, B_1, ..., B_{N-1}]:
    the kernel blocks with the exact mirror on negative lags, or the one
    block itself, uncopied."""
    if len(blocks) == 1:
        return blocks
    mirrored = np.swapaxes(blocks[:0:-1], 1, 2)
    return np.concatenate([-mirrored if antisymmetric else mirrored, blocks])


def _toeplitz_view(lags: np.ndarray) -> np.ndarray:
    """Read-only (N, n, N, n) view of the block-Toeplitz matrix whose
    block (j, k) is entry N-1+j-k of the lag stack."""
    n_grid, n = (lags.shape[0] + 1) // 2, lags.shape[1]
    s0, s1, s2 = lags.strides
    return as_strided(lags[n_grid - 1:], shape=(n_grid, n, n_grid, n),
                      strides=(s0, s1, -s0, s2), writeable=False)


def _assemble(lags: np.ndarray) -> np.ndarray:
    """Block-Toeplitz assembly: one copy of the strided view of the lag
    stack is the whole matrix."""
    view = _toeplitz_view(lags)
    n_grid, n = view.shape[:2]
    full = np.empty((n * n_grid, n * n_grid))
    full.reshape(view.shape)[...] = view
    return full


class _BlockToeplitz:
    """Symmetric block-Toeplitz matrix of order n*N held as its lag blocks
    B_0, ..., B_{N-1}: block (j, k) is B_{j-k}, with B_{-d} = B_d'.

    A product with a vector is one FFT convolution with the lag stack,
    whose spectrum is computed on the first product; ``shape``, ``dtype``
    and ``matvec`` make it an operator for ``eigsh``.
    """

    dtype = np.dtype(float)

    def __init__(self, blocks: np.ndarray):
        self.n_grid, self.n = blocks.shape[:2]
        self.shape = (self.n * self.n_grid,) * 2
        self.lags = _lags(blocks, antisymmetric=False)
        # a circular convolution of length >= 2N - 1 leaves the N block
        # entries of the product unaliased
        self._fft_len = 1 << (2 * self.n_grid - 2).bit_length()

    @cached_property
    def _lag_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.lags, self._fft_len, axis=0)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.n_grid == 1:
            # the one block is the matrix: a length-1 FFT would only make
            # a complex copy of it
            return self.lags[0] @ v
        spectrum = np.fft.rfft(np.reshape(v, (self.n_grid, self.n)),
                               self._fft_len, axis=0)
        conv = np.fft.irfft((self._lag_spectrum @ spectrum[..., None])[..., 0],
                            self._fft_len, axis=0)
        return conv[self.n_grid - 1:2 * self.n_grid - 1].reshape(-1)

    __matmul__ = matvec

    def assemble(self) -> np.ndarray:
        return _assemble(self.lags)

    def subtract_from(self, out: np.ndarray, scale: float) -> None:
        """out -= scale * self in place, read through a strided view of
        the scaled lag stack."""
        grid = out.reshape(self.n_grid, self.n, self.n_grid, self.n)
        np.subtract(grid, _toeplitz_view(scale * self.lags), out=grid)


def _check_grid(ss: StateSpace, horizon: float, n_grid: int, max_dim: int,
                min_cells: int) -> None:
    if not 0.0 < horizon < math.inf:
        raise NumericalError(f"horizon must be positive and finite, got {horizon:g}")
    if n_grid < min_cells:
        raise NumericalError(
            f"need at least {min_cells} time cell{'s' * (min_cells > 1)}, "
            f"got {n_grid} at horizon {horizon:g}")
    if ss.n * n_grid > max_dim:
        raise SizeError(f"discretization order {ss.n * n_grid} at horizon "
                        f"{horizon:g} exceeds the guard {max_dim}")


def discretize_kernels(ss: StateSpace, horizon: float, n_grid: int,
                       max_dim: int = DEFAULT_MAX_DIM):
    """Midpoint collocation matrices (L, P) of the two kernel operators.

    Node t_j = (j - 1/2) dt, cell width dt = T/N; block (j, k) is the
    kernel at lag t_j - t_k times dt.  L is exactly antisymmetric and P
    exactly symmetric.
    """
    _check_grid(ss, horizon, n_grid, max_dim, 1)
    lam_blocks, p_blocks = _kernel_blocks(ss, horizon, n_grid)
    big_l = _assemble(_lags(lam_blocks, antisymmetric=True))
    big_p = _assemble(_lags(p_blocks, antisymmetric=False))
    return big_l, big_p


def _lambda_max(mat: _BlockToeplitz, chol: np.ndarray | None = None) -> float:
    """Largest eigenvalue of the symmetric ``mat``, or of R^-T mat R^-1
    when the upper triangular Cholesky factor ``chol`` = R is given.

    Dense up to order 1200; above it ARPACK, on two triangular solves and
    a product with ``mat`` per step when ``chol`` is given, falling back
    to the dense route if it does not converge.  ``mat`` is assembled for
    the dense route only.
    """
    dim = mat.shape[0]
    if dim > 1200:
        # imported here: loading scipy.sparse costs every import of the package
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
        op = mat
        if chol is not None:
            def apply(v):
                inner = mat @ solve_triangular(chol, v, check_finite=False)
                return solve_triangular(chol, inner, trans="T",
                                        check_finite=False)
            op = LinearOperator((dim, dim), matvec=apply, dtype=float)
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            val = eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)
            return float(val[0])
        except ArpackNoConvergence:
            pass
    mat = mat.assemble()
    if chol is not None:
        half = solve_triangular(chol, mat, trans="T", check_finite=False)
        mat = solve_triangular(chol, half.T, trans="T", check_finite=False)
    return float(np.linalg.eigvalsh(mat)[-1])


def ln_xi(ss: StateSpace, theta: float, horizon: float, n_grid: int,
          max_dim: int = DEFAULT_MAX_DIM, classical: bool = False) -> HorizonEstimate:
    """Finite-horizon log of the exponential cost on a midpoint grid.

    With ``classical=True`` the commutator matrix is dropped (K becomes
    the identity and the cosine factor disappears), which gives the
    moment-generating value -1/2 ln det(I - theta P) of the Gaussian
    quadratic form; this serves as the commutative cross-check.  L is
    never assembled, and P only on the classical route and up to order
    1200.  At theta = 0 the value is 0 and nothing is built.

    Raises FeasibilityError when theta * lam_max(P K) reaches one.
    """
    check_theta(theta)
    _check_grid(ss, horizon, n_grid, max_dim, MIN_CELLS)
    if theta == 0.0:
        value = spec_value = 0.0
    else:
        # _lambda_max imports scipy.sparse.linalg on first use; loading it
        # here, before the large matrices exist, keeps its long-lived
        # objects from pinning freed matrix memory in the heap (50 MB more
        # peak memory at order 3200 when it loads between them)
        import scipy.sparse.linalg  # noqa: F401
        value, spec_value = _ln_xi_consuming(
            *_kernel_blocks(ss, horizon, n_grid), theta, classical)
    return HorizonEstimate(horizon=float(horizon), n_grid=int(n_grid),
                           ln_xi=value, per_time_rate=value / horizon,
                           spec_value=spec_value)


def ln_xi_from_matrices(big_l: np.ndarray, big_p: np.ndarray, theta: float,
                        classical: bool = False):
    """Evaluate (ln_xi, spec_value) from assembled kernel matrices.

    L and P must be finite square matrices of one order; L is read as
    antisymmetric and P as symmetric.  Each is taken as a block-Toeplitz
    matrix with one block and evaluated as ``ln_xi`` evaluates its lag
    blocks.  The inputs are left unchanged.
    """
    check_theta(theta)
    big_l = np.asarray(big_l, dtype=float)
    big_p = np.asarray(big_p, dtype=float)
    if not (big_p.ndim == 2 and big_p.shape[0] == big_p.shape[1] >= 1
            and big_l.shape == big_p.shape):
        raise NumericalError(
            f"L and P must be square matrices of one order, got shapes "
            f"{big_l.shape} and {big_p.shape}")
    if not (np.isfinite(big_l).all() and np.isfinite(big_p).all()):
        raise NumericalError("L and P must be finite")
    if theta == 0.0:
        return 0.0, 0.0
    return _ln_xi_consuming(big_l[None], big_p[None], theta, classical)


#: Row strip height of the products and updates written back in place,
#: of the mirrored triangles and of each product of generators.
_STRIP = 256

#: Bound on the spectrum of the scaled Y below which the series run.
_SERIES_BOUND = 0.05

#: Largest ||Y||_inf accepted: beyond it the halving steps lose accuracy.
_MAX_BOUND = 1e4

#: Taylor coefficients of q(y) = sqrt(y) coth(sqrt y), q_k = 4^k B_2k/(2k)!
_Q = (1.0, 1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
      4 / 18243225, -3617 / 162820783125)
#: ... and of ln sinhc(sqrt y), s_k = q_k/(2k), for k = 1..6
_S = (1 / 6, -1 / 180, 1 / 2835, -1 / 37800, 1 / 467775, -691 / 3831077250)
#: Largest spectral bound at which q to degree 2h + 3 leaves a remainder
#: |q_2h+4| b^(2h+4) below 2^-53, for h = 0, 1; degree 7 leaves 1e-18 at
#: ``_SERIES_BOUND``.
_DEGREE_BOUNDS = tuple((2.0 ** -53 / abs(_Q[2 * h + 4])) ** (1.0 / (2 * h + 4))
                       for h in (0, 1))


def _strips(dim: int):
    return [slice(i, i + _STRIP) for i in range(0, dim, _STRIP)]


def _mirror_upper(out: np.ndarray) -> None:
    """Copy the upper triangle of the square ``out`` over its lower one,
    one strip at a time."""
    for s in _strips(out.shape[0]):
        block = out[s, s]
        np.copyto(block, block.T, where=np.tri(*block.shape, -1, dtype=bool))
        out[s.stop:, s] = out[s, s.stop:].T


def _rebuild(out: np.ndarray, first: np.ndarray, g: np.ndarray,
             h: np.ndarray) -> None:
    """Write over ``out`` the symmetric matrix C with first block row
    ``first`` and block-shift displacement C[n:, n:] - C[:-n, :-n] = g h'.

    The upper triangle is built one block row at a time, C[i+1, i+1:] =
    C[i, i:-1] + (g h')[i, i:], taking g h' one strip of block rows at a
    time; the lower triangle is its mirror, so C is exactly symmetric.
    """
    n, dim = first.shape
    out[:n] = first
    rows = max(1, _STRIP // n)
    n_blocks = dim // n
    for i0 in range(0, n_blocks - 1, rows):
        i1 = min(i0 + rows, n_blocks - 1)
        disp = g[i0 * n:i1 * n] @ h[i0 * n:].T
        for i in range(i0, i1):
            r, t = i * n, (i - i0) * n
            np.add(out[r:r + n, r:dim - n], disp[t:t + n, t:],
                   out=out[r + n:r + 2 * n, r + n:])
        del disp  # before the next strip's is allocated
    _mirror_upper(out)


def _gram(lam_blocks: np.ndarray, theta: float):
    """Y = theta^2 L'L for the antisymmetric block-Toeplitz L of the
    commutator blocks B_m, with L never assembled, and the generators
    (g, h) of its displacement Y[n:, n:] - Y[:-n, :-n] = g h'.

    Block k of Y's first block row is theta^2 sum_m B_m' L[m, k], and
    block column k of L is a contiguous window of the lag stack.  With
    U = L[:n, n:]' and V = L[-n:, :-n]', from L's first and last block
    rows, the displacement is theta^2 (U U' - V V').
    """
    n_grid, n = lam_blocks.shape[:2]
    dim = n * n_grid
    stack = _lags(lam_blocks, antisymmetric=True).reshape(-1, n)
    s0, s1 = stack.strides
    columns = as_strided(stack[(n_grid - 1) * n:], shape=(n_grid, dim, n),
                         strides=(-n * s0, s0, s1), writeable=False)
    first = np.matmul(lam_blocks.reshape(dim, n).T, columns)
    first = (theta * theta) * first.transpose(1, 0, 2).reshape(n, dim)
    u = -lam_blocks[1:].reshape(-1, n)
    v = np.swapaxes(lam_blocks[:0:-1], 1, 2).reshape(-1, n)
    g = (theta * theta) * np.concatenate([u, -v], axis=1)
    h = np.concatenate([u, v], axis=1)
    y = np.empty((dim, dim))
    _rebuild(y, first, g, h)
    return y, (g, h)


def _powers(y: np.ndarray, gen: tuple[np.ndarray, np.ndarray], top: int):
    """Yield the powers Y^k, k = 1..top, of the symmetric Y, each as its
    first block column Y^k E_0, read before the next power overwrites it,
    and the generators (g, h) of its displacement, from the dense Y and
    its generators ``gen`` = (g_1, h_1).  With X = Y^(k-1) [E_0, E_last,
    [0; h_1]], the Krylov block, and one product of Y with [X, g_(k-1)]:
        g_k = [Y[n:, :n], -Y[:-n, -n:], g_1, Y[:-n, :-n] g_(k-1)],
        h_k = [X[n:, :n], X[:-n, n:2n], X[n:, 2n:], h_(k-1)].
    With one block E_last = E_0 = I and X is the power itself.
    """
    g, h = gen
    dim = y.shape[0]
    n = dim - g.shape[0]
    if n == dim:
        x, g, h = y.copy(), np.empty((0, 0)), np.empty((0, 0))
    else:
        x = np.concatenate([y[:, :n], y[:, -n:], y[:, n:] @ h], axis=1)
        head = np.concatenate([y[n:, :n], -y[:-n, -n:], g], axis=1)
    width = x.shape[1]
    for k in range(1, top + 1):
        if k > 1 and n == dim:
            _times(y, x)
        elif k > 1:
            h = np.concatenate([x[n:, :n], x[:-n, n:2 * n], x[n:, 2 * n:], h],
                               axis=1)
            rhs = np.concatenate([x, np.pad(g, ((0, n), (0, 0)))], axis=1)
            _times(y, rhs)
            x = rhs[:, :width]
            g = np.concatenate([head, rhs[:-n, width:]], axis=1)
        yield x[:, :n], g, h


def _times(y: np.ndarray, x: np.ndarray) -> None:
    """Write y @ x over x, one column strip at a time."""
    for s in _strips(x.shape[1]):
        x[:, s] = y @ x[:, s]


def _trace(first: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Tr C from its first block row and displacement generators: block i
    of C's diagonal is C_00 + sum_(j<i) (g h')_jj, summed over N blocks."""
    n, dim = first.shape
    weights = np.repeat(np.arange(dim // n - 1, 0, -1.0), n)
    return float(dim // n * np.trace(first[:, :n])
                 + weights @ np.einsum("ij,ij->i", g, h))


def _ln_det(chol: np.ndarray) -> float:
    """ln det of R'R from its triangular Cholesky factor R."""
    return 2.0 * math.fsum(np.log(np.diag(chol)))


def _factor_feasible(sym: np.ndarray, theta: float) -> np.ndarray:
    """Upper Cholesky factor of the symmetric ``sym``, written over it."""
    try:
        # the transpose of the symmetric sym, in Fortran order, is
        # factored in place without a copy
        return cholesky(sym.T, lower=False, overwrite_a=True,
                        check_finite=False)
    except np.linalg.LinAlgError:
        raise FeasibilityError(
            "I - theta P K lost positive definiteness", theta=theta) from None


def _ln_xi_consuming(lam_blocks: np.ndarray, p_blocks: np.ndarray,
                     theta: float, classical: bool):
    """(ln_xi, spec_value) from the lag blocks of L and P, each read as a
    block-Toeplitz matrix; the classical route ignores L's.  The blocks
    are left unchanged.

    Each matrix of full order is made here and then overwritten in place.
    On the classical route I - theta P and its Cholesky factor take the
    place of P, assembled after the feasibility margin.  Otherwise Q,
    Q - theta P and its Cholesky factor take the place of Y.
    """
    big_p = _BlockToeplitz(p_blocks)
    if classical:
        spec_value = theta * _lambda_max(big_p)
        if spec_value >= 1.0:
            raise FeasibilityError(
                f"theta * lam_max(P K) = {spec_value:g} >= 1", theta=theta)
        sym = big_p.assemble()
        sym *= -theta
        sym.flat[::sym.shape[0] + 1] += 1.0
        return -0.5 * _ln_det(_factor_feasible(sym, theta)), float(spec_value)
    sym, ln_det_sinhc = _coth_and_ln_det_sinhc(*_gram(lam_blocks, theta))
    big_p.subtract_from(sym, theta)
    chol = _factor_feasible(sym, theta)
    mu = _lambda_max(big_p, chol)
    return (-0.5 * (_ln_det(chol) + ln_det_sinhc),
            float(theta * mu / (1.0 + theta * mu)))


def _coth_and_ln_det_sinhc(y: np.ndarray, gen: tuple[np.ndarray, np.ndarray]):
    """Q = q(Y) and ln det sinhc(sqrt Y) for a symmetric positive
    semidefinite Y, whose buffer is used up; ``gen`` are the generators
    of Y's block-shift displacement.

    Y is divided by 4^s until the certified bound ||Y||_inf on its
    spectrum is at most ``_SERIES_BOUND``, where the series run on
    ``_powers``.  Q is rebuilt over Y, or beside it when s halving steps
    then undo the scaling.
    """
    dim = y.shape[0]
    bound = max(float(np.abs(y[s]).sum(axis=1).max()) for s in _strips(dim))
    if not bound <= _MAX_BOUND:
        raise NumericalError(
            f"||theta^2 L'L||_inf = {bound:g} exceeds {_MAX_BOUND:g}, beyond "
            "which the halving steps lose accuracy")
    halvings = 0
    while bound > _SERIES_BOUND:
        bound *= 0.25
        halvings += 1
    if halvings:
        y *= 0.25 ** halvings
        gen = (gen[0] * 0.25 ** halvings, gen[1])
    degree = 3 + 2 * sum(bound > limit for limit in _DEGREE_BOUNDS)
    traces = []
    for k, (col, g, h) in enumerate(_powers(y, gen, max(len(_S), degree)),
                                    start=1):
        if k <= len(_S):
            traces.append(_trace(col.T, g, h))
        if k == 1:
            q_col, q_g = _Q[1] * col, _Q[1] * g
        elif k <= degree:
            for s in _strips(dim):
                q_col[s] += _Q[k] * col[s]
            # h_(k-1) trails h_k, so the lower powers' g pad on the left
            pad = ((0, 0), (g.shape[1] - q_g.shape[1], 0))
            q_g = _Q[k] * g + np.pad(q_g, pad)
        if k == degree:
            q_h = h
    ln_det_sinhc = math.fsum(c * t for c, t in zip(_S, traces))
    q = np.empty_like(y) if halvings else y
    _rebuild(q, q_col.T, q_g, q_h)
    # added after the rebuild: carried through its row recurrence, q_0
    # would add its rounding to the diagonal at every block row
    q.flat[::dim + 1] += _Q[0]
    if halvings:
        factor = np.empty_like(q)
        for _ in range(halvings):
            # q(4y) = q + y/q and ln sinhc(2x) = 2 ln sinhc(x) + ln q(x^2)
            np.copyto(factor, q)
            chol = cholesky(factor.T, lower=False, overwrite_a=True,
                            check_finite=False)
            ln_det_sinhc = 2.0 * ln_det_sinhc + _ln_det(chol)
            for s in _strips(dim):
                # Q^-1 Y is symmetric: its row strip is (Q^-1 Y[s]')'
                q[s] += cho_solve((chol, False), y[s].T, check_finite=False).T
            y *= 4.0
    return q, ln_det_sinhc


def convergence_study(ss: StateSpace, theta: float, horizons,
                      n_per_unit_time: int, max_dim: int = DEFAULT_MAX_DIM,
                      classical: bool = False) -> ConvergenceStudy:
    """Sweep horizons at a fixed time step and extrapolate in 1/T.

    The per-time rates are fitted with a + b/T by least squares; the
    intercept estimates the infinite-horizon growth rate, consistent with
    the boundary-layer origin of the finite-horizon correction.  The list
    is checked to be nonempty and free of repeats (a repeated horizon makes
    the fit singular), theta against its domain, and every horizon against
    ``max_dim`` and the minimum cell count, before any is evaluated.
    """
    horizons = [float(t) for t in horizons]
    if not horizons:
        raise NumericalError("empty horizon list")
    check_theta(theta)
    # round() refuses a non-finite horizon, which _check_grid reports
    n_grids = [int(round(t * n_per_unit_time)) if math.isfinite(t) else 0
               for t in horizons]
    for t, n_grid in zip(horizons, n_grids):
        _check_grid(ss, t, n_grid, max_dim, MIN_CELLS)
    if len(set(horizons)) < len(horizons):
        raise NumericalError(f"repeated horizon in {horizons}: the 1/T fit "
                             "needs distinct horizons")
    estimates = [ln_xi(ss, theta, horizon=t, n_grid=n_grid, max_dim=max_dim,
                       classical=classical)
                 for t, n_grid in zip(horizons, n_grids)]
    rates = np.array([e.per_time_rate for e in estimates])
    ts = np.array([e.horizon for e in estimates], dtype=float)
    if len(estimates) == 1:
        extrapolated = float(rates[0])
    else:
        design = np.column_stack([np.ones_like(ts), 1.0 / ts])
        coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
        extrapolated = float(coef[0])
    return ConvergenceStudy(estimates=estimates, extrapolated_rate=extrapolated)
