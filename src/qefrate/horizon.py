"""Finite-horizon oracle for the exponential cost by midpoint collocation.

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

Everything stays in real arithmetic, and L is never eigendecomposed.
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
definite exactly when theta * lam_max(P K) < 1, so its lower Cholesky
factor F is the feasibility test and gives the first log-det.  The
generalized eigenvalues mu of P v = mu Q v are those of P K, and mu' =
mu / (1 - theta mu) are those of F^-1 P F^-T, so the feasibility margin
is theta * lam_max(P K) = theta mu' / (1 + theta mu') for the largest
mu'.  Lanczos with full reorthogonalization finds it (ARPACK's stopping
test at tol = 0), each step two triangular solves with F and one product
with P.

Both q and ln sinhc(sqrt .) are analytic for |y| < pi^2, with Taylor
coefficients q_k = 4^k B_2k / (2k)! and s_k = q_k / (2k) (Bernoulli
numbers B_2k); both series alternate with decreasing terms for small y,
so the first term left out bounds the remainder.  The bound
b = ||Y||_inf >= lam_max(Y) decides how often Y is divided by 4 to bring
it below Y* = 0.05, where ln sinhc to degree 6 is within 2e-15 of each
term (Higham, Functions of Matrices, 2008, ch. 4-5).  Q = sum_k q_k Y^k
takes the least degree, 3, 5 or 7, whose remainder at b is below 2^-53:
3 up to b = 8.5e-4, 5 up to 0.019 and 7 above.  The log-det takes
sum_k s_k Tr Y^k to the least degree K >= Q's at which the first term
left out is certified below 2^-53 of the sum, and to 6 at most: the
terms alternate and decrease, and Tr Y^(K+1) <= b Tr Y^K, so
|s_(K+1)| b Tr Y^K bounds the remainder.  Each halving step undoes one
division by 4 with

    q(4y) = q(y) + y / q(y),   ln sinhc(2x) = 2 ln sinhc(x) + ln q(x^2),

that is one Cholesky factor of Q, its log-det, and Q^-1 Y from it.  The
steps amplify rounding that does not commute with Y, so b above 1e4 is
refused: on random L of orders 7 and 40, Q is within 1e-14 of q(Y)
(relative, 2-norm) up to b = 1.6e4, but 3e-12 off at 1.6e5 and 2e-4 at
1.6e7.  The models' own b is far smaller: at order 1600 and 0.5 theta0
it is 0.013 on the two-mode model and at most 0.37 on forty seeded
random models (1.2 at 0.9 theta0).

L and P are block Toeplitz: block (j, k) is the kernel at lag j - k, and
``ln_xi`` holds each as its N lag blocks.  Neither L nor P is ever
assembled, and Y = theta^2 L'L is not formed either: a product with Y is
-theta^2 L (L X), two FFT convolutions with L's lag stack, and a product
with P one with P's.  A product of such matrices has a low-rank
block-shift displacement.  With A[n:, n:] - A[:-n, :-n] = G_A H_A', the
product C = AB satisfies

    C[n:, n:] - C[:-n, :-n] = A[n:, :n] B[:n, n:] - A[:-n, -n:] B[-n:, :-n]
                              + G_A (H_A' B[n:, n:]) + (A[:-n, :-n] G_B) H_B',

so C is its first block row plus a displacement of rank r_A + r_B + 2n
(Kailath, Kung and Morf 1979; Kailath and Sayed 1995).  Y's first block
row comes from the lag blocks, and its generators, of rank 2n, from L's
first and last block rows.  Each power Y^k = Y Y^(k-1) takes the rule's
generators, of rank (4k - 2)n (8, 24, 40, ... on the two-mode model),
and the blocks of Y^(k-1) they read are rows of the Krylov block
Y^(k-1) [E_0, E_last, [0; H_Y]], E_0 and E_last the first and last n
columns of I.  The G of Y^k is a fixed head beside Y[:-n, :-n] G_(k-1),
all of which but Y[:-n, :-n] times G_(k-1)'s last two chunks is among
G_(k-1)'s chunks already, so one product of Y with 10n columns, the
Krylov block and those two chunks, takes a power on.  Tr Y^k is
N Tr C_00 plus the traces of the displacement's diagonal blocks, each
weighted by the block rows below it.  The H's nest, that of Y^(k-1)
being the trailing columns of that of Y^k, so Q - q_0 I has generators
of the top degree's rank, and P, whose displacement is zero, leaves
them unchanged in Q - theta P.  From a first block row and generators,
the strips of the lower triangle, C[j0:, j0:j1], come one block row at
a time, C[i+1, i+1:] = C[i, i:-1] plus the displacement's row, each
strip of the displacement formed and dropped in turn; they give the
bound ||Y||_inf and, in one walk, Q - theta P as the hierarchical matrix
below.

Q - theta P is held as a HODLR matrix (``_Hodlr``: Ambikasaran and
Darve, J. Sci. Comput. 57, 2013; Ambikasaran et al., IEEE TPAMI 38(2),
2016, take log-dets and solves of covariance matrices in this form).
Its indices are halved down to leaves of at most 200 (``_LEAF``), whose
diagonal blocks are dense, and every off-diagonal block is held as u v'
of low rank: 12 to 16 on the two-mode model and 4 to 14 on random models
of orders 2 and 4, at orders 400 to 6400 (at most 4n in every case
measured).  The walk sketches each off-diagonal block B as B Omega and
Psi' B, Gaussian of a fixed seed, 24 and 36 columns wide, and compresses
it by the stabilized generalized Nystrom formula (Nakatsukasa 2020),
truncated at 2^-53 times a bound on the norm of the matrix taken during
the walk (``_TRUNCATION``); a sketch that shows no singular value below
that truncation is redone twice as wide, and a block whose shorter side
is no longer than the sketch would be is copied whole and truncated by
QR and SVD instead.  q_0 is added on the leaves after the walk.  The
Cholesky factor F is recursive.  In the order left subtree, split, right
subtree, a leaf is factored densely, and an infeasible theta is a leaf
factor that fails; a split with left factor F11 and block u v' gives F
the block u w', w = F11^-1 v, and subtracts u (w'w) u' from its right
subtree, recompressing each off-diagonal block it touches.  A solve with
F or F' walks the same nodes, forward or back: a product with a leaf's
inverse factor, or two with a split's thin factors, at each.  No array
of d x d or d(d+1)/2 words is formed on the quantum route.  The working
set is the series' generators, one strip, the leaves (about 200 d words)
and the sketches: 0.28 of a matrix at order 3200 (23 MB, 82 MB a matrix)
and 0.55 at order 1600.  The halving steps keep Y, Q and the factor of Q
as hierarchical matrices and sketch the next Q from column strips of
Q + Q^-1 Y: 1.2 matrices at order 1600.

A sequential quasiseparable sweep would factor and solve in O(d r^2)
too, but it visits the N cells one at a time in Python, at 5 us or more
a cell (the classical recursion takes 5-17 us), and the margin takes 114
solves at order 3200.  The hierarchical form does each node's work in
one or two BLAS calls instead, 31 nodes at order 3200.

The classical route, -1/2 ln det(I - theta P), needs no matrix of full
order.  P is the covariance of the sampled Gauss-Markov state: with
A_d = exp(dt A), its block (j, k), j > k, is
S A_d^(j-k) Sigma S dt = c A_d^(j-k-1) b for c = S A_d and b = Sigma S dt.
With C = -theta c, I - theta P has diagonal blocks I - theta D_0, D_0 the
zero-lag block, and blocks C A_d^(j-k-1) b below them, so its block
L D L' pivots come from an n x n Riccati recursion, the innovations form
of the Kalman filter (Anderson and Moore, Optimal Filtering, 1979): from
Pi_0 = 0, for k = 0..N-1,

    E_k = theta D_0 + C Pi_k C',   D_k = I - E_k,   R_k = b - A_d Pi_k C',
    Pi_(k+1) = A_d Pi_k A_d' + R_k D_k^-1 R_k',

and ln det(I - theta P) = sum_k ln det D_k, in O(N n^3) work where a
factor of I - theta P itself takes O((nN)^3).  ln det D_k is the sum of log1p(-w) over
the eigenvalues w of E_k, which keeps the digits 1 - w drops: on the
two-mode model at order 1600 the value is within 2.1e-16 (relative) of
a dense eigvalsh/log1p reference at 0.1, 0.5 and 0.9 theta0, where logs
of the pivots' Cholesky diagonals were 1.2e-14 off at 0.1 theta0.  The
margin theta lam_max(P) is checked first, by Lanczos on products with P
by FFT, and a pivot with w >= 1 raises as a failed factor does.  The
working set is the margin's Lanczos vectors: 0.097 of a matrix at order
1600 and 0.088 at 3200.

numpy and scipy may each load their own BLAS, each with its own threads
that spin for a while after a threaded call.  The displacement products,
the sketches, the hierarchical factor and the margin's products and
solves therefore run on scipy's BLAS.  With the displacement products
on numpy's BLAS, quantum ``ln_xi`` on two cores took twice as long at
order 1600, and with the margin's products on it the margin ran 2.5
times slower right after the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided
# hessenberg stays bound: benchmarks/spans.py traces it
from scipy.linalg import (cholesky, eigh_tridiagonal, expm,  # noqa: F401
                          hessenberg, qr)
# matrix products in the hot loops run on scipy's BLAS (see the module
# docstring)
from scipy.linalg.blas import ddot, dgemm, dgemv, dtrmm, dtrmv
from scipy.linalg.lapack import dgesdd, dgesvd, dsyev, dtrtri

from ._funcs import check_theta
from .errors import FeasibilityError, NumericalError, SizeError
from .model import StateSpace

__all__ = ["HorizonEstimate", "ConvergenceStudy", "discretize_kernels",
           "ln_xi", "convergence_study"]

#: Matrices of order above this guard are refused unless the caller
#: raises the limit explicitly.
DEFAULT_MAX_DIM = 6000

#: Fewest time cells ``ln_xi`` accepts.
MIN_CELLS = 8


@dataclass(frozen=True)
class HorizonEstimate:
    """Finite-horizon cost evaluation at one (T, N) cell.  The per-time
    rate is computed from ``ln_xi`` and ``horizon``, not stored."""

    horizon: float
    n_grid: int
    ln_xi: float
    spec_value: float

    @property
    def per_time_rate(self) -> float:
        """(ln Xi)/T, the finite-horizon estimate of the growth rate."""
        return self.ln_xi / self.horizon


@dataclass(frozen=True)
class ConvergenceStudy:
    """Horizon sweep at fixed time step; its 1/T extrapolation is derived."""

    estimates: tuple[HorizonEstimate, ...]

    @cached_property
    def extrapolated_rate(self) -> float:
        """Intercept of the least-squares fit a + b/T to the per-time
        rates (see ``convergence_study``); one estimate is its own."""
        rates = np.array([e.per_time_rate for e in self.estimates])
        if len(rates) == 1:
            return float(rates[0])
        ts = np.array([e.horizon for e in self.estimates], dtype=float)
        design = np.column_stack([np.ones_like(ts), 1.0 / ts])
        coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
        return float(coef[0])


def _kernel_blocks(ss: StateSpace, horizon: float, n_grid: int,
                   classical: bool = False):
    """Stacks S exp(m dt A) X S * dt for m = 0..N-1, X in {Theta, Sigma},
    and the realization (A_d, S A_d, Sigma S dt) of the second: with
    A_d = exp(dt A), its block m >= 1 is (S A_d) A_d^(m-1) (Sigma S dt).
    With ``classical`` the first stack, which that route never reads, is
    None."""
    dt = horizon / n_grid
    step = expm(dt * ss.a)
    powers = np.empty((n_grid, ss.n, ss.n))
    powers[0] = np.eye(ss.n)
    for m in range(1, n_grid):
        powers[m] = powers[m - 1] @ step
    s = ss.s_half
    lam_blocks = None
    if not classical:
        lam_blocks = np.einsum("ij,mjk,kl->mil", s, powers @ ss.theta_ccr,
                               s) * dt
        # zero-lag blocks carry the kernel symmetry exactly
        lam_blocks[0] = 0.5 * (lam_blocks[0] - lam_blocks[0].T)
    p_blocks = np.einsum("ij,mjk,kl->mil", s, powers @ ss.sigma, s) * dt
    p_blocks[0] = 0.5 * (p_blocks[0] + p_blocks[0].T)
    return lam_blocks, p_blocks, (step, s @ step, ss.sigma @ s * dt)


def _lags(blocks: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """The lag stack [-+B_{N-1}', ..., -+B_1', B_0, B_1, ..., B_{N-1}]:
    the kernel blocks with the exact mirror on negative lags."""
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


def _fft_len(least: int) -> int:
    """The smallest 2^a 3^b 5^c >= ``least``.  A circular convolution of
    length >= 2N - 1 leaves the N block entries of a product with a block
    Toeplitz matrix unaliased, and pocketfft is fastest on such lengths:
    2N is 20-30 % faster than the next power of two at N = 400 and 800."""
    size = least
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


class _BlockToeplitz:
    """Block-Toeplitz matrix of order n*N held as its lag blocks B_0, ...,
    B_{N-1}: block (j, k) is B_{j-k}, with B_{-d} = B_d' (symmetric) or
    B_{-d} = -B_d' (``antisymmetric``).

    A product with a vector or a block of columns is one FFT convolution
    with the lag stack, whose spectrum is computed on the first product.
    """

    def __init__(self, blocks: np.ndarray, antisymmetric: bool = False):
        self.n_grid, self.n = blocks.shape[:2]
        self.shape = (self.n * self.n_grid,) * 2
        self.lags = _lags(blocks, antisymmetric)
        self._fft_len = _fft_len(2 * self.n_grid - 1)

    @cached_property
    def _lag_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.lags, self._fft_len, axis=0)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(np.reshape(x, (self.n_grid, self.n, -1)),
                               self._fft_len, axis=0)
        conv = np.fft.irfft(self._lag_spectrum @ spectrum, self._fft_len,
                            axis=0)
        # a copy: a view would keep the whole FFT-length buffer alive
        return conv[self.n_grid - 1:2 * self.n_grid - 1].reshape(
            np.shape(x)).copy()

    def first_row(self) -> np.ndarray:
        """The first block row [B_0, B_{-1}, ..., B_{1-N}], of shape
        (n, nN)."""
        return (self.lags[self.n_grid - 1::-1].transpose(1, 0, 2)
                .reshape(self.n, -1))


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
    lam_blocks, p_blocks, _ = _kernel_blocks(ss, horizon, n_grid)
    big_l = _assemble(_lags(lam_blocks, antisymmetric=True))
    big_p = _assemble(_lags(p_blocks, antisymmetric=False))
    return big_l, big_p


def _lambda_max(mat: _BlockToeplitz, chol: _Hodlr | None = None) -> float:
    """Largest eigenvalue of the symmetric ``mat``, or of F^-1 mat F^-T
    when ``chol`` holds the lower Cholesky factor F.

    Lanczos from the normalized ones vector, with full reorthogonalization
    and no restart, on a basis grown as needed.  It stops when the Ritz
    value's residual bound beta_m |s_m| is at most eps times the value,
    ARPACK's test at tol = 0, or when the Krylov space is the whole space.
    Each step is one product with ``mat`` and, with ``chol``, two
    solves with the hierarchical factor.
    """
    dim = mat.shape[0]
    basis = np.empty((min(dim, 32), dim))
    basis[0] = 1.0 / math.sqrt(dim)
    alpha, beta = [], []
    for m in range(dim):
        v = basis[m]
        w = (mat @ v if chol is None
             else chol.solve(mat @ chol.solve(v, trans=True)))
        alpha.append(float(v @ w))
        for _ in range(2):  # classical Gram-Schmidt, twice
            coef = dgemv(1.0, basis[:m + 1].T, w, trans=1)
            dgemv(-1.0, basis[:m + 1].T, coef, beta=1.0, y=w, overwrite_y=1)
        norm = float(np.linalg.norm(w))
        ritz, vec = eigh_tridiagonal(np.array(alpha), np.array(beta),
                                     select="i", select_range=(m, m))
        if norm * abs(vec[-1, 0]) <= _LANCZOS_TOL * abs(ritz[0]) \
                or m + 1 == dim:
            return float(ritz[0])
        beta.append(norm)
        if m + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:dim]
        basis[m + 1] = w / norm


def ln_xi(ss: StateSpace, theta: float, horizon: float, n_grid: int,
          max_dim: int = DEFAULT_MAX_DIM, classical: bool = False) -> HorizonEstimate:
    """Finite-horizon log of the exponential cost on a midpoint grid.

    With ``classical=True`` the commutator matrix is dropped (K becomes
    the identity and the cosine factor disappears), which gives the
    moment-generating value -1/2 ln det(I - theta P) of the Gaussian
    quadratic form; this serves as the commutative cross-check.  Neither
    L nor P is assembled, and no matrix of full order is allocated:
    Q - theta P is held as a hierarchical matrix of dense leaves and
    low-rank off-diagonal blocks, and on the classical route
    ln det(I - theta P) comes from an n x n Riccati recursion over the N
    cells in O(N n^3) work.  At theta = 0 the value is 0 and nothing is
    built.

    Raises FeasibilityError when theta * lam_max(P K) reaches one.
    """
    check_theta(theta)
    _check_grid(ss, horizon, n_grid, max_dim, MIN_CELLS)
    if theta == 0.0:
        value = spec_value = 0.0
    else:
        value, spec_value = _ln_xi_consuming(
            *_kernel_blocks(ss, horizon, n_grid, classical), theta, classical)
    return HorizonEstimate(horizon=float(horizon), n_grid=int(n_grid),
                           ln_xi=value, spec_value=spec_value)


#: Column strip width of the lower triangles generated and sketched.
_STRIP = 128

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

#: Order up to which a diagonal block of a hierarchical matrix is a dense
#: leaf; a larger one is halved.
_LEAF = 200

#: The off-diagonal blocks of a hierarchical matrix are truncated at this
#: fraction of a bound on the norm of the whole matrix.
_TRUNCATION = 2.0 ** -53

#: Range-sketch width of an off-diagonal block, at first; the co-range
#: sketch is half as wide again.
_SKETCH = 24

#: Seed of the sketches' Gaussian test matrices.
_SKETCH_SEED = 20130801

#: Lanczos stops when the Ritz residual bound is below this fraction of
#: the Ritz value: ARPACK's tolerance at tol = 0, LAPACK's dlamch('E').
_LANCZOS_TOL = 2.0 ** -53


class _Node:
    """A node of a HODLR tree over the indices [lo, hi): a leaf, whose
    diagonal block A[lo:hi, lo:hi] is ``dense``, or a split at ``mid``,
    whose lower off-diagonal block is A[mid:hi, lo:mid] = u v', with the
    in-order positions ``left`` and ``right`` of its two subtrees."""

    __slots__ = ("lo", "mid", "hi", "depth", "dense", "u", "v", "left",
                 "right")

    def __init__(self, lo: int, hi: int, depth: int):
        self.lo, self.hi, self.depth = lo, hi, depth
        self.mid = self.dense = self.u = self.v = None
        self.left = self.right = None


def _tree(lo: int, hi: int, depth: int = 0,
          nodes: list[_Node] | None = None) -> list[_Node]:
    """The nodes of the partition of [lo, hi) halved down to leaves of at
    most ``_LEAF`` indices, appended to ``nodes`` in order: left subtree,
    node, right subtree."""
    nodes = [] if nodes is None else nodes
    node = _Node(lo, hi, depth)
    if hi - lo <= _LEAF:
        nodes.append(node)
        return nodes
    node.mid = (lo + hi) // 2
    start = len(nodes)
    _tree(lo, node.mid, depth + 1, nodes)
    node.left = slice(start, len(nodes))
    nodes.append(node)
    _tree(node.mid, hi, depth + 1, nodes)
    node.right = slice(node.left.stop + 1, len(nodes))
    return nodes


def _svd(a: np.ndarray):
    """Thin SVD (u, s, vt) of a core by LAPACK's divide and conquer
    ``dgesdd``, or by the slower QR iteration of ``dgesvd`` where that
    fails: on a 576 x 384 sketch core ``dgesdd`` returned info 1 and NaN
    singular values."""
    u, s, vt, info = dgesdd(a, full_matrices=0)
    if info:
        u, s, vt, info = dgesvd(a, full_matrices=0)
    if info:
        raise NumericalError(f"SVD of a {a.shape} core did not converge")
    return u, s, vt


def _recompress(u: np.ndarray, v: np.ndarray, tol: float):
    """(u', v') with u' v' = u v' up to the singular values of u v' at or
    below ``tol``, which are dropped: QR of each factor and an SVD of the
    small product of their triangles."""
    qu, ru = qr(u, mode="economic", check_finite=False)
    qv, rv = qr(v, mode="economic", check_finite=False)
    a, s, bt = _svd(dgemm(1.0, ru, rv, trans_b=1))
    rank = int(np.count_nonzero(s > tol))
    return (dgemm(1.0, qu, a[:, :rank] * s[:rank]),
            dgemm(1.0, qv, bt[:rank], trans_b=1))


class _Hodlr:
    """Symmetric matrix A of order d in hierarchical off-diagonal low-rank
    (HODLR) form (Ambikasaran and Darve, J. Sci. Comput. 57, 2013): the
    indices are halved recursively down to leaves of at most ``_LEAF``,
    each leaf's diagonal block is dense, and each split's off-diagonal
    block is held as u v', truncated at ``tol``.

    ``factor`` overwrites A with its lower Cholesky factor F: dense leaf
    factors, and F[mid:hi, lo:mid] = u w' with w = F11^-1 v held in v.
    The nodes are kept in order (left subtree, node, right subtree),
    which is the order of a forward substitution with F.
    """

    def __init__(self, nodes: list[_Node], tol: float, width: int):
        self.nodes = nodes
        self.dim = nodes[-1].hi
        self.tol = tol
        self.width = width

    @classmethod
    def from_strips(cls, dim: int, strips, diagonal: float = 0.0,
                    width: int = _SKETCH) -> _Hodlr:
        """A = S + ``diagonal`` I from one walk of ``strips()``, which
        yields (j0, S[j0:, j0:j1]) left to right, entries above the
        diagonal unspecified.  Leaves are copied.  Each off-diagonal
        block B is sketched as B Omega and Psi' B, with Gaussian Omega and
        Psi of a fixed seed, and compressed by the stabilized generalized
        Nystrom formula B = (B Omega) (Psi' B Omega)^+ (Psi' B), the
        pseudo-inverse truncated at ``tol`` = ``_TRUNCATION`` times a norm
        bound of A taken during the walk (Nakatsukasa, arXiv:2009.11392,
        2020).  The sketches start ``width`` columns wide.  A sketch whose
        last singular value is above ``tol`` may have missed part of B:
        the walk is then redone with sketches twice as wide, and a block
        whose shorter side is no longer than the sketch would be is copied
        whole instead.  The width that sufficed is kept as ``width``.
        """
        while True:
            nodes = _tree(0, dim)
            tol, psi = _sketch(nodes, strips(), width, diagonal)
            if all(_compress(node, psi[node.mid:node.hi], tol)
                   for node in nodes if node.mid is not None):
                return cls(nodes, tol, width)
            width *= 2

    def copy(self) -> _Hodlr:
        nodes = []
        for node in self.nodes:
            twin = _Node(node.lo, node.hi, node.depth)
            twin.mid, twin.left, twin.right = node.mid, node.left, node.right
            if node.mid is None:
                twin.dense = node.dense.copy(order="F")
            else:
                twin.u, twin.v = node.u.copy(order="F"), node.v.copy(order="F")
            nodes.append(twin)
        return _Hodlr(nodes, self.tol, self.width)

    def columns(self, j0: int, j1: int) -> np.ndarray:
        """The column strip A[:, j0:j1], assembled."""
        out = np.empty((self.dim, j1 - j0), order="F")
        for node in self.nodes:
            lo, mid, hi = node.lo, node.mid, node.hi
            if mid is None:
                c0, c1 = max(lo, j0), min(hi, j1)
                if c0 < c1:
                    out[lo:hi, c0 - j0:c1 - j0] = \
                        node.dense[:, c0 - lo:c1 - lo]
                continue
            for rows, cols, a, b in (((mid, hi), (lo, mid), node.u, node.v),
                                     ((lo, mid), (mid, hi), node.v, node.u)):
                c0, c1 = max(cols[0], j0), min(cols[1], j1)
                if c0 < c1:
                    out[rows[0]:rows[1], c0 - j0:c1 - j0] = (
                        dgemm(1.0, a, b[c0 - cols[0]:c1 - cols[0]],
                              trans_b=1) if a.shape[1] else 0.0)
        return out

    def factor(self) -> float:
        """Factor A = F F' and return ln det A; LinAlgError if A is not
        positive definite.

        In node order, a leaf takes the dense Cholesky factor F_ii of its
        block and keeps its inverse, and a split, its left subtree
        factored as F11, sets w = F11^-1 v and subtracts the Schur term
        (u w')(u w')' = u (w'w) u' from its right subtree before that is
        factored: from each leaf's block, and from each split's
        off-diagonal block, recompressed at ``tol``.
        """
        nodes, logs = self.nodes, []
        for node in nodes:
            if node.mid is None:
                chol = cholesky(node.dense, lower=True, check_finite=False)
                logs.append(np.log(chol.diagonal()))
                node.dense, _ = dtrtri(chol, lower=1, overwrite_c=1)
                continue
            node.v = w = _sweep(nodes[node.left], node.v, node.lo, False)
            if not w.shape[1]:
                continue
            gram = dgemm(1.0, w, w, trans_a=1)
            for sub in nodes[node.right]:
                z = node.u[sub.lo - node.mid:sub.hi - node.mid]
                if sub.mid is None:
                    sub.dense = dgemm(-1.0, dgemm(1.0, z, gram), z, beta=1.0,
                                      c=sub.dense, trans_b=1, overwrite_c=1)
                else:
                    k = sub.mid - sub.lo
                    sub.u, sub.v = _recompress(
                        np.hstack([sub.u, dgemm(1.0, z[k:], gram)]),
                        np.hstack([sub.v, -z[:k]]), self.tol)
        return 2.0 * math.fsum(np.concatenate(logs))

    def solve(self, b: np.ndarray, trans: bool = False) -> np.ndarray:
        """F^-1 b, or F^-T b with ``trans``, for the factor F held here and
        a vector or matrix b of d rows."""
        return _sweep(self.nodes, b, 0, trans)

    def cho_solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b = F^-T F^-1 b, from the factor held here."""
        return self.solve(self.solve(b), trans=True)


def _sweep(nodes: list[_Node], b: np.ndarray, base: int,
           trans: bool) -> np.ndarray:
    """F^-1 b, or F^-T b, for the factor F held by the factored ``nodes``
    of one subtree, whose first index is ``base``, and a vector or matrix
    b of as many rows: forward substitution in node order, back
    substitution in reverse.  A leaf's step is a product with its
    factor's inverse, a split's two products with its thin factors; a
    vector takes the matrix-vector kernels, which cost half as much per
    call."""
    x = np.array(b, dtype=float, order="F")
    t = int(trans)
    if x.ndim == 1:
        def tri(a, y):
            return dtrmv(a, y, lower=1, trans=t)

        def thin(a, c, y):  # a (c' y)
            return dgemv(1.0, a, dgemv(1.0, c, y, trans=1))
    else:
        def tri(a, y):
            return dtrmm(1.0, a, y, lower=1, trans_a=t)

        def thin(a, c, y):
            return dgemm(1.0, a, dgemm(1.0, c, y, trans_a=1))
    for node in reversed(nodes) if trans else nodes:
        lo, hi = node.lo - base, node.hi - base
        if node.mid is None:
            x[lo:hi] = tri(node.dense, x[lo:hi])
        elif node.u.shape[1]:
            mid = node.mid - base
            if trans:  # x1 -= w (u' x2)
                x[lo:mid] -= thin(node.v, node.u, x[mid:hi])
            else:  # x2 -= u (w' x1)
                x[mid:hi] -= thin(node.u, node.v, x[lo:mid])
    return x


def _sketch(nodes: list[_Node], strips, width: int, diagonal: float):
    """Walk ``strips`` once into the ``nodes`` of a new tree: copy the
    leaves' lower triangles, mirror them and add ``diagonal``, and give
    each split the range sketch B Omega (in u) and co-range sketch Psi' B
    (in v) of its off-diagonal block B, ``width`` and 1.5 ``width``
    columns wide, or, where B's shorter side is no longer than ``width``,
    a copy of B (in u, v None).  Return the truncation, ``_TRUNCATION``
    times the norm bound max_leaf ||A_ii||_inf + sum over depths of
    max ||B||_F, and Psi."""
    dim = nodes[-1].hi
    wide = width + width // 2
    rng = np.random.default_rng(_SKETCH_SEED)
    # scaled so that x' Omega and Psi' x keep the norm of x on average
    omega = rng.standard_normal((dim, width))
    omega *= 1.0 / math.sqrt(width)
    psi = rng.standard_normal((dim, wide))
    psi *= 1.0 / math.sqrt(wide)
    for node in nodes:
        if node.mid is None:
            node.dense = np.empty((node.hi - node.lo,) * 2, order="F")
        elif min(node.hi - node.mid, node.mid - node.lo) <= width:
            node.u = np.empty((node.hi - node.mid, node.mid - node.lo),
                              order="F")
            node.v = None
        else:
            node.u = np.zeros((node.hi - node.mid, width), order="F")
            node.v = np.empty((wide, node.mid - node.lo), order="F")
    squares = [0.0] * len(nodes)
    for j0, strip in strips:
        j1 = j0 + strip.shape[1]
        for i, node in enumerate(nodes):
            lo, hi = node.lo, node.hi
            c1 = min(hi if node.mid is None else node.mid, j1)
            c0 = max(lo, j0)
            if c0 >= c1:
                continue
            if node.mid is None:
                node.dense[c0 - lo:, c0 - lo:c1 - lo] = \
                    strip[c0 - j0:hi - j0, c0 - j0:c1 - j0]
                continue
            mid = node.mid
            block = strip[mid - j0:hi - j0, c0 - j0:c1 - j0]
            if node.v is None:
                node.u[:, c0 - lo:c1 - lo] = block
                block = node.u[:, c0 - lo:c1 - lo]
            else:
                block = np.array(block, order="F")
                dgemm(1.0, block, omega[c0:c1].T, beta=1.0, c=node.u,
                      trans_b=1, overwrite_c=1)
                node.v[:, c0 - lo:c1 - lo] = dgemm(1.0, psi[mid:hi].T, block)
            squares[i] += float(ddot(block.ravel("F"), block.ravel("F")))
    leaf_norm, block_norms = 0.0, {}
    for node, square in zip(nodes, squares):
        if node.mid is None:
            dense = node.dense
            np.copyto(dense, dense.T,
                      where=~np.tri(len(dense), dtype=bool))
            dense[np.diag_indices_from(dense)] += diagonal
            leaf_norm = max(leaf_norm, float(np.abs(dense).sum(axis=1).max()))
        else:
            block_norms[node.depth] = max(block_norms.get(node.depth, 0.0),
                                          math.sqrt(square))
    return _TRUNCATION * (leaf_norm + sum(block_norms.values())), psi


def _compress(node: _Node, psi: np.ndarray, tol: float) -> bool:
    """Replace the sketches B Omega and Psi' B of a split's block B by
    factors u v' of B (``_Hodlr.from_strips``), given the rows ``psi`` of
    Psi; False if the sketch was too narrow.  A copied B is truncated by
    ``_recompress`` of B I'."""
    if node.v is None:
        node.u, node.v = _recompress(node.u, np.eye(node.u.shape[1]), tol)
        return True
    sketch, co_sketch = node.u, node.v
    a, s, bt = _svd(dgemm(1.0, psi, sketch, trans_a=1))
    if s[-1] > tol:
        return False
    rank = int(np.count_nonzero(s > tol))
    node.u = dgemm(1.0, sketch, bt[:rank] / s[:rank, None], trans_b=1)
    node.v = dgemm(1.0, co_sketch, a[:, :rank], trans_a=1)
    return True


def _lower_strips(first: np.ndarray, g: np.ndarray, h: np.ndarray):
    """Yield (j0, C[j0:, j0:j1]), the column strips of the lower triangle
    of the symmetric C with first block row ``first`` and block-shift
    displacement C[n:, n:] - C[:-n, :-n] = g h'.

    Each strip is the transpose of the row strip C[j0:j1, j0:] of the
    upper triangle, built one block row at a time: C[kn:kn+n, kn:] is
    C[(k-1)n:kn, (k-1)n:-n] plus (g h')[(k-1)n:kn, (k-1)n:], and g h' is
    formed one strip at a time.  Entries above C's diagonal are left
    unspecified, and all strips share one buffer, so each is valid until
    the next is asked for.
    """
    n, dim = first.shape
    width = max(1, _STRIP // n) * n
    rows = np.empty((width, dim))
    row = first
    for j0 in range(0, dim, width):
        j1 = min(j0 + width, dim)
        lo = max(j0 - n, 0)
        # (g h')[lo:j1-n, lo:], as the transpose of a product of the
        # transposed, Fortran-ordered generators: no copies
        disp = dgemm(1.0, h[lo:].T, g[lo:j1 - n].T, trans_a=1).T \
            if g.size else None
        strip = rows[:j1 - j0, :dim - j0]
        for j in range(j0, j1, n):
            t = j - j0
            if j == 0:
                strip[:n] = row
                continue
            out = strip[t:t + n, t:]
            if disp is None:
                np.copyto(out, row[:, :-n])
            else:
                np.add(row[:, :-n], disp[j - n - lo:j - lo, j - n - lo:],
                       out=out)
            row = out
        # the next strip starts from this one's last block row alone
        row, disp = row.copy(), None
        yield j0, strip.T


def _inf_norm(first: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """||C||_inf of the symmetric C of ``_lower_strips``, from its lower
    strips: an entry below the diagonal adds to its row and its column."""
    sums = np.zeros(first.shape[1])
    for j0, strip in _lower_strips(first, g, h):
        w = strip.shape[1]
        part = np.abs(strip)
        part[:w] = np.tril(part[:w])
        sums[j0:] += part.sum(axis=1)
        sums[j0:j0 + w] += part.sum(axis=0) - part.diagonal()
    return float(sums.max())


def _gram(big_l: _BlockToeplitz, theta: float):
    """The first block row of Y = theta^2 L'L, for the antisymmetric
    block-Toeplitz L = ``big_l`` of the commutator blocks B_m, and the
    generators (g, h) of its displacement Y[n:, n:] - Y[:-n, :-n] = g h'.

    Block k of Y's first block row is theta^2 sum_m B_m' L[m, k], and
    block column k of L is a contiguous window of the lag stack.  With
    U = L[:n, n:]' and V = L[-n:, :-n]', from L's first and last block
    rows, the displacement is theta^2 (U U' - V V').
    """
    n_grid, n = big_l.n_grid, big_l.n
    dim = n * n_grid
    lam_blocks = big_l.lags[n_grid - 1:]
    stack = big_l.lags.reshape(-1, n)
    s0, s1 = stack.strides
    columns = as_strided(stack[(n_grid - 1) * n:], shape=(n_grid, dim, n),
                         strides=(-n * s0, s0, s1), writeable=False)
    first = np.matmul(lam_blocks.reshape(dim, n).T, columns)
    first = first.transpose(1, 0, 2).reshape(n, dim)
    first *= theta * theta
    u = -lam_blocks[1:].reshape(-1, n)
    v = np.swapaxes(lam_blocks[:0:-1], 1, 2).reshape(-1, n)
    g = (theta * theta) * np.concatenate([u, -v], axis=1)
    h = np.concatenate([u, v], axis=1)
    return first, g, h


def _powers(times_y, first: np.ndarray, g: np.ndarray, h: np.ndarray,
            top: int):
    """Yield the powers Y^k, k = 1..top, of the symmetric Y, each as its
    first block column Y^k E_0 and the generators (g, h) of its
    displacement, with Y of first block row ``first`` and generators
    (g_1, h_1) applied only through ``times_y``.  With X = Y^(k-1) [E_0,
    E_last, [0; h_1]], the Krylov block, Y' = Y[:-n, :-n] and
    head = [Y[n:, :n], -Y[:-n, -n:], g_1]:
        g_k = [head, Y' g_(k-1)] = [head, Y' head, ..., Y'^(k-2) head,
                                    Y'^(k-1) g_1],
        h_k = [X[n:, :n], X[:-n, n:2n], X[n:, 2n:], h_(k-1)],
    both of rank (4k - 2)n.  Of Y' g_(k-1) only Y' times the last two
    chunks of g_(k-1) is new, so each power is one product of Y with X
    and those chunks: 4n, 6n, then 10n columns.  The g's and h's are the
    leading and trailing columns of two buffers of the top rank, written
    once; each g is valid until the next power is asked for, whose new
    chunks overwrite its last one.
    """
    n, dim = first.shape
    rank = g.shape[1]
    start = np.zeros((dim, 2 * n + h.shape[1]))
    start[:n, :n] = start[-n:, n:2 * n] = np.eye(n)
    start[n:, 2 * n:] = h
    x = times_y(start)
    width = x.shape[1]
    gs, hs = np.empty((2, dim - n, (top - 1) * width + rank))
    np.concatenate([x[n:, :n], -x[:-n, n:2 * n], g], axis=1,
                   out=gs[:, :width])
    hs[:, -rank:] = h
    for k in range(1, top + 1):
        if k > 1:
            r = (k - 1) * width + rank
            np.concatenate([x[n:, :n], x[:-n, n:2 * n], x[n:, 2 * n:]],
                           axis=1, out=hs[:, -r:width - r])
            # Y [X, [c; 0]] for c the last two chunks of g_(k-1), all of
            # g_1 at k = 2: c's zero last block row makes the top rows of
            # the product Y' c
            last = g[:, -(width + rank):]
            block = np.zeros((dim, width + last.shape[1]))
            block[:, :width] = x
            block[:-n, width:] = last
            prod = times_y(block)
            x = prod[:, :width]
            gs[:, r - last.shape[1]:r] = prod[:-n, width:]
            g, h = gs[:, :r], hs[:, -r:]
        yield x[:, :n], g, h


def _trace(first: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Tr C from its first block row and displacement generators: block i
    of C's diagonal is C_00 + sum_(j<i) (g h')_jj, summed over N blocks."""
    n, dim = first.shape
    weights = np.repeat(np.arange(dim // n - 1, 0, -1.0), n)
    return float(dim // n * np.trace(first[:, :n])
                 + weights @ np.einsum("ij,ij->i", g, h))


def _series(gram, times_y, degree: int, bound: float):
    """Q - q_0 I = sum_(k=1..degree) q_k Y^k as its first block row and
    generators, and the traces Tr Y^k, k = 1..K, for Y = ``gram``'s first
    block row and generators, applied by ``times_y``, and b = ``bound`` >=
    lam_max(Y), at most ``_SERIES_BOUND``.

    K is the least degree >= ``degree`` at which the first term left out
    of sum_k s_k Tr Y^k is certified below 2^-53 of the sum, or 6.  The
    s_k alternate in sign and |s_(k+1) / s_k| < 1 / pi^2, so, with
    Tr Y^(K+1) <= b Tr Y^K for the positive semidefinite Y, the terms
    decrease and |s_(K+1)| b Tr Y^K bounds the remainder (Leibniz).

    The H's of ``_powers`` nest, that of Y^(k-1) being the trailing
    columns of that of Y^k, so Q - q_0 I has the top degree's h and the
    sum of the g's, each added into the trailing columns of one buffer of
    the top degree's rank.
    """
    first, g, h = gram
    n = len(first)
    traces = []
    for k, (col, g, h) in enumerate(_powers(times_y, first, g, h,
                                            max(len(_S), degree)), start=1):
        if k <= len(_S):
            traces.append(_trace(col.T, g, h))
        if k == 1:
            q_col = _Q[1] * col
            q_g = np.zeros((len(g), (4 * degree - 2) * n))
            q_g[:, -g.shape[1]:] = _Q[1] * g
        elif k <= degree:
            q_col += _Q[k] * col
            q_g[:, -g.shape[1]:] += _Q[k] * g
        if k == degree:
            q_h = h.copy()
        if degree <= k < len(_S):
            total = math.fsum(c * t for c, t in zip(_S, traces))
            if abs(_S[k]) * bound * abs(traces[-1]) <= 2.0 ** -53 * abs(total):
                break
    return q_col.T, q_g, q_h, traces


def _infeasible(theta: float) -> FeasibilityError:
    return FeasibilityError("I - theta P K lost positive definiteness",
                            theta=theta)


def _factor_feasible(sym: _Hodlr, theta: float) -> float:
    """ln det of ``sym``, whose Cholesky factor is written over it."""
    try:
        return sym.factor()
    except np.linalg.LinAlgError:
        raise _infeasible(theta) from None


def _riccati_ln_det(d0: np.ndarray, realization, theta: float,
                    n_grid: int) -> float:
    """ln det(I - theta P) for the symmetric block-Toeplitz P of N blocks
    with B_0 = ``d0`` and B_m = c A^(m-1) b, m >= 1, for the realization
    (A, c, b), by the block L D L' recursion of its pivots.

    With C = -theta c, I - theta P has diagonal blocks I - theta B_0 and
    blocks C A^(j-k-1) b below them, and its pivots are D_k = I - E_k,
    E_k = theta B_0 + C Pi_k C', Pi_0 = 0 and
    Pi_(k+1) = A Pi_k A' + R_k D_k^-1 R_k', R_k = b - A Pi_k C'.  The
    products with Pi_k come from one stacked [C; A] Pi_k [C; A]', and
    each E_k from its eigendecomposition V diag(w) V', which gives
    ln det D_k as the sum of log1p(-w) and D_k^-1 = V diag(1/(1-w)) V'.
    An eigenvalue w >= 1 is a pivot that is not positive definite.  Once
    Pi_(k+1) equals Pi_k bit for bit, every later step would repeat step
    k, so its eigenvalues fill the remaining rows.
    """
    step, c, b = realization
    n = len(step)
    stacked = np.concatenate([-theta * c, step])
    e0 = theta * d0
    pi = np.zeros((n, n))
    eigs = np.empty((n_grid, n))
    for k in range(n_grid):
        prod = stacked @ pi @ stacked.T
        w, v, _ = dsyev(e0 + prod[:n, :n], lower=1)
        if not w[-1] < 1.0:
            raise _infeasible(theta)
        eigs[k] = w
        rv = (b - prod[n:, :n]) @ v
        pi_next = prod[n:, n:] + (rv / (1.0 - w)) @ rv.T
        if np.array_equal(pi_next, pi):
            eigs[k + 1:] = w
            break
        pi = pi_next
    return math.fsum(np.log1p(-eigs).ravel())


def _ln_xi_consuming(lam_blocks: np.ndarray, p_blocks: np.ndarray,
                     realization, theta: float, classical: bool):
    """(ln_xi, spec_value) from the lag blocks of L and P, each read as a
    block-Toeplitz matrix of even order.  The blocks are left unchanged.

    On the quantum route Q - theta P is sketched once into a hierarchical
    matrix and factored there, and the feasibility margin runs on that
    factor and on products with P by FFT.  The classical route reads
    neither L's blocks nor a hierarchical matrix: its margin is
    theta lam_max(P), and
    ln det(I - theta P) comes from the recursion on P's ``realization``
    (A_d, c, b) of ``_kernel_blocks``, which the quantum route ignores.
    """
    big_p = _BlockToeplitz(p_blocks)
    if classical:
        spec_value = theta * _lambda_max(big_p)
        if spec_value >= 1.0:
            raise FeasibilityError(
                f"theta * lam_max(P K) = {spec_value:g} >= 1", theta=theta)
        ln_det = _riccati_ln_det(p_blocks[0], realization, theta,
                                 len(p_blocks))
        return -0.5 * ln_det, float(spec_value)
    sym, ln_det_sinhc = _coth_and_ln_det_sinhc(lam_blocks, big_p.first_row(),
                                               theta)
    ln_det = _factor_feasible(sym, theta)
    mu = _lambda_max(big_p, sym)
    return (-0.5 * (ln_det + ln_det_sinhc),
            float(theta * mu / (1.0 + theta * mu)))


def _coth_and_ln_det_sinhc(lam_blocks: np.ndarray, p_first: np.ndarray,
                           theta: float):
    """Q - theta P as a hierarchical matrix, with Q = q(Y), and
    ln det sinhc(sqrt Y), for Y = theta^2 L'L and L, P the block-Toeplitz
    matrices of the lag blocks ``lam_blocks`` and of the first block row
    ``p_first``.  Y is held as its first block row and generators
    (``_gram``) and applied as -theta^2 L (L x) by FFT.

    Y is divided by 4^s until the certified bound ||Y||_inf on its
    spectrum is at most ``_SERIES_BOUND``, where the series run, and Q is
    sketched from the strips of their first block row and generators.
    The s halving steps then undo the scaling on the hierarchical Y, each
    sketching the next Q from column strips of Q + Q^-1 Y, and theta P is
    subtracted on the last; without them it is subtracted from Q's first
    block row.
    """
    big_l = _BlockToeplitz(lam_blocks, antisymmetric=True)
    first, g, h = _gram(big_l, theta)
    n, dim = first.shape
    bound = _inf_norm(first, g, h)
    if not bound <= _MAX_BOUND:
        raise NumericalError(
            f"||theta^2 L'L||_inf = {bound:g} exceeds {_MAX_BOUND:g}, beyond "
            "which the halving steps lose accuracy")
    halvings = 0
    while bound > _SERIES_BOUND:
        bound *= 0.25
        halvings += 1
    scale = 0.25 ** halvings
    if halvings:
        first *= scale
        g = g * scale
    degree = 3 + 2 * sum(bound > limit for limit in _DEGREE_BOUNDS)

    def times_y(x):
        # 4n columns at a time: the FFT products' temporaries, about eight
        # times the columns they transform, then fit in the heap that the
        # sketching walk's strips take next; 10n at once raised the peak
        # resident memory of ln_xi at orders 1600 and 3200 in turn by 2 MB
        out = np.empty_like(x)
        for j in range(0, x.shape[1], 4 * n):
            out[:, j:j + 4 * n] = big_l @ (big_l @ x[:, j:j + 4 * n])
        out *= -scale * theta * theta
        return out

    q_first, q_g, q_h, traces = _series((first, g, h), times_y, degree,
                                        bound)
    ln_det_sinhc = math.fsum(c * t for c, t in zip(_S, traces))
    if not halvings:
        q_first -= theta * p_first
    # q_0 is added on the leaves after the walk: carried through the
    # strips' recurrence, it would add its rounding to the diagonal at
    # every block column
    sym = _Hodlr.from_strips(dim, lambda: _lower_strips(q_first, q_g, q_h),
                             _Q[0])
    if halvings:
        # Y, Q and the Q of each step have much the same ranks: each build
        # starts from the sketch width that sufficed for the one before
        y = _Hodlr.from_strips(dim, lambda: _lower_strips(first, g, h),
                               width=sym.width)
        no_gen = np.empty((dim - n, 0))
        for step in range(halvings):
            # q(4y) = q + y/q and ln sinhc(2x) = 2 ln sinhc(x) + ln q(x^2)
            factor = sym.copy()
            ln_det_sinhc = 2.0 * ln_det_sinhc + factor.factor()

            def strips(sym=sym, factor=factor, step=step):
                # Q^-1 Y is symmetric: its lower strips from the columns
                # of Y, 4^step times the Y held; theta P is subtracted on
                # the last step
                for j0, p_strip in _lower_strips(-theta * p_first, no_gen,
                                                 no_gen):
                    j1 = j0 + p_strip.shape[1]
                    strip = factor.cho_solve(y.columns(j0, j1))[j0:]
                    strip *= 4.0 ** step
                    strip += sym.columns(j0, j1)[j0:]
                    if step == halvings - 1:
                        strip += p_strip
                    yield j0, strip

            sym = _Hodlr.from_strips(dim, strips, width=sym.width)
    return sym, ln_det_sinhc


def convergence_study(ss: StateSpace, theta: float, horizons,
                      n_per_unit_time: int, max_dim: int = DEFAULT_MAX_DIM,
                      classical: bool = False) -> ConvergenceStudy:
    """Sweep horizons at a fixed time step and extrapolate in 1/T.

    The per-time rates are fitted with a + b/T by least squares; the
    intercept estimates the infinite-horizon growth rate, consistent with
    the boundary-layer origin of the finite-horizon correction.  The list
    is checked to be nonempty and free of repeats (a repeated horizon makes
    the fit singular), theta against its domain, and every horizon against
    ``max_dim``, the minimum cell count and the step, before any is
    evaluated: a horizon that is not a whole number of cells of width
    1/``n_per_unit_time`` (to 1e-9 relative) would run at another step.
    """
    horizons = [float(t) for t in horizons]
    if not horizons:
        raise NumericalError("empty horizon list")
    check_theta(theta)
    n_grids = []
    for t in horizons:
        cells = t * n_per_unit_time
        # round() refuses a non-finite horizon, which _check_grid reports
        n_grid = int(round(cells)) if math.isfinite(cells) else 0
        _check_grid(ss, t, n_grid, max_dim, MIN_CELLS)
        if abs(cells - n_grid) > 1e-9 * cells:
            below, above = (math.floor(cells) / n_per_unit_time,
                            math.ceil(cells) / n_per_unit_time)
            raise NumericalError(
                f"horizon {t:g} is {cells:g} cells of width "
                f"1/{n_per_unit_time}, not a whole number; the nearest "
                f"whole-cell horizons are {below:g} and {above:g}")
        n_grids.append(n_grid)
    if len(set(horizons)) < len(horizons):
        raise NumericalError(f"repeated horizon in {horizons}: the 1/T fit "
                             "needs distinct horizons")
    estimates = tuple(ln_xi(ss, theta, horizon=t, n_grid=n_grid,
                            max_dim=max_dim, classical=classical)
                      for t, n_grid in zip(horizons, n_grids))
    return ConvergenceStudy(estimates=estimates)
