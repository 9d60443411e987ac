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
with P; on the two-mode model at order 3200 it takes 71, 57 and 33 steps
at 0.1, 0.5 and 0.9 theta0, where ARPACK took 91, 71 and 41.

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
d, each read as a block-Toeplitz matrix with one d x d block.  Neither L
nor P is ever assembled, and Y = theta^2 L'L is not formed either: a
product with Y is -theta^2 L (L X), two FFT convolutions with L's lag
stack, and a product with P one with P's.  A product of such matrices has
a low-rank block-shift displacement.  With A[n:, n:] - A[:-n, :-n] =
G_A H_A', the product C = AB satisfies

    C[n:, n:] - C[:-n, :-n] = A[n:, :n] B[:n, n:] - A[:-n, -n:] B[-n:, :-n]
                              + G_A (H_A' B[n:, n:]) + (A[:-n, :-n] G_B) H_B',

so C is its first block row plus a displacement of rank r_A + r_B + 2n
(Kailath, Kung and Morf 1979; Kailath and Sayed 1995).  Y's first block
row comes from the lag blocks, and its generators, of rank 2n, from L's
first and last block rows.  Each power Y^k = Y Y^(k-1) takes the rule's
generators (ranks 8, 24, ..., 104 on the two-mode model), and the blocks
of Y^(k-1) they read are rows of the Krylov block Y^(k-1) [E_0, E_last,
[0; H_Y]], E_0 and E_last the first and last n columns of I: one product
of Y with a few dozen columns takes a power on.  Tr Y^k is N Tr C_00 plus
the traces of the displacement's diagonal blocks, each weighted by the
block rows below it.  The H's nest, that of Y^(k-1) being the trailing
columns of that of Y^k, so Q - q_0 I has generators of the top degree's
rank, and P, whose displacement is zero, leaves them unchanged in
Q - theta P.  From a first block row and generators, the strips of the
lower triangle, C[j0:, j0:j1], come one block row at a time,
C[i+1, i+1:] = C[i, i:-1] plus the displacement's row, each strip of the
displacement formed and dropped in turn; they give the bound ||Y||_inf,
packed Q - theta P (q_0 is added on its diagonal after them) and, only
for halving steps, the dense Y.

Q - theta P, I - theta P on the classical route, is held only as its lower
triangle in rectangular full packed storage (``_Packed``), d(d+1)/2 words,
and factored there by ``dpftrf`` at full-storage speed (Gustavson,
Wasniewski, Dongarra and Langou 2010).  Its three blocks are contiguous
k x k arrays, k = d/2, so the margin's solves run on them uncopied; an odd
order, which only ``ln_xi_from_matrices`` sees, is held as [[M, 0],
[0, 1]].  On ``ln_xi`` the working set is that half matrix, one strip and
the generators: 0.64 of a matrix at order 3200 (53 MB, 82 MB a matrix)
and 0.79 at order 1600 on the quantum route, 0.55 and 0.62 on the
classical.  The halving steps hold the dense Y beside packed Q and its
packed factor, about two matrices.  With one block Y is dense, Y^2 the
one power formed, Tr Y^4..Y^6 are Frobenius products of Y^2 and of the
column strips of Y^3, and Q is written over Y^2 below the diagonal, so
``ln_xi_from_matrices`` holds about 2.4 matrices beside its inputs on the
quantum route and 0.6 on the classical.

numpy and scipy may each load their own BLAS, each with its own threads
that spin for a while after a threaded call.  The displacement products
and the margin's products and solves therefore run on scipy's BLAS, as
the packed factorization and solves do.  With the displacement products
on numpy's BLAS, quantum ``ln_xi`` on two cores took 0.37 s instead of
0.18 s at order 1600 and 1.04 s instead of 0.83 s at order 3200, and with
the margin's products on it the margin ran 2.5 times slower right after
the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided
# cholesky and hessenberg stay bound: benchmarks/spans.py traces them
from scipy.linalg import (cholesky, eigh_tridiagonal, expm,  # noqa: F401
                          hessenberg)
# matrix products in the hot loops run on scipy's BLAS (see the module
# docstring)
from scipy.linalg.blas import dgemm, dgemv, dtrsv
from scipy.linalg.lapack import dpftrf, dpftrs

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
    with the lag stack, whose spectrum is computed on the first product;
    with one block, the block is the matrix and multiplies vectors only.
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
        if self.n_grid == 1:
            # the one block is the matrix, and only the margin multiplies
            # by it, a vector at a time: a length-1 FFT would only make a
            # complex copy of it, and scipy's BLAS runs the solves between
            return dgemv(1.0, self.lags[0].T, x, trans=1)
        spectrum = np.fft.rfft(np.reshape(x, (self.n_grid, self.n, -1)),
                               self._fft_len, axis=0)
        conv = np.fft.irfft(self._lag_spectrum @ spectrum, self._fft_len,
                            axis=0)
        return conv[self.n_grid - 1:2 * self.n_grid - 1].reshape(np.shape(x))

    def first_row(self) -> np.ndarray:
        """The first block row [B_0, B_{-1}, ..., B_{1-N}], of shape
        (n, nN); with one block the block itself, uncopied."""
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
    lam_blocks, p_blocks = _kernel_blocks(ss, horizon, n_grid)
    big_l = _assemble(_lags(lam_blocks, antisymmetric=True))
    big_p = _assemble(_lags(p_blocks, antisymmetric=False))
    return big_l, big_p


def _lambda_max(mat: _BlockToeplitz, chol: _Packed | None = None) -> float:
    """Largest eigenvalue of the symmetric ``mat``, or of F^-1 mat F^-T
    when ``chol`` holds the lower Cholesky factor F.

    Lanczos from the normalized ones vector, with full reorthogonalization
    and no restart, on a basis grown as needed.  It stops when the Ritz
    value's residual bound beta_m |s_m| is at most eps times the value,
    ARPACK's test at tol = 0, or when the Krylov space is the whole space.
    Each step is one product with ``mat`` and, with ``chol``, two
    triangular solves on the blocks of the packed factor.
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
    L nor P is assembled, and, unless halving steps are needed, no matrix
    of full order is allocated: Q - theta P (or I - theta P) is held in
    packed storage, half a matrix.  At theta = 0 the value is 0 and
    nothing is built.

    Raises FeasibilityError when theta * lam_max(P K) reaches one.
    """
    check_theta(theta)
    _check_grid(ss, horizon, n_grid, max_dim, MIN_CELLS)
    if theta == 0.0:
        value = spec_value = 0.0
    else:
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
    big_l = np.ascontiguousarray(big_l, dtype=float)
    big_p = np.ascontiguousarray(big_p, dtype=float)
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


#: Column strip width of the lower triangles generated, packed and solved.
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

#: Lanczos stops when the Ritz residual bound is below this fraction of
#: the Ritz value: ARPACK's tolerance at tol = 0, LAPACK's dlamch('E').
_LANCZOS_TOL = 2.0 ** -53


def _strips(dim: int):
    return [slice(i, i + _STRIP) for i in range(0, dim, _STRIP)]


class _Packed:
    """Symmetric matrix A of order d held as its lower triangle in LAPACK's
    rectangular full packed format with transr='T', uplo='L' (Gustavson,
    Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010).

    For even d = 2k and A = [[A11, A21'], [A21, A22]], the buffer is one
    Fortran (k, d + 1) array, d(d + 1)/2 words, of three contiguous k x k
    blocks: columns [0, k) hold A22 in their lower triangle, columns
    [1, k + 1) hold A11' in their upper triangle and columns [k + 1, d + 1)
    hold A21'.  An odd order d is held as [[A, 0], [0, 1]] of order d + 1,
    which leaves the log-det unchanged; vectors keep their d entries.
    ``factor`` writes the lower Cholesky factor F of A over A in place.
    """

    def __init__(self, dim: int, buf: np.ndarray | None = None):
        self.dim = dim
        if buf is None:
            k = (dim + 1) // 2
            buf = np.zeros((k, 2 * k + 1), order="F")
            if dim % 2:
                buf[k - 1, k - 1] = 1.0
        self.buf = buf

    def copy(self) -> _Packed:
        return _Packed(self.dim, self.buf.copy(order="F"))

    def add_lower(self, j0: int, strip: np.ndarray, scale: float = 1.0):
        """Add ``scale`` times the strip A[j0:, j0:j1] on and below A's
        diagonal; entries of ``strip`` above it are not read."""
        k = self.buf.shape[0]
        j1 = j0 + strip.shape[1]
        if j0 < k < j1:
            self.add_lower(j0, strip[:, :k - j0], scale)
            self.add_lower(k, strip[k - j0:, k - j0:], scale)
            return
        if scale != 1.0:
            strip = scale * strip
        w = j1 - j0
        top, below = np.tril(strip[:w]), strip[w:]
        if j1 <= k:  # A11 and A21: A[i, j] is buf[j, i + 1]
            self.buf[j0:j1, j0 + 1:j1 + 1] += top.T
            self.buf[j0:j1, j1 + 1:self.dim + 1] += below.T
        else:  # A22: A[i, j] is buf[i - k, j - k]
            self.buf[j0 - k:j1 - k, j0 - k:j1 - k] += top
            self.buf[j1 - k:self.dim - k, j0 - k:j1 - k] += below

    def add(self, first: np.ndarray, g: np.ndarray, h: np.ndarray,
            scale: float = 1.0) -> None:
        """Add ``scale`` times the symmetric matrix with first block row
        ``first`` and displacement generators (g, h), strip by strip."""
        if scale != 1.0 and first.shape[0] < first.shape[1]:
            # scaled in the rows the strips are made from
            first, g, scale = scale * first, scale * g, 1.0
        for j0, strip in _lower_strips(first, g, h):
            self.add_lower(j0, strip, scale)

    def _diagonal_index(self):
        k = self.buf.shape[0]
        return np.arange(k), np.arange(self.dim - k)

    def add_diagonal(self, value: float) -> None:
        top, bottom = self._diagonal_index()
        self.buf[top, top + 1] += value
        self.buf[bottom, bottom] += value

    def factor(self) -> float:
        """Write the lower Cholesky factor F over A, by ``dpftrf`` in place,
        and return ln det A; LinAlgError if A is not positive definite."""
        k = self.buf.shape[0]
        _, info = dpftrf(2 * k, self.buf.reshape(-1, order="F"), transr="T",
                         uplo="L", overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError("not positive definite")
        top, bottom = self._diagonal_index()
        diag = np.concatenate([self.buf[top, top + 1],
                               self.buf[bottom, bottom]])
        return 2.0 * math.fsum(np.log(diag))

    def solve(self, b: np.ndarray, trans: bool = False) -> np.ndarray:
        """F^-1 b, or F^-T b with ``trans``, for a vector b of d entries and
        the factor F held here, split over the three blocks:
        y1 = F11^-1 b1, y2 = F22^-1 (b2 - F21 y1), or y2 = F22^-T b2,
        y1 = F11^-T (b1 - F21' y2).  Each block is a contiguous k x k
        array that ``dtrsv`` and ``dgemv`` take uncopied."""
        k = self.buf.shape[0]
        f22, f11t, f21t = (self.buf[:, :k], self.buf[:, 1:k + 1],
                           self.buf[:, k + 1:])
        x = np.zeros(2 * k)
        x[:self.dim] = b
        x1, x2 = x[:k], x[k:]
        if trans:
            dtrsv(f22, x2, lower=1, trans=1, overwrite_x=1)
            dgemv(-1.0, f21t, x2, beta=1.0, y=x1, overwrite_y=1)
            dtrsv(f11t, x1, lower=0, trans=0, overwrite_x=1)
        else:
            dtrsv(f11t, x1, lower=0, trans=1, overwrite_x=1)
            dgemv(-1.0, f21t, x1, beta=1.0, y=x2, trans=1, overwrite_y=1)
            dtrsv(f22, x2, lower=1, trans=0, overwrite_x=1)
        return x[:self.dim]

    def cho_solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for a matrix b of d rows, from the factor held here, by
        ``dpftrs``: the same split solves, on many columns at once."""
        k = self.buf.shape[0]
        rhs = np.zeros((2 * k, b.shape[1]), order="F")
        rhs[:self.dim] = b
        x, _ = dpftrs(2 * k, self.buf.reshape(-1, order="F"), rhs,
                      transr="T", uplo="L", overwrite_b=1)
        return x[:self.dim]


def _lower_strips(first: np.ndarray, g: np.ndarray, h: np.ndarray):
    """Yield (j0, C[j0:, j0:j1]), the column strips of the lower triangle
    of the symmetric C with first block row ``first`` and block-shift
    displacement C[n:, n:] - C[:-n, :-n] = g h'.

    Each strip is the transpose of the row strip C[j0:j1, j0:] of the
    upper triangle, built one block row at a time: C[kn:kn+n, kn:] is
    C[(k-1)n:kn, (k-1)n:-n] plus (g h')[(k-1)n:kn, (k-1)n:], and g h' is
    formed one strip at a time.  Entries above C's diagonal are left
    unspecified, and all strips share one buffer, so each is valid until
    the next is asked for.  With one block the strips are views of
    ``first``, which is C.
    """
    n, dim = first.shape
    if n == dim:
        for s in _strips(dim):
            yield s.start, first[s.start:, s]
        return
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


def _dense(first: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The symmetric C of ``_lower_strips`` as a full matrix, written in
    place over ``first`` with one block, where ``first`` is C."""
    n, dim = first.shape
    out = first if n == dim else np.empty((dim, dim))
    for j0, strip in _lower_strips(first, g, h):
        s = slice(j0, j0 + strip.shape[1])
        # the strip's transpose is the upper triangle's row strip; its top
        # square and the columns below it take the mirror
        out[s, j0:] = strip.T
        block = out[s, s]
        np.copyto(block, block.T, where=np.tri(*block.shape, -1, dtype=bool))
        out[s.stop:, s] = out[s, s.stop:].T
    return out


def _gram(lam_blocks: np.ndarray, theta: float):
    """The first block row of Y = theta^2 L'L, for the antisymmetric
    block-Toeplitz L of the commutator blocks B_m, and the generators
    (g, h) of its displacement Y[n:, n:] - Y[:-n, :-n] = g h'; with one
    block the first block row is Y and the generators are empty.

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
    E_last, [0; h_1]], the Krylov block, and one product of Y with
    [X, g_(k-1)]:
        g_k = [Y[n:, :n], -Y[:-n, -n:], g_1, Y[:-n, :-n] g_(k-1)],
        h_k = [X[n:, :n], X[:-n, n:2n], X[n:, 2n:], h_(k-1)].
    """
    n, dim = first.shape
    start = np.zeros((dim, 2 * n + h.shape[1]))
    start[:n, :n] = start[-n:, n:2 * n] = np.eye(n)
    start[n:, 2 * n:] = h
    x = times_y(start)
    head = np.concatenate([x[n:, :n], -x[:-n, n:2 * n], g], axis=1)
    width = x.shape[1]
    for k in range(1, top + 1):
        if k > 1:
            h = np.concatenate([x[n:, :n], x[:-n, n:2 * n], x[n:, 2 * n:], h],
                               axis=1)
            prod = times_y(np.concatenate([x, np.pad(g, ((0, n), (0, 0)))],
                                          axis=1))
            x = prod[:, :width]
            g = np.concatenate([head, prod[:-n, width:]], axis=1)
        yield x[:, :n], g, h


def _trace(first: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Tr C from its first block row and displacement generators: block i
    of C's diagonal is C_00 + sum_(j<i) (g h')_jj, summed over N blocks."""
    n, dim = first.shape
    weights = np.repeat(np.arange(dim // n - 1, 0, -1.0), n)
    return float(dim // n * np.trace(first[:, :n])
                 + weights @ np.einsum("ij,ij->i", g, h))


def _one_block_series(y: np.ndarray, degree: int):
    """Q - q_0 I = sum_(k=1..degree) q_k Y^k for the dense symmetric Y,
    written over Y^2 on and below the diagonal, and Tr Y^k, k = 1..6.

    Y^2 is the one power formed.  Each column strip of Y^3 = Y Y^2 gives
    its share of Tr Y^5 and Tr Y^6, and Q - q_0 I = q_1 Y + q_2 Y^2 +
    q_3 Y^3 + Y^2 Z, Z = sum_(k>=4) q_k Y^(k-2), takes the strip's rows on
    and below the diagonal from one product of Y^2 with Z's strip (and,
    at degree 7, two more with Y for Z's Y^4 and Y^5).  The columns of Y^2
    right of the strip are still whole, so its rows come from them.
    """
    y2 = y @ y
    traces = [np.trace(y), np.vdot(y, y), np.vdot(y, y2), np.vdot(y2, y2),
              0.0, 0.0]
    for s in _strips(len(y)):
        j0 = s.start
        y3 = y @ y2[:, s]
        traces[4] += np.vdot(y2[:, s], y3)
        traces[5] += np.vdot(y3, y3)
        lower = _Q[1] * y[j0:, s] + _Q[2] * y2[j0:, s] + _Q[3] * y3[j0:]
        if degree > 3:
            z = _Q[4] * y2[:, s] + _Q[5] * y3
            if degree == 7:
                y4 = y @ y3
                z += _Q[6] * y4 + _Q[7] * (y @ y4)
            lower += y2[:, j0:].T @ z
        y2[j0:, s] = lower
    return y2, [float(t) for t in traces]


def _series(gram, times_y, degree: int):
    """Q - q_0 I = sum_(k=1..degree) q_k Y^k as its first block row and
    generators, and the traces Tr Y^k, k = 1..6, for Y = ``gram``'s first
    block row and generators, applied by ``times_y``.

    The H's of ``_powers`` nest, that of Y^(k-1) being the trailing
    columns of that of Y^k, so Q - q_0 I has the top degree's h and the
    sum of the g's, the lower powers' padded on the left.  With one block
    the series are dense (``_one_block_series``).
    """
    first, g, h = gram
    if first.shape[0] == first.shape[1]:
        q_first, traces = _one_block_series(first, degree)
        return q_first, g, h, traces
    traces = []
    for k, (col, g, h) in enumerate(_powers(times_y, first, g, h,
                                            max(len(_S), degree)), start=1):
        if k <= len(_S):
            traces.append(_trace(col.T, g, h))
        if k == 1:
            q_col, q_g = _Q[1] * col, _Q[1] * g
        elif k <= degree:
            q_col += _Q[k] * col
            pad = ((0, 0), (g.shape[1] - q_g.shape[1], 0))
            q_g = _Q[k] * g + np.pad(q_g, pad)
        if k == degree:
            q_h = h
    return q_col.T, q_g, q_h, traces


def _factor_feasible(sym: _Packed, theta: float) -> float:
    """ln det of ``sym``, whose Cholesky factor is written over it."""
    try:
        return sym.factor()
    except np.linalg.LinAlgError:
        raise FeasibilityError(
            "I - theta P K lost positive definiteness", theta=theta) from None


def _ln_xi_consuming(lam_blocks: np.ndarray, p_blocks: np.ndarray,
                     theta: float, classical: bool):
    """(ln_xi, spec_value) from the lag blocks of L and P, each read as a
    block-Toeplitz matrix; the classical route ignores L's.  The blocks
    are left unchanged.

    Q - theta P, or I - theta P on the classical route, is written once
    into packed storage and factored there, and the feasibility margin
    runs on that factor and on products with P by FFT.
    """
    big_p = _BlockToeplitz(p_blocks)
    dim = big_p.shape[0]
    if classical:
        spec_value = theta * _lambda_max(big_p)
        if spec_value >= 1.0:
            raise FeasibilityError(
                f"theta * lam_max(P K) = {spec_value:g} >= 1", theta=theta)
        sym = _Packed(dim)
        no_gen = np.empty((dim - big_p.n, 0))
        sym.add(big_p.first_row(), no_gen, no_gen, -theta)
        sym.add_diagonal(1.0)
        return -0.5 * _factor_feasible(sym, theta), float(spec_value)
    sym, ln_det_sinhc = _coth_and_ln_det_sinhc(lam_blocks, big_p.first_row(),
                                               theta)
    ln_det = _factor_feasible(sym, theta)
    mu = _lambda_max(big_p, sym)
    return (-0.5 * (ln_det + ln_det_sinhc),
            float(theta * mu / (1.0 + theta * mu)))


def _coth_and_ln_det_sinhc(lam_blocks: np.ndarray, p_first: np.ndarray,
                           theta: float):
    """Q - theta P, packed, with Q = q(Y), and ln det sinhc(sqrt Y), for
    Y = theta^2 L'L and L, P the block-Toeplitz matrices of the lag blocks
    ``lam_blocks`` and of the first block row ``p_first``.  Y is held as
    its first block row and generators (``_gram``) and applied as
    -theta^2 L (L x) by FFT, or is dense with one block.

    Y is divided by 4^s until the certified bound ||Y||_inf on its
    spectrum is at most ``_SERIES_BOUND``, where the series run, and Q is
    packed from their first block row and generators.  The s halving
    steps then undo the scaling on the dense Y, and theta P is subtracted
    after them; without them it is subtracted from Q's first block row.
    """
    first, g, h = _gram(lam_blocks, theta)
    big_l = _BlockToeplitz(lam_blocks, antisymmetric=True)
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
    q_first, q_g, q_h, traces = _series(
        (first, g, h),
        lambda x: (-scale * theta * theta) * (big_l @ (big_l @ x)), degree)
    ln_det_sinhc = math.fsum(c * t for c, t in zip(_S, traces))
    if not halvings:
        del first  # with one block, Y
        for s in _strips(len(q_first)):
            q_first[s] -= theta * p_first[s]
    sym = _Packed(dim)
    sym.add(q_first, q_g, q_h)
    # added after the strips: carried through their recurrence, q_0 would
    # add its rounding to the diagonal at every block column
    sym.add_diagonal(_Q[0])
    if halvings:
        del q_first
        y = _dense(first, g, h)
        for _ in range(halvings):
            # q(4y) = q + y/q and ln sinhc(2x) = 2 ln sinhc(x) + ln q(x^2)
            factor = sym.copy()
            ln_det_sinhc = 2.0 * ln_det_sinhc + factor.factor()
            for s in _strips(dim):
                # Q^-1 Y is symmetric: its column strip from Y's row strip
                sym.add_lower(s.start, factor.cho_solve(y[s].T)[s.start:])
            y *= 4.0
        del y, factor
        no_gen = np.empty((dim - n, 0))
        sym.add(p_first, no_gen, no_gen, -theta)
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
