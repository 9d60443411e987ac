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

Everything stays in real arithmetic.  The eigenvalues of the
antisymmetric L come in pairs +-i omega, and both functions the formula
needs are even in omega: cos(theta L) has eigenvalues cosh(theta omega)
and K has tanhc(theta omega).  They are therefore functions of the real
symmetric matrix L'L = -L^2, and its one eigendecomposition
L'L = V diag(omega^2) V' gives them all:

    Tr ln cos(theta L) = sum lncosh(theta omega),
    sqrt(K) = V R V',  R = diag(sqrt(tanhc(theta omega))).

The matrix R (V' P V) R equals V' (sqrt(K) P sqrt(K)) V, an orthogonal
similarity of a matrix with the spectrum of P K, so its largest
eigenvalue is the feasibility margin and its Cholesky factor gives
ln det(I - theta P K).  Both functions are smooth in omega^2, so forming
L'L perturbs the result only to first order in eps * ||L||^2.

Each matrix of order n*N is allocated once and overwritten in place
after that.  L and P are one strided copy each of their stacks of lag
blocks.  L is freed as soon as L'L is formed, and the classical route
frees it at once.  The eigensolver writes V over L'L; R V' P V R is
written over P, and I - theta R V' P V R and its Cholesky factor over
that.  At most four such matrices are alive at once, during the
eigensolve: P, L'L and the eigensolver's workspace of about two; after
it, P, V and P V.  At order 3200 (82 MB each) that is a peak of about
330 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
# hessenberg and eigh_tridiagonal stay bound: benchmarks/spans.py traces them
from scipy.linalg import cholesky, eigh, eigh_tridiagonal, expm, hessenberg  # noqa: F401

from ._funcs import check_theta, lncosh, tanhc
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


def _assemble(blocks: np.ndarray, n_grid: int, antisymmetric: bool) -> np.ndarray:
    """Block-Toeplitz assembly with the exact kernel mirror on negative lags.

    Block (j, k) is entry N-1+j-k of the lag stack
    [-+B_{N-1}', ..., -+B_1', B_0, B_1, ..., B_{N-1}], so one strided view
    of the stack, copied once, is the whole matrix.
    """
    n = blocks.shape[1]
    mirrored = np.swapaxes(blocks[:0:-1], 1, 2)
    lags = np.concatenate([-mirrored if antisymmetric else mirrored, blocks])
    s0, s1, s2 = lags.strides
    view = as_strided(lags[n_grid - 1:], shape=(n_grid, n, n_grid, n),
                      strides=(s0, s1, -s0, s2), writeable=False)
    full = np.empty((n * n_grid, n * n_grid))
    full.reshape(n_grid, n, n_grid, n)[...] = view
    return full


def discretize_kernels(ss: StateSpace, horizon: float, n_grid: int,
                       max_dim: int = DEFAULT_MAX_DIM):
    """Midpoint collocation matrices (L, P) of the two kernel operators.

    Node t_j = (j - 1/2) dt, cell width dt = T/N; block (j, k) is the
    kernel at lag t_j - t_k times dt.  L is exactly antisymmetric and P
    exactly symmetric.
    """
    if n_grid < 1:
        raise NumericalError(f"need at least one time cell, got {n_grid}")
    if not 0.0 < horizon < math.inf:
        raise NumericalError(f"horizon must be positive and finite, got {horizon:g}")
    if ss.n * n_grid > max_dim:
        raise SizeError(
            f"discretization order {ss.n * n_grid} exceeds the guard {max_dim}")
    lam_blocks, p_blocks = _kernel_blocks(ss, horizon, n_grid)
    big_l = _assemble(lam_blocks, n_grid, antisymmetric=True)
    big_p = _assemble(p_blocks, n_grid, antisymmetric=False)
    return big_l, big_p


def _lambda_max(mat: np.ndarray) -> float:
    dim = mat.shape[0]
    if dim <= 1200:
        return float(np.linalg.eigvalsh(mat)[-1])
    # imported here: loading scipy.sparse costs every import of the package
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    v0 = np.full(dim, 1.0 / math.sqrt(dim))
    try:
        val = eigsh(mat, k=1, which="LA", v0=v0, return_eigenvectors=False)
        return float(val[0])
    except ArpackNoConvergence:
        return float(np.linalg.eigvalsh(mat)[-1])


def ln_xi(ss: StateSpace, theta: float, horizon: float, n_grid: int,
          max_dim: int = DEFAULT_MAX_DIM, classical: bool = False) -> HorizonEstimate:
    """Finite-horizon log of the exponential cost on a midpoint grid.

    With ``classical=True`` the commutator matrix is dropped (K becomes
    the identity and the cosine factor disappears), which gives the
    moment-generating value -1/2 ln det(I - theta P) of the Gaussian
    quadratic form; this serves as the commutative cross-check.

    Raises FeasibilityError when theta * lam_max(P K) reaches one, with
    the measured value attached.
    """
    if n_grid < MIN_CELLS:
        raise NumericalError(f"need at least {MIN_CELLS} time cells, got {n_grid}")
    check_theta(theta)
    # _lambda_max imports scipy.sparse.linalg on first use; loading it here,
    # before the large matrices exist, keeps its long-lived objects from
    # pinning freed matrix memory in the heap (50 MB more peak memory at
    # order 3200 when it loads between them)
    import scipy.sparse.linalg  # noqa: F401
    big_l, big_p = discretize_kernels(ss, horizon, n_grid, max_dim=max_dim)
    gram = None if classical else big_l.T @ big_l
    del big_l
    value, spec_value = _ln_xi_consuming(gram, big_p, theta)
    return HorizonEstimate(horizon=float(horizon), n_grid=int(n_grid),
                           ln_xi=value, per_time_rate=value / horizon,
                           spec_value=spec_value)


def ln_xi_from_matrices(big_l: np.ndarray, big_p: np.ndarray, theta: float,
                        classical: bool = False):
    """Evaluate (ln_xi, spec_value) from assembled kernel matrices.

    The inputs are left unchanged.
    """
    check_theta(theta)
    gram = None if classical else big_l.T @ big_l
    return _ln_xi_consuming(gram, big_p.copy(), theta)


def _ln_xi_consuming(gram: np.ndarray | None, big_p: np.ndarray, theta: float):
    """(ln_xi, spec_value) from L'L (None for the classical route) and P.

    Both arrays are overwritten: the eigenvectors of L'L take the place of
    L'L, and R V' P V R, then I - theta R V' P V R and its Cholesky factor,
    take the place of P.  One further matrix, P V, is allocated, so at most
    three full-size matrices are alive besides the eigensolver's workspace.
    """
    if theta == 0.0:
        return 0.0, 0.0
    sym = big_p
    trace_ln_cos = 0.0
    if gram is not None:
        # gram is exactly symmetric, so its transpose is the same matrix in
        # Fortran order, which LAPACK overwrites without a copy
        omega_sq, v = eigh(gram.T, overwrite_a=True, check_finite=False,
                           driver="evd")
        x = theta * np.sqrt(np.maximum(omega_sq, 0.0))
        trace_ln_cos = math.fsum(np.asarray(lncosh(x)))
        v *= np.sqrt(np.asarray(tanhc(x)))
        pv = big_p @ v
        np.matmul(v.T, pv, out=sym)
        del pv  # before the ARPACK and Cholesky work allocates
        _symmetrize(sym)

    spec_value = theta * _lambda_max(sym)
    if spec_value >= 1.0:
        raise FeasibilityError(
            f"theta * lam_max(P K) = {spec_value:g} >= 1", theta=theta)
    sym *= -theta
    sym.flat[::sym.shape[0] + 1] += 1.0
    try:
        # the transpose of the symmetric I - theta P K, in Fortran order
        chol = cholesky(sym.T, lower=False, overwrite_a=True,
                        check_finite=False)
    except np.linalg.LinAlgError:
        raise FeasibilityError(
            "I - theta P K lost positive definiteness", theta=theta) from None
    ln_det = 2.0 * math.fsum(np.log(np.diag(chol)))
    return -0.5 * (trace_ln_cos + ln_det), float(spec_value)


def _symmetrize(mat: np.ndarray) -> None:
    """Replace ``mat`` by (mat + mat')/2 in place, one strip of 256 rows
    at a time, so no full-size temporary is made."""
    dim = mat.shape[0]
    for i in range(0, dim, 256):
        strip = slice(i, i + 256)
        avg = 0.5 * (mat[strip, i:] + mat[i:, strip].T)
        mat[strip, i:] = avg
        mat[i:, strip] = avg.T


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
    for t in horizons:
        if not 0.0 < t < math.inf:
            raise NumericalError(f"horizon must be positive and finite, got {t:g}")
        n_grid = int(round(t * n_per_unit_time))
        if n_grid < MIN_CELLS:
            raise NumericalError(f"need at least {MIN_CELLS} time cells, "
                                 f"got {n_grid} at horizon {t:g}")
        if ss.n * n_grid > max_dim:
            raise SizeError(f"discretization order {ss.n * n_grid} at horizon "
                            f"{t:g} exceeds the guard {max_dim}")
    if len(set(horizons)) < len(horizons):
        raise NumericalError(f"repeated horizon in {horizons}: the 1/T fit "
                             "needs distinct horizons")
    estimates = [
        ln_xi(ss, theta, horizon=t, n_grid=int(round(t * n_per_unit_time)),
              max_dim=max_dim, classical=classical)
        for t in horizons
    ]
    rates = np.array([e.per_time_rate for e in estimates])
    ts = np.array([e.horizon for e in estimates], dtype=float)
    if len(estimates) == 1:
        extrapolated = float(rates[0])
    else:
        design = np.column_stack([np.ones_like(ts), 1.0 / ts])
        coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
        extrapolated = float(coef[0])
    return ConvergenceStudy(estimates=estimates, extrapolated_rate=extrapolated)
