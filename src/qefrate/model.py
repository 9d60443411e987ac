"""Open quantum harmonic oscillator models in state-space form.

A model is specified either physically, by a commutation matrix, an energy
matrix and a field-coupling matrix, or directly by a stable drift/input
pair.  Either way the result is an immutable :class:`StateSpace` carrying
the drift A, input matrix B, the field commutation structure J, the cost
weight and its symmetric root, the invariant covariance, and the system
commutation matrix, all validated on construction.

Key structural facts used throughout:

* realizability identity  A Theta + Theta A' + B J B' = 0,
* invariant covariance    A Sigma + Sigma A' + B B' = 0,
* commutator kernel       Lambda(tau) = S exp(tau A) Theta S   (tau >= 0),
* covariance kernel       P(tau)      = S exp(tau A) Sigma S   (tau >= 0),

with the negative-lag branches fixed by Lambda(-tau) = -Lambda(tau)' and
P(-tau) = P(tau)'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from ._funcs import solve_ale, sqrtm_spd, symmetrize
from .errors import (DegeneracyError, DimensionError, NumericalError,
                     ParameterError, StabilityError)

#: 2x2 generator of the antisymmetric matrices, the single-mode
#: commutation block.
BJ2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Default relative tolerance for the realizability and covariance residuals.
DEFAULT_RESIDUAL_TOL = 1e-10

#: Drift eigenvalues must satisfy Re < -HURWITZ_MARGIN * ||A||.
HURWITZ_MARGIN = 1e-9


def build_j_matrix(m: int) -> np.ndarray:
    """Commutation structure matrix of an m-channel bosonic field.

    Returns the orthogonal antisymmetric matrix kron(BJ2, I_{m/2}), which
    squares to -I_m and pairs channel k with channel k + m/2.
    """
    if m < 2 or m % 2:
        raise DimensionError(f"channel count must be even and >= 2, got {m}")
    return np.kron(BJ2, np.eye(m // 2))


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class OqhoParams:
    """Physical parameters of an open quantum harmonic oscillator.

    Attributes
    ----------
    theta_ccr:
        Antisymmetric nonsingular n x n commutation matrix.
    energy:
        Symmetric n x n energy matrix defining the quadratic Hamiltonian.
    coupling:
        m x n system-field coupling matrix, m even.
    weight:
        Symmetric positive definite n x n cost weight.
    """

    theta_ccr: np.ndarray
    energy: np.ndarray
    coupling: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        th = _as_matrix(self.theta_ccr, "theta_ccr")
        r = _as_matrix(self.energy, "energy")
        m_mat = _as_matrix(self.coupling, "coupling")
        pi = _as_matrix(self.weight, "weight")
        n = th.shape[0]
        m = m_mat.shape[0]
        if th.shape != (n, n) or r.shape != (n, n) or pi.shape != (n, n):
            raise DimensionError("theta_ccr, energy and weight must be square "
                                 "of a common order")
        if m_mat.shape[1] != n:
            raise DimensionError("coupling must have one column per system "
                                 "variable")
        if n < 2 or n % 2:
            raise DimensionError(f"state dimension must be even and >= 2, got {n}")
        if m < 2 or m % 2:
            raise DimensionError(f"field dimension must be even and >= 2, got {m}")
        scale = np.linalg.norm(th)
        if np.linalg.norm(th + th.T) > 1e-12 * max(scale, 1.0):
            raise ParameterError("theta_ccr must be antisymmetric")
        if np.linalg.matrix_rank(th) < n:
            raise ParameterError("theta_ccr must be nonsingular")
        if np.linalg.norm(r - r.T) > 1e-12 * max(np.linalg.norm(r), 1.0):
            raise ParameterError("energy must be symmetric")
        object.__setattr__(self, "theta_ccr", th)
        object.__setattr__(self, "energy", r)
        object.__setattr__(self, "coupling", m_mat)
        object.__setattr__(self, "weight", pi)

    @property
    def n(self) -> int:
        return self.theta_ccr.shape[0]

    @property
    def m(self) -> int:
        return self.coupling.shape[0]


@dataclass(frozen=True)
class StateSpace:
    """Validated realization of a stable oscillator driven by vacuum fields.

    The matrices are read-only copies of the ones passed in, so results
    cached on the instance (its drift spectrum, spectral grid and theta0,
    see ``qefrate.spectral.grid_for``) cannot go stale;
    ``dataclasses.replace`` builds a new instance with no cache.
    """

    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    weight: np.ndarray
    s_half: np.ndarray
    sigma: np.ndarray
    theta_ccr: np.ndarray
    residual_tol: float = field(default=DEFAULT_RESIDUAL_TOL, repr=False)

    def __post_init__(self):
        for f in ("a", "b", "j", "weight", "s_half", "sigma", "theta_ccr"):
            arr = np.array(getattr(self, f))
            arr.flags.writeable = False
            object.__setattr__(self, f, arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @cached_property
    def drift_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the drift A, solved once per model (read-only)."""
        return _eigvals(self.a)

    def pr_residual(self) -> float:
        """Frobenius norm of A Theta + Theta A' + B J B'."""
        return float(np.linalg.norm(
            self.a @ self.theta_ccr + self.theta_ccr @ self.a.T
            + self.b @ self.j @ self.b.T))

    def sigma_residual(self) -> float:
        """Frobenius norm of A Sigma + Sigma A' + B B'."""
        return float(np.linalg.norm(
            self.a @ self.sigma + self.sigma @ self.a.T + self.b @ self.b.T))

    def hurwitz_margin(self) -> float:
        """-max Re eig(A); positive for a stable drift."""
        return float(-np.max(np.real(self.drift_eigenvalues)))

    def noise_det(self) -> float:
        """det(B J B'), whose vanishing degenerates the commutator kernel."""
        return float(np.linalg.det(self.b @ self.j @ self.b.T))

    def lqg_weight_trace(self) -> float:
        """Tr(Pi B B'), the coefficient of the high-frequency tail."""
        return float(np.trace(self.weight @ self.b @ self.b.T))


@dataclass(frozen=True)
class KernelSample:
    """Commutator and covariance kernels evaluated at one time lag."""

    tau: float
    lambda_k: np.ndarray
    p_k: np.ndarray


def _eigvals(a: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvals(a)
    eig.flags.writeable = False
    return eig


def _check_hurwitz(a: np.ndarray) -> np.ndarray:
    """Reject a drift that is not Hurwitz; returns its eigenvalues."""
    eig = _eigvals(a)
    margin = HURWITZ_MARGIN * max(np.linalg.norm(a, 2), 1e-300)
    if np.max(np.real(eig)) >= -margin:
        raise StabilityError("drift matrix is not Hurwitz")
    return eig


def _check_noise_rank(b: np.ndarray, j: np.ndarray) -> None:
    bjb = b @ j @ b.T
    sv = np.linalg.svd(bjb, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
        raise DegeneracyError("det(B J B') = 0: commutator kernel degenerate")


def _validated(a, b, j, pi, theta, residual_tol: float,
               pd_floor: float, eig: np.ndarray | None = None) -> StateSpace:
    if eig is None:
        eig = _check_hurwitz(a)
    _check_noise_rank(b, j)
    s = sqrtm_spd(pi, floor=pd_floor)
    sigma = symmetrize(solve_ale(a, b @ b.T))
    ss = StateSpace(a=a, b=b, j=j, weight=pi, s_half=s, sigma=sigma,
                    theta_ccr=theta, residual_tol=residual_tol)
    # the spectrum of the drift just checked: the cached_property's slot
    vars(ss)["drift_eigenvalues"] = eig
    scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(theta)
    if ss.pr_residual() > residual_tol * scale:
        raise ParameterError(
            f"realizability residual {ss.pr_residual():.3e} exceeds tolerance; "
            "drift, input and commutation matrices are inconsistent")
    sig_scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(sigma)
    if ss.sigma_residual() > residual_tol * sig_scale:
        raise NumericalError("covariance equation residual check failed")
    if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * max(np.linalg.norm(sigma), 1.0):
        raise ParameterError("invariant covariance is not positive semidefinite")
    return ss


def realize(params: OqhoParams, residual_tol: float = DEFAULT_RESIDUAL_TOL,
            pd_floor: float = 1e-12) -> StateSpace:
    """Build the state-space realization from physical parameters.

    The drift and input matrices are

        A = 2 Theta (R + M' J M),      B = 2 Theta M',

    which satisfy the realizability identity by construction.  The cost
    weight root and the invariant covariance are computed and all
    structural invariants verified.

    Raises
    ------
    StabilityError
        If A is not Hurwitz.
    DegeneracyError
        If det(B J B') = 0.
    ParameterError
        If the weight is not positive definite or residuals fail.
    """
    j = build_j_matrix(params.m)
    a = 2.0 * params.theta_ccr @ (params.energy
                                  + params.coupling.T @ j @ params.coupling)
    b = 2.0 * params.theta_ccr @ params.coupling.T
    return _validated(a, b, j, params.weight, params.theta_ccr,
                      residual_tol, pd_floor)


def from_state_space(a, b, weight, theta_ccr=None,
                     residual_tol: float = DEFAULT_RESIDUAL_TOL,
                     pd_floor: float = 1e-12) -> StateSpace:
    """Build a validated model from a stable (A, B, Pi) triple.

    When ``theta_ccr`` is omitted it is recovered as the unique solution of
    A Theta + Theta A' + B J B' = 0, which exists for Hurwitz A and is
    automatically antisymmetric.  When it is supplied, the same identity is
    enforced as a consistency check rather than silently re-derived.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    pi = _as_matrix(weight, "weight")
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or pi.shape != (n, n):
        raise DimensionError("inconsistent dimensions for (A, B, Pi)")
    if n < 2 or n % 2:
        raise DimensionError(f"state dimension must be even and >= 2, got {n}")
    m = b.shape[1]
    if m < 2 or m % 2:
        raise DimensionError(f"field dimension must be even and >= 2, got {m}")
    j = build_j_matrix(m)
    eig = _check_hurwitz(a)
    if theta_ccr is None:
        theta = solve_ale(a, b @ j @ b.T)
        theta = 0.5 * (theta - theta.T)
    else:
        theta = _as_matrix(theta_ccr, "theta_ccr")
    return _validated(a, b, j, pi, theta, residual_tol, pd_floor, eig)


def kernel_at(ss: StateSpace, tau: float) -> KernelSample:
    """Evaluate the commutator and covariance kernels at lag ``tau``.

    The negative-lag branch is produced by mirroring the positive-lag
    matrices, so the kernel symmetries hold exactly for paired lags.
    """
    s = ss.s_half
    e = expm(abs(tau) * ss.a)
    lam_pos = s @ e @ ss.theta_ccr @ s
    p_pos = s @ e @ ss.sigma @ s
    if tau >= 0:
        return KernelSample(tau=float(tau), lambda_k=lam_pos, p_k=p_pos)
    return KernelSample(tau=float(tau), lambda_k=-lam_pos.T, p_k=p_pos.T)
