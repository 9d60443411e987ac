"""Open quantum harmonic oscillator models in state-space form.

A model is specified either physically, by a commutation matrix, an energy
matrix and a field-coupling matrix, or directly by a stable drift/input
pair.  Either way the result is an immutable :class:`StateSpace` of the
drift A, input matrix B, cost weight Pi and system commutation matrix
Theta, validated on construction; the field commutation structure J, the
weight root S = sqrt(Pi) and the invariant covariance Sigma derive from them.

Key structural facts used throughout:

* realizability identity  A Theta + Theta A' + B J B' = 0,
* invariant covariance    A Sigma + Sigma A' + B B' = 0,
* commutator kernel       Lambda(tau) = S exp(tau A) Theta S   (tau >= 0),
* covariance kernel       P(tau)      = S exp(tau A) Sigma S   (tau >= 0),

with the negative-lag branches fixed by Lambda(-tau) = -Lambda(tau)' and
P(-tau) = P(tau)'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from ._funcs import sqrtm_spd, symmetrize
from .errors import (DegeneracyError, DimensionError, NumericalError,
                     ParameterError, StabilityError)

#: 2x2 generator of the antisymmetric matrices, the single-mode
#: commutation block.
BJ2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Relative tolerance of the realizability and covariance residuals.
RESIDUAL_TOL = 1e-10

#: Drift eigenvalues must satisfy Re < -HURWITZ_MARGIN * ||A||.
HURWITZ_MARGIN = 1e-9


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


@lru_cache(maxsize=None)
def build_j_matrix(m: int) -> np.ndarray:
    """Commutation structure matrix of an m-channel bosonic field.

    Returns the orthogonal antisymmetric matrix kron(BJ2, I_{m/2}), which
    squares to -I_m and pairs channel k with channel k + m/2: one shared
    read-only array per channel count.
    """
    if m < 2 or m % 2:
        raise DimensionError(f"channel count must be even and >= 2, got {m}")
    return _read_only(np.kron(BJ2, np.eye(m // 2)))


def _as_matrix(x, name: str) -> np.ndarray:
    """``x`` as a finite 2-d float array: the coercion of every input matrix."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} is not a numeric matrix") from exc
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} contains non-finite entries")
    return a


def _check_orders(n: int, m: int) -> None:
    """Require even state and field dimensions n, m >= 2."""
    for size, what in ((n, "state"), (m, "field")):
        if size < 2 or size % 2:
            raise DimensionError(f"{what} dimension must be even and >= 2, got {size}")


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
        _check_orders(n, m)
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
    """Stable oscillator driven by vacuum fields, fixed by its drift A,
    input B, cost weight Pi and commutation matrix Theta.

    Every instance validates itself, whether made by ``realize``,
    ``from_state_space``, a direct call or ``dataclasses.replace`` (which
    keeps the old Theta unless given ``theta_ccr=None``).  A Theta of None
    is recovered as the unique solution of A Theta + Theta A' + B J B' = 0,
    antisymmetric for Hurwitz A; a given one is checked against it, not
    re-derived.  J, S = sqrt(Pi) and Sigma are derived from the four fields
    and cached, like the drift spectrum, grid and theta0 (see
    ``qefrate.spectral.grid_for``); the arrays are read-only copies, so
    nothing cached can go stale.

    Raises
    ------
    DimensionError
        If the orders are inconsistent, odd or below 2.
    StabilityError
        If A is not Hurwitz.
    DegeneracyError
        If det(B J B') = 0.
    ParameterError
        If an entry is not finite, Pi is not positive definite, Sigma is
        not positive semidefinite or the realizability residual fails.
    NumericalError
        If the covariance residual fails.  Residuals are checked against
        ``RESIDUAL_TOL``.
    """

    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray
    theta_ccr: np.ndarray | None = None

    def __post_init__(self):
        a = _as_matrix(self.a, "a")
        b = _as_matrix(self.b, "b")
        pi = _as_matrix(self.weight, "weight")
        n = a.shape[0]
        if a.shape != (n, n) or b.shape[0] != n or pi.shape != (n, n):
            raise DimensionError("inconsistent dimensions for (A, B, Pi)")
        _check_orders(n, b.shape[1])
        theta = (None if self.theta_ccr is None
                 else _as_matrix(self.theta_ccr, "theta_ccr"))
        if theta is not None and theta.shape != (n, n):
            raise DimensionError("theta_ccr must be square of the order of A")
        for name, value in (("a", a), ("b", b), ("weight", pi)):
            object.__setattr__(self, name, _read_only(np.array(value)))
        margin = HURWITZ_MARGIN * max(np.linalg.norm(a, 2), 1e-300)
        if np.max(np.real(self.drift_eigenvalues)) >= -margin:
            raise StabilityError("drift matrix is not Hurwitz")
        bjb = b @ self.j @ b.T
        sv = np.linalg.svd(bjb, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
            raise DegeneracyError("det(B J B') = 0: commutator kernel degenerate")
        if theta is None:
            theta = solve_continuous_lyapunov(a, -bjb)
            theta = 0.5 * (theta - theta.T)
        object.__setattr__(self, "theta_ccr", _read_only(np.array(theta)))
        self.s_half  # rejects a weight that is not positive definite
        scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(theta)
        if self.pr_residual() > RESIDUAL_TOL * scale:
            raise ParameterError(
                f"realizability residual {self.pr_residual():.3e} exceeds tolerance; "
                "drift, input and commutation matrices are inconsistent")
        sigma = self.sigma
        sig_scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(sigma)
        if self.sigma_residual() > RESIDUAL_TOL * sig_scale:
            raise NumericalError("covariance equation residual check failed")
        if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * max(np.linalg.norm(sigma), 1.0):
            raise ParameterError("invariant covariance is not positive semidefinite")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @cached_property
    def j(self) -> np.ndarray:
        """Commutation structure matrix of the m-channel field."""
        return build_j_matrix(self.m)

    @cached_property
    def s_half(self) -> np.ndarray:
        """Symmetric root S of the cost weight (read-only)."""
        return _read_only(sqrtm_spd(self.weight))

    @cached_property
    def sigma(self) -> np.ndarray:
        """Invariant covariance, A Sigma + Sigma A' + B B' = 0, solved by
        Bartels-Stewart (read-only)."""
        return _read_only(symmetrize(
            solve_continuous_lyapunov(self.a, -(self.b @ self.b.T))))

    @cached_property
    def drift_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the drift A, solved once per model (read-only)."""
        return _read_only(np.linalg.eigvals(self.a))

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


def realize(params: OqhoParams) -> StateSpace:
    """Build the state-space realization from physical parameters.

    The drift and input matrices are

        A = 2 Theta (R + M' J M),      B = 2 Theta M',

    which satisfy the realizability identity by construction; the model
    is ``StateSpace(A, B, Pi, Theta)``, with its checks and exceptions.
    """
    j = build_j_matrix(params.m)
    a = 2.0 * params.theta_ccr @ (params.energy
                                  + params.coupling.T @ j @ params.coupling)
    b = 2.0 * params.theta_ccr @ params.coupling.T
    return StateSpace(a, b, params.weight, params.theta_ccr)


def from_state_space(a, b, weight, theta_ccr=None) -> StateSpace:
    """The validated model of a stable (A, B, Pi) triple, Theta recovered
    when omitted: ``StateSpace(a, b, weight, theta_ccr)``."""
    return StateSpace(a, b, weight, theta_ccr)
