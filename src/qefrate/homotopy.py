"""Growth-rate computation by marching a Riccati equation in the risk
parameter.

At every frequency the Hermitian matrix

    U_theta = Psi (Psi cos(theta Psi) - Phi sin(theta Psi))^{-1}
                  (Phi cos(theta Psi) + Psi sin(theta Psi))

satisfies the autonomous Riccati equation dU/dtheta = Psi^2 + U^2 with
initial value U_0 = Phi, and the derivative of the growth rate is the
frequency integral of its trace:

    Upsilon'(theta) = (1/4 pi) * integral Tr U_theta(lambda) d lambda.

Marching U by fixed-step RK4 from zero and accumulating Upsilon' by the
trapezoid rule reproduces Upsilon(theta) independently of the direct
log-determinant quadrature, which makes the two methods mutual checks.
The closed form above is the logarithmic-derivative (Hopf-Cole) transform
of the linear equation D'' = -D Psi^2 satisfied by the log-det matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._funcs import hermitize
from .errors import FeasibilityError
from .model import StateSpace
from .quadrature import QuadratureConfig
from .spectral import SpectralSample, sample_grid, trig_bundle

__all__ = ["HomotopyTrace", "u_direct", "u_ode_step", "rate_by_homotopy",
           "rate_by_homotopy_from_grid", "d_second_derivative_check"]

#: One RK4 step may not grow ||U|| by more than this factor; larger jumps
#: indicate approach to the finite-escape (feasibility) boundary.
GROWTH_GUARD = 10.0


@dataclass(frozen=True)
class HomotopyTrace:
    """Riccati march output: rate derivative and cumulative rate."""

    theta_grid: np.ndarray
    rate_derivative: np.ndarray
    rate: np.ndarray
    per_freq_u: np.ndarray | None = None


def u_direct(sample: SpectralSample, theta: float) -> np.ndarray:
    """Closed-form Hermitian Riccati solution at one (frequency, theta).

    Evaluates -D^{-1} dD/dtheta = D^{-1} (Phi cos(theta Psi)
    + Psi sin(theta Psi)) with D the log-det matrix; this is the
    commutator-weighted resolvent form with the Psi factor absorbed, so it
    stays regular when the commutator spectrum degenerates (U then reduces
    to (I - theta Phi)^{-1} Phi).  sin(theta Psi) = theta Psi sinc(theta Psi).
    """
    phi, psi = sample.phi, sample.psi
    tb = trig_bundle(sample, theta)
    sin_m = theta * psi @ tb.sinc_tp
    d_mat = tb.cos_tp - theta * phi @ tb.sinc_tp
    cond = np.linalg.cond(d_mat)
    if not np.isfinite(cond) or cond > 1e14:
        raise FeasibilityError(
            f"log-det matrix singular at frequency {sample.lam:g}",
            theta=theta, lam=sample.lam)
    u = np.linalg.solve(d_mat, phi @ tb.cos_tp + psi @ sin_m)
    return hermitize(u)


def _riccati_rhs(u: np.ndarray, psi_sq: np.ndarray) -> np.ndarray:
    return psi_sq + u @ u


def _rk4_stack(u: np.ndarray, psi_sq: np.ndarray, h: float) -> np.ndarray:
    k1 = _riccati_rhs(u, psi_sq)
    k2 = _riccati_rhs(u + 0.5 * h * k1, psi_sq)
    k3 = _riccati_rhs(u + 0.5 * h * k2, psi_sq)
    k4 = _riccati_rhs(u + h * k3, psi_sq)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _guarded_step(u: np.ndarray, norms: np.ndarray, psi_sq: np.ndarray,
                  floor: np.ndarray | float, h: float, theta_next: float,
                  lambdas: np.ndarray):
    """One re-Hermitized RK4 step of stacked Riccati states.

    Returns the new states and their norms.  Raises FeasibilityError,
    naming the first frequency, where a state grows by more than
    ``GROWTH_GUARD`` times its previous norm floored at ``floor``.
    """
    u = hermitize(_rk4_stack(u, psi_sq, h))
    new_norms = np.linalg.norm(u, axis=(1, 2))
    escaped = np.nonzero(new_norms > GROWTH_GUARD * np.maximum(norms, floor))[0]
    if escaped.size:
        i = int(escaped[0])
        raise FeasibilityError(
            f"Riccati state escaping at frequency {lambdas[i]:g}, "
            f"theta {theta_next:g}", theta=theta_next, lam=float(lambdas[i]))
    return u, new_norms


def u_ode_step(sample: SpectralSample, u: np.ndarray, theta: float,
               d_theta: float) -> np.ndarray:
    """One RK4 step of dU/dtheta = Psi^2 + U^2, re-Hermitized.

    The equation is autonomous; ``theta`` only labels the step for the
    finite-escape diagnostic.  The growth guard is floored at the natural
    scale of the sample so that marches started from small states are not
    mistaken for escapes.
    """
    floor = max(np.linalg.norm(sample.psi), 1e-300)
    u_new, _ = _guarded_step(u[None], np.array([np.linalg.norm(u)]),
                             (sample.psi @ sample.psi)[None], floor, d_theta,
                             theta + d_theta, np.array([sample.lam]))
    return u_new[0]


def rate_by_homotopy(ss: StateSpace, theta_max: float, d_theta: float,
                     cfg: QuadratureConfig, store_u: bool = False) -> HomotopyTrace:
    """March the Riccati equation in theta across the frequency mesh.

    The trace integral of U supplies Upsilon' at each step and the
    trapezoid rule accumulates Upsilon.  The high-frequency tail of the
    trace integral equals that of the spectral density at leading order,
    contributing Tr(Pi B B') / (2 pi cutoff) per unit theta.

    Raises FeasibilityError if any frequency shows finite-time escape
    before theta_max.
    """
    grid = sample_grid(ss, cfg.lambdas())
    return rate_by_homotopy_from_grid(grid, theta_max, d_theta, cfg,
                                      store_u=store_u)


def rate_by_homotopy_from_grid(grid, theta_max: float, d_theta: float,
                               cfg: QuadratureConfig,
                               store_u: bool = False) -> HomotopyTrace:
    """Riccati march over precomputed spectral stacks."""
    if theta_max < 0 or d_theta <= 0:
        raise FeasibilityError("theta_max must be >= 0 and d_theta > 0")

    def derivative(u_stack: np.ndarray) -> float:
        tr = np.real(np.trace(u_stack, axis1=1, axis2=2))
        return cfg.half_line(tr, grid.tail_coeff)[0] / (2.0 * math.pi)

    n_steps = max(1, int(math.ceil(theta_max / d_theta - 1e-12)))
    if theta_max == 0.0:
        u0 = grid.phi.astype(complex)
        return HomotopyTrace(theta_grid=np.array([0.0]),
                             rate_derivative=np.array([derivative(u0)]),
                             rate=np.array([0.0]),
                             per_freq_u=u0 if store_u else None)
    h = theta_max / n_steps
    psi_sq = grid.psi @ grid.psi
    u = grid.phi.astype(complex)
    thetas = np.linspace(0.0, theta_max, n_steps + 1)
    derivs = np.empty(n_steps + 1)
    derivs[0] = derivative(u)
    floor = np.maximum(np.linalg.norm(grid.psi, axis=(1, 2)), 1e-300)
    norms = np.linalg.norm(u, axis=(1, 2))
    for k in range(n_steps):
        u, norms = _guarded_step(u, norms, psi_sq, floor, h,
                                 float(thetas[k + 1]), grid.lambdas)
        derivs[k + 1] = derivative(u)
    rate = np.concatenate([[0.0], np.cumsum(0.5 * h * (derivs[1:] + derivs[:-1]))])
    return HomotopyTrace(theta_grid=thetas, rate_derivative=derivs, rate=rate,
                         per_freq_u=u if store_u else None)


def d_second_derivative_check(sample: SpectralSample, theta: float,
                              d_theta: float = 1e-4) -> float:
    """Residual of the linear structure D'' = -D Psi^2 at one sample.

    D'' is a central finite difference of the log-det matrix in theta, so
    the residual is dominated by the O(d_theta^2) differencing error.
    """
    def d_mat(th: float) -> np.ndarray:
        tb = trig_bundle(sample, th)
        return tb.cos_tp - th * sample.phi @ tb.sinc_tp

    d0 = d_mat(theta)
    d_plus = d_mat(theta + d_theta)
    d_minus = d_mat(theta - d_theta)
    second = (d_plus - 2.0 * d0 + d_minus) / d_theta ** 2
    psi_sq = sample.psi @ sample.psi
    return float(np.linalg.norm(second + d0 @ psi_sq))
