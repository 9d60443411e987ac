"""Growth-rate computation by marching a Riccati equation in the risk
parameter.

At every frequency the Hermitian matrix

    U_theta = Psi (Psi cos(theta Psi) - Phi sin(theta Psi))^{-1}
                  (Phi cos(theta Psi) + Psi sin(theta Psi))

satisfies the autonomous Riccati equation dU/dtheta = Psi^2 + U^2 with
initial value U_0 = Phi, and the derivative of the growth rate is the
frequency integral of its trace:

    Upsilon'(theta) = (1/4 pi) * integral Tr U_theta(lambda) d lambda.

Marching U by fixed-step RK4 from zero, integrating Tr U over frequency
on the Gauss-Kronrod rule of ``qefrate.quadrature`` and accumulating
Upsilon' by the trapezoid rule in theta reproduces Upsilon(theta)
independently of the direct log-determinant quadrature, which makes the
two methods mutual checks.
The closed form above is the logarithmic-derivative (Hopf-Cole) transform
of the linear equation D'' = -D Psi^2 satisfied by the log-det matrix.

The march runs in real arithmetic: U = X + iY with X real symmetric and Y
real antisymmetric, so U^2 = (XX - YY) + i (XY - (XY)') costs three real
stacked products, Tr U = Tr X and ||U||^2 = ||X||^2 + ||Y||^2.  Each
step advances the whole frequency stack at once, in place, in work
buffers allocated once per march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._funcs import hermitize
from .errors import FeasibilityError
from .model import StateSpace
from .quadrature import QuadratureConfig
from .spectral import SpectralSample, grid_for, trig_bundle

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


class _RiccatiStack:
    """Hermitian Riccati states over a frequency stack, held in real form.

    U = X + iY and Psi^2 = SX + i SY.  ``norms`` and ``trace`` hold ||U||
    and Tr X of the current states; ``work`` and ``vec_work`` are the RK4
    step's buffers, every one overwritten before it is read.
    """

    def __init__(self, u: np.ndarray, psi: np.ndarray, floor: np.ndarray):
        psi_sq = psi @ psi
        self.x = 0.5 * (u.real + np.swapaxes(u.real, 1, 2))
        self.y = 0.5 * (u.imag - np.swapaxes(u.imag, 1, 2))
        self.sx = np.ascontiguousarray(psi_sq.real)
        self.sy = np.ascontiguousarray(psi_sq.imag)
        self.floor = floor
        self.norms = np.sqrt(np.einsum("kij,kij->k", self.x, self.x)
                             + np.einsum("kij,kij->k", self.y, self.y))
        self.trace = np.trace(self.x, axis1=1, axis2=2)
        # 7 matrix stacks (stage argument, slope and RK4 sum, each as X and
        # Y, and a product) and 2 vectors
        self.work = np.empty((7, *self.x.shape))
        self.vec_work = np.empty((2, len(u)))

    def u(self) -> np.ndarray:
        return self.x + 1j * self.y


def _riccati_rhs(x, y, sx, sy, k_x, k_y, prod) -> None:
    """(k_x, k_y) = Psi^2 + U^2 for U = x + iy, written in place."""
    np.matmul(x, x, out=prod)
    np.add(sx, prod, out=k_x)
    np.matmul(y, y, out=prod)
    k_x -= prod
    np.matmul(x, y, out=prod)
    np.add(sy, prod, out=k_y)
    k_y -= np.swapaxes(prod, 1, 2)


def _rk4_stack(st: _RiccatiStack, h: float) -> int:
    """Re-Hermitized RK4 step of the whole stack, in place.

    Updates the norms and traces and returns the index of the first
    escaping frequency, or -1.
    """
    x, y, sx, sy = st.x, st.y, st.sx, st.sy
    arg_x, arg_y, k_x, k_y, acc_x, acc_y, prod = st.work
    sq, limit = st.vec_work
    _riccati_rhs(x, y, sx, sy, k_x, k_y, prod)
    np.copyto(acc_x, k_x)
    np.copyto(acc_y, k_y)
    # acc = k1 + 2 k2 + 2 k3 + k4; a spent stage argument holds w k
    for c, w in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, 1.0)):
        np.multiply(k_x, c, out=arg_x)
        arg_x += x
        np.multiply(k_y, c, out=arg_y)
        arg_y += y
        _riccati_rhs(arg_x, arg_y, sx, sy, k_x, k_y, prod)
        acc_x += np.multiply(k_x, w, out=arg_x)
        acc_y += np.multiply(k_y, w, out=arg_y)
    acc_x *= h / 6.0
    x += acc_x
    acc_y *= h / 6.0
    y += acc_y
    np.add(x, np.swapaxes(x, 1, 2), out=prod)
    np.multiply(prod, 0.5, out=x)
    np.subtract(y, np.swapaxes(y, 1, 2), out=prod)
    np.multiply(prod, 0.5, out=y)

    norms = st.norms
    np.maximum(norms, st.floor, out=limit)
    limit *= GROWTH_GUARD
    np.einsum("kij,kij->k", x, x, out=sq)
    np.einsum("kij,kij->k", y, y, out=norms)
    norms += sq
    np.sqrt(norms, out=norms)
    np.trace(x, axis1=1, axis2=2, out=st.trace)
    escaped = np.flatnonzero(norms > limit)
    return int(escaped[0]) if escaped.size else -1


def _guarded_step(st: _RiccatiStack, h: float, theta_next: float,
                  lambdas: np.ndarray) -> None:
    """One re-Hermitized RK4 step of stacked Riccati states, in place.

    Raises FeasibilityError, naming the first frequency, where a state
    grows by more than ``GROWTH_GUARD`` times its previous norm floored at
    its entry of ``st.floor``.
    """
    i = _rk4_stack(st, h)
    if i >= 0:
        raise FeasibilityError(
            f"Riccati state escaping at frequency {lambdas[i]:g}, "
            f"theta {theta_next:g}", theta=theta_next, lam=float(lambdas[i]))


def u_ode_step(sample: SpectralSample, u: np.ndarray, theta: float,
               d_theta: float) -> np.ndarray:
    """One RK4 step of dU/dtheta = Psi^2 + U^2, re-Hermitized.

    The equation is autonomous; ``theta`` only labels the step for the
    finite-escape diagnostic.  The growth guard is floored at the natural
    scale of the sample so that marches started from small states are not
    mistaken for escapes.
    """
    floor = np.array([max(np.linalg.norm(sample.psi), 1e-300)])
    st = _RiccatiStack(u[None], sample.psi[None], floor)
    _guarded_step(st, d_theta, theta + d_theta, np.array([sample.lam]))
    return st.u()[0]


def rate_by_homotopy(ss: StateSpace, theta_max: float, d_theta: float,
                     cfg: QuadratureConfig, store_u: bool = False) -> HomotopyTrace:
    """March the Riccati equation in theta across the frequency mesh.

    The trace integral of U over the rule's nodes, tail panel included,
    supplies Upsilon' at each step and the trapezoid rule accumulates
    Upsilon.

    Raises FeasibilityError if any frequency shows finite-time escape
    before theta_max.
    """
    return rate_by_homotopy_from_grid(grid_for(ss, cfg), theta_max, d_theta,
                                      cfg, store_u=store_u)


def rate_by_homotopy_from_grid(grid, theta_max: float, d_theta: float,
                               cfg: QuadratureConfig,
                               store_u: bool = False) -> HomotopyTrace:
    """Riccati march over precomputed spectral stacks."""
    if not (0.0 <= theta_max < math.inf and 0.0 < d_theta < math.inf):
        raise FeasibilityError("theta_max and d_theta must be finite, "
                               "theta_max >= 0 and d_theta > 0")
    n_steps = max(1, int(math.ceil(theta_max / d_theta - 1e-12))) \
        if theta_max > 0 else 0
    h = theta_max / max(n_steps, 1)
    floor = np.maximum(np.linalg.norm(grid.psi, axis=(1, 2)), 1e-300)
    st = _RiccatiStack(grid.phi, grid.psi, floor)

    def derivative() -> float:
        return cfg.half_line(st.trace).value / (2.0 * math.pi)

    thetas = np.linspace(0.0, theta_max, n_steps + 1)
    derivs = np.empty(n_steps + 1)
    derivs[0] = derivative()
    for k in range(n_steps):
        _guarded_step(st, h, float(thetas[k + 1]), grid.lambdas)
        derivs[k + 1] = derivative()
    rate = np.concatenate([[0.0], np.cumsum(0.5 * h * (derivs[1:] + derivs[:-1]))])
    return HomotopyTrace(theta_grid=thetas, rate_derivative=derivs, rate=rate,
                         per_freq_u=st.u() if store_u else None)


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
