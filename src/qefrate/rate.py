"""Frequency-domain computation of the quadratic-exponential growth rate.

The growth rate of the exponential cost with risk parameter theta is

    Upsilon(theta) = -(1/4 pi) * integral over the real line of
                     ln det D_theta(lambda) d lambda,

    D_theta = cos(theta Psi) - theta Phi sinc(theta Psi),

valid while the feasibility margin stays below one.  The log-determinant
is always computed through the two-factor Hermitian split

    ln det D = ln det cos(theta Psi)
             + ln det(I - theta sqrt(tanc) Phi sqrt(tanc)),

whose factors have real spectra; the direct complex determinant is kept
only as an assertion channel against branch-cut mistakes.  The integrand
is even in frequency, so the integral runs over [0, cutoff] with Simpson
weights, doubled, plus the analytic tail theta * Tr(Pi B B') / (2 pi cutoff)
with its next-order refinement.

The module also provides the classical entropy integral V(theta) obtained
when the commutator spectrum is absent, the feasibility threshold
theta0 = 1 / sup lam_max(Phi), the mean-square (LQG) limit, the small-theta
expansion, an analytic continuation E_theta(s) off the imaginary axis, and
the exponential tail / worst-case cost bounds built on top of Upsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from ._funcs import apply_herm, hermitize, lncosh, tanhc
from .errors import FeasibilityError, NumericalError
from .model import StateSpace
from .quadrature import QuadratureConfig, weighted_sum
from .spectral import (SpectralGrid, SpectralSample, sample_grid, transfer,
                       trig_bundle)

__all__ = [
    "RateResult", "log_det_d", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "contour_e",
    "tail_bound", "worst_case_lqg_bound", "frequency_profile",
]

#: Relative disagreement between Simpson and trapezoid sums above which a
#: rate result is flagged as unconverged.
QUAD_AGREEMENT = 1e-6


@dataclass(frozen=True)
class RateResult:
    """Growth rate at one risk parameter, with quadrature diagnostics."""

    theta: float
    upsilon: float
    classical_v: float
    margin: float
    tail_contrib: float
    n_freq: int
    converged: bool = True


def _neg_log_factor(eigs: np.ndarray, theta: float, lambdas: np.ndarray):
    """-sum ln(1 - theta * eigs) per frequency, with the feasibility margin.

    ``eigs`` holds ascending eigenvalues per frequency.  Returns (values,
    margin), where margin is the largest theta * eigenvalue on the mesh.
    Raises FeasibilityError, naming the first offending frequency, when a
    factor loses positivity.
    """
    factors = 1.0 - theta * eigs
    bad = np.nonzero(np.min(factors, axis=-1) <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise FeasibilityError(
            f"risk parameter {theta:g} infeasible at frequency "
            f"{lambdas[k]:g} (margin {theta * eigs[k, -1]:g} >= 1)",
            theta=theta, lam=float(lambdas[k]))
    return -np.sum(np.log(factors), axis=-1), float(theta * np.max(eigs[:, -1]))


def _neg_log_det(grid: SpectralGrid, theta: float):
    """-ln det D_theta over the mesh via the Hermitian split, with margin."""
    if theta == 0.0:
        return np.zeros(len(grid.lambdas)), 0.0
    w, v = grid.h_eigh
    x = theta * w
    ln_cos = np.sum(np.asarray(lncosh(x)), axis=-1)
    sym = apply_herm(np.sqrt(np.asarray(tanhc(x))), v)
    eigs = np.linalg.eigvalsh(hermitize(sym @ grid.phi @ sym))
    neg_second, margin = _neg_log_factor(eigs, theta, grid.lambdas)
    return neg_second - ln_cos, margin


def _classical_from_grid(grid: SpectralGrid, theta: float,
                         cfg: QuadratureConfig) -> float:
    """Entropy integral V(theta) over the mesh, with the analytic tail."""
    vals, _ = _neg_log_factor(grid.phi_eigvals, theta, grid.lambdas)
    return cfg.half_line(vals, theta * grid.tail_coeff)[0] / (2.0 * math.pi)


def log_det_d(sample: SpectralSample, theta: float,
              tol_imag: float = 1e-8) -> float:
    """ln det D_theta at one frequency.

    Evaluated on the Hermitian split; the direct complex determinant is
    computed as well and its imaginary part asserted below ``tol_imag``.
    The value is even in both the frequency and the commutator sign, so
    mirrored samples are canonicalized first and evaluate identically.
    """
    if sample.lam < 0:
        sample = sample.mirrored()
    one_node = SpectralGrid(lambdas=np.array([sample.lam]),
                            f_val=sample.f_val[None], phi=sample.phi[None],
                            psi=sample.psi[None], h=sample.h[None],
                            tail_coeff=math.nan)
    value = -float(_neg_log_det(one_node, theta)[0][0])
    tb = trig_bundle(sample, theta)
    sign, _ = np.linalg.slogdet(tb.cos_tp - theta * sample.phi @ tb.sinc_tp)
    if abs(np.angle(sign)) > tol_imag:
        raise NumericalError(
            f"complex log-det drifted off the real axis: Im = {np.angle(sign):g}")
    return value


def upsilon_from_grid(grid: SpectralGrid, theta: float,
                      cfg: QuadratureConfig) -> RateResult:
    """Growth rate from precomputed spectral stacks.

    Feasibility is certified on the same mesh the integral uses; the
    classical entropy value is reported alongside when theta is below the
    classical threshold on the mesh, and as NaN otherwise.  The result is
    flagged unconverged when the Simpson and trapezoid sums of the
    log-det integrand disagree by more than ``QUAD_AGREEMENT``.
    """
    if not 0.0 <= theta < math.inf:
        raise FeasibilityError("risk parameter must be finite and nonnegative",
                               theta=theta)
    neg_ld, margin = _neg_log_det(grid, theta)
    total, tail = cfg.half_line(neg_ld, theta * grid.tail_coeff)
    simp = total - tail
    trap = weighted_sum(cfg.trapezoid_weights(), neg_ld)
    converged = abs(simp - trap) <= QUAD_AGREEMENT * max(abs(simp), 1e-300)
    try:
        cl = _classical_from_grid(grid, theta, cfg)
    except FeasibilityError:
        cl = math.nan
    return RateResult(theta=float(theta), upsilon=total / (2.0 * math.pi),
                      classical_v=cl, margin=margin,
                      tail_contrib=tail / (2.0 * math.pi),
                      n_freq=len(grid.lambdas), converged=converged)


def upsilon(ss: StateSpace, theta: float, cfg: QuadratureConfig) -> RateResult:
    """Growth rate of the exponential quadratic cost at risk level theta."""
    return upsilon_from_grid(sample_grid(ss, cfg.lambdas()), theta, cfg)


def classical_v(ss: StateSpace, theta: float, cfg: QuadratureConfig) -> float:
    """Entropy integral V(theta) of the classical (commutative) limit."""
    if theta < 0:
        raise FeasibilityError("risk parameter must be nonnegative", theta=theta)
    return _classical_from_grid(sample_grid(ss, cfg.lambdas()), theta, cfg)


def theta_threshold(ss: StateSpace, cfg: QuadratureConfig) -> float:
    """Classical feasibility threshold 1 / sup lam_max(Phi).

    The supremum is located on the mesh and refined by golden-section
    search in the bracketing interval.
    """
    lambdas = cfg.lambdas()
    grid = sample_grid(ss, lambdas)
    peaks = grid.phi_eigvals[:, -1]
    k = int(np.argmax(peaks))

    def neg_peak(lam: float) -> float:
        f = transfer(ss, 1j * lam)
        return -float(np.linalg.eigvalsh(hermitize(f @ f.conj().T))[-1])

    lo = lambdas[max(k - 1, 0)]
    hi = lambdas[min(k + 1, len(lambdas) - 1)]
    res = minimize_scalar(neg_peak, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    best = max(-res.fun, peaks[k])
    return 1.0 / float(best)


def lqg_rate(ss: StateSpace) -> float:
    """Mean-square cost rate, the slope of the growth rate at theta = 0.

    Computed algebraically as Tr(Pi Sigma) / 2, the squared H2 norm of the
    weighted system over two.
    """
    return 0.5 * float(np.trace(ss.weight @ ss.sigma))


def small_theta_expansion(ss: StateSpace, theta: float,
                          cfg: QuadratureConfig) -> float:
    """Third-order expansion of the growth rate around theta = 0.

    Adds to the classical entropy integral the leading commutator
    correction

        (theta^2 / 8 pi) * integral Tr((I - theta Phi)^{-1}
                                       (I - theta Phi / 3) Psi^2) d lambda,

    whose integrand is real and nonpositive, so the expansion always sits
    below the classical value.
    """
    grid = sample_grid(ss, cfg.lambdas())
    v = _classical_from_grid(grid, theta, cfg)
    eye = np.eye(ss.n)
    psi_sq = grid.psi @ grid.psi
    resolvent = np.linalg.solve(eye - theta * grid.phi,
                                eye - (theta / 3.0) * grid.phi)
    corr_vals = np.real(np.trace(resolvent @ psi_sq, axis1=1, axis2=2))
    # the integrand decays like 1/lambda^4: no 1/lambda^2 asymptote
    corr, _ = cfg.half_line(corr_vals, 0.0)
    return v + (theta ** 2 / (4.0 * math.pi)) * corr


def _cos_sinc_series(m: np.ndarray):
    """cos(M) and sinc(M) of a general square matrix.

    Scaled truncated Taylor series in M^2 followed by double-angle
    recursion: cos(2X) = 2 cos(X)^2 - I and sinc(2X) = sinc(X) cos(X).
    """
    norm = np.linalg.norm(m, 1)
    if not np.isfinite(norm):
        raise NumericalError("matrix argument of cos/sinc is not finite")
    k = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    if k > 60:
        raise NumericalError("matrix argument too large for the scaled series")
    x = m / (2.0 ** k)
    x2 = x @ x
    eye = np.eye(m.shape[0], dtype=complex)
    cos_x = eye.copy()
    sinc_x = eye.copy()
    term = eye.copy()
    for j in range(1, 13):
        term = term @ x2 * (-1.0)
        cos_x = cos_x + term / math.factorial(2 * j)
        sinc_x = sinc_x + term / math.factorial(2 * j + 1)
    for _ in range(k):
        sinc_x = sinc_x @ cos_x
        cos_x = 2.0 * cos_x @ cos_x - eye
    return cos_x, sinc_x


def contour_e(ss: StateSpace, s: complex, theta: float) -> np.ndarray:
    """Analytic continuation E_theta(s) of the log-det matrix off the axis.

    Uses the rational continuations Gamma(s) = F(s) F(-s)' and
    Mho(s) = F(s) J F(-s)', which restrict to Phi and Psi on the imaginary
    axis, and evaluates cos and sinc of the (generally non-normal) matrix
    theta * Mho(s) by a scaled Taylor series.
    """
    f_pos = transfer(ss, s)
    f_neg = transfer(ss, -s)
    gamma = f_pos @ f_neg.T
    mho = f_pos @ ss.j @ f_neg.T
    cos_m, sinc_m = _cos_sinc_series(theta * mho)
    return cos_m - theta * gamma @ sinc_m


def _refine_inf(objective, grid: np.ndarray, values: np.ndarray) -> float:
    """Grid infimum with one golden-section refinement around the best node."""
    k = int(np.argmin(values))
    best = float(values[k])
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    if hi > lo:
        res = minimize_scalar(objective, bounds=(float(lo), float(hi)),
                              method="bounded", options={"xatol": 1e-10})
        if np.isfinite(res.fun):
            best = min(best, float(res.fun))
    return best


def tail_bound(ss: StateSpace, alpha: float, theta_grid,
               cfg: QuadratureConfig) -> float:
    """Exponential decay-rate bound for the upper tail of the cost.

    Returns inf over the feasible part of ``theta_grid`` of
    Upsilon(theta) - alpha * theta, the large-deviations exponent for the
    event that the time-averaged cost exceeds 2 * alpha.
    """
    if not 0.0 < alpha < math.inf:
        raise FeasibilityError("tail level alpha must be positive and finite")
    grid = sample_grid(ss, cfg.lambdas())
    thetas, ups = _feasible_curve(grid, theta_grid, cfg)

    def objective(th: float) -> float:
        try:
            return upsilon_from_grid(grid, th, cfg).upsilon - alpha * th
        except FeasibilityError:
            return math.inf

    return _refine_inf(objective, thetas, ups - alpha * thetas)


def worst_case_lqg_bound(ss: StateSpace, eps: float, theta_grid,
                         cfg: QuadratureConfig) -> float:
    """Worst-case mean-square cost rate under relative-entropy uncertainty.

    Returns 2 * inf over theta > 0 of (eps + Upsilon(theta)) / theta for
    uncertainty budget eps >= 0, evaluated on the grid with one
    refinement.
    """
    if not 0.0 <= eps < math.inf:
        raise FeasibilityError(
            "uncertainty budget eps must be finite and nonnegative")
    grid = sample_grid(ss, cfg.lambdas())
    thetas, ups = _feasible_curve(grid, theta_grid, cfg, positive_only=True)

    def objective(th: float) -> float:
        if th <= 0:
            return math.inf
        try:
            return (eps + upsilon_from_grid(grid, th, cfg).upsilon) / th
        except FeasibilityError:
            return math.inf

    return 2.0 * _refine_inf(objective, thetas, (eps + ups) / thetas)


def _feasible_curve(grid: SpectralGrid, theta_grid, cfg: QuadratureConfig,
                    positive_only: bool = False):
    """Upsilon over the feasible subset of a theta grid."""
    thetas, values = [], []
    for th in np.asarray(theta_grid, dtype=float):
        if positive_only and th <= 0:
            continue
        try:
            values.append(upsilon_from_grid(grid, th, cfg).upsilon)
            thetas.append(th)
        except FeasibilityError:
            continue
    if not thetas:
        raise FeasibilityError("no feasible risk parameter on the grid")
    return np.asarray(thetas), np.asarray(values)


def frequency_profile(grid: SpectralGrid, theta: float):
    """Per-frequency integrand data for CSV export.

    Returns (lambdas, neg_log_det_d, classical_integrand) over the mesh.
    """
    neg_ld, _ = _neg_log_det(grid, theta)
    try:
        cl_vals, _ = _neg_log_factor(grid.phi_eigvals, theta, grid.lambdas)
    except FeasibilityError:
        cl_vals = np.full_like(neg_ld, math.nan)
    return grid.lambdas, neg_ld, cl_vals
