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
only as an assertion channel against branch-cut mistakes.  The second
factor is formed in the eigenbasis of H = i Psi, where sqrt(tanc) is
diagonal, so each theta scales the model's cached rotated Phi and
factors I - theta M as L D L*, one pivot column at a time over the whole
frequency stack; a nonpositive pivot is the feasibility failure.  The
feasibility margin theta * max lam_max(M) is exact but eigensolves only
the few nodes whose bound max_i tanhc(theta w_i) * lam_max(Phi) reaches
the peak.  The integrand is even in frequency,
so the integral runs over [0, inf) on the composite Gauss-Kronrod rule
of ``qefrate.quadrature``, whose mapped last panel covers the
high-frequency tail.

The module also provides the classical entropy integral V(theta) obtained
when the commutator spectrum is absent, the feasibility threshold
theta0 = 1 / sup lam_max(Phi) (mesh-free, from the Hamiltonian matrix of
the H-infinity norm), the mean-square (LQG) limit, the small-theta
expansion, an analytic continuation E_theta(s) off the imaginary axis, and
the exponential tail / worst-case cost bounds built on top of Upsilon.

Every entry point that takes a model samples its spectrum through
``qefrate.spectral.grid_for``, once per model and rule, and theta0 is
computed once per model; the ``*_from_grid`` functions take a grid the
caller sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._funcs import check_theta, hermitize, lncosh, minimize_bounded, tanhc
from .errors import FeasibilityError, NumericalError
from .model import StateSpace
from .quadrature import HalfLine, QuadratureConfig
from .spectral import (SpectralGrid, SpectralSample, grid_for, transfer,
                       trig_bundle)

__all__ = [
    "RateResult", "log_det_d", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "contour_e",
    "tail_bound", "worst_case_lqg_bound", "frequency_profile",
]

#: Gauss-Kronrod error estimate, relative to the integral, above which a
#: rate result is flagged as unconverged.
QUAD_AGREEMENT = 1e-6

#: Relative step above the best known peak of lam_max(Phi) at which the
#: level-set iteration for theta0 looks for imaginary-axis eigenvalues.
LEVEL_STEP = 1e-9

#: Attribute of a ``StateSpace`` holding its memoized theta0.
_THETA0_SLOT = "_theta0"

#: Relative depth below the peak of the level set whose interval around
#: the peak brackets the final bounded maximization when the level-set
#: iteration for theta0 made no step.
POLISH_DEPTH = 1e-6

#: Relative slack below the exact lam_max(M) at the node of the largest
#: bound max_i r_i^2 lam_max(Phi) that a node's bound must reach for the
#: feasibility margin to eigensolve it; it covers rounding in the bound.
MARGIN_SLACK = 1e-12


@dataclass(frozen=True)
class RateResult:
    """Growth rate at one risk parameter, with quadrature diagnostics.

    ``tail_contrib`` is the part of ``upsilon`` from the mapped panel
    beyond the cutoff and ``quad_error`` the Gauss-Kronrod error estimate
    of ``upsilon``.
    """

    theta: float
    upsilon: float
    classical_v: float
    margin: float
    tail_contrib: float
    n_freq: int
    converged: bool = True
    quad_error: float = 0.0


def _neg_log_factor(eigs: np.ndarray, theta: float, lambdas: np.ndarray):
    """-sum ln(1 - theta * eigs) per frequency.

    ``eigs`` holds ascending eigenvalues per frequency.  Raises
    FeasibilityError, naming the first offending frequency, when a factor
    loses positivity.
    """
    factors = 1.0 - theta * eigs
    bad = np.nonzero(np.min(factors, axis=-1) <= 0.0)[0]
    if bad.size:
        _raise_infeasible(theta, lambdas[bad[0]], theta * eigs[bad[0], -1])
    return -np.sum(np.log1p(-theta * eigs), axis=-1)


def _raise_infeasible(theta: float, lam: float, margin: float):
    raise FeasibilityError(
        f"risk parameter {theta:g} infeasible at frequency "
        f"{lam:g} (margin {margin:g} >= 1)", theta=theta, lam=float(lam))


def _scaled_phi(grid: SpectralGrid, r: np.ndarray, nodes) -> np.ndarray:
    """M = sqrt(tanc) Phi sqrt(tanc) at ``nodes`` in the eigenbasis of H:
    ``grid.phi_rot`` scaled by r_i r_j, r = sqrt(tanhc(theta w))."""
    rn = r[nodes]
    return grid.phi_rot[nodes] * (rn[..., :, None] * rn[..., None, :])


def _neg_log_det(grid: SpectralGrid, theta: float) -> np.ndarray:
    """-ln det D_theta over the mesh via the Hermitian split.

    The second factor I - theta M is factored as L D L* one pivot column
    at a time, each step over every node at once (the node axis last, so
    every operation runs along the frequency stack): with S = -theta M,
    pivot k is 1 + e, e = Re S_kk, contributing -log1p(e), and the Schur
    update is S[k+1:, k+1:] -= c c* / (1 + e) for the column c below the
    pivot.  Keeping e apart from the 1 keeps the relative accuracy of
    log1p at small theta.  A nonpositive pivot means I - theta M is not
    positive definite there; such pivots are pinned to one so the sweep
    finishes, and FeasibilityError then names the lowest failing
    frequency with its margin from one eigensolve.
    """
    n_freq = len(grid.lambdas)
    if theta == 0.0:
        return np.zeros(n_freq)
    x = theta * grid.h_eigh[0]
    r = np.sqrt(np.asarray(tanhc(x)))
    rt = r.T
    s = np.moveaxis(grid.phi_rot, 0, -1) * (-theta * (rt[:, None] * rt[None]))
    n = len(s)
    piv = np.empty((n, n_freq))
    failed = np.zeros(n_freq, dtype=bool)
    for k in range(n):
        e = s[k, k].real
        bad = e <= -1.0
        if bad.any():
            failed |= bad
            e = np.where(bad, 0.0, e)
        piv[k] = e
        if k + 1 < n:
            col = s[k + 1:, k]
            s[k + 1:, k + 1:] -= (col * (1.0 / (1.0 + e)))[:, None] \
                * np.conj(col)[None]
    if failed.any():
        j = int(np.flatnonzero(failed)[0])
        peak = np.linalg.eigvalsh(_scaled_phi(grid, r, j))[-1]
        _raise_infeasible(theta, grid.lambdas[j], theta * peak)
    return -np.sum(np.log1p(piv), axis=0) \
        - np.sum(np.asarray(lncosh(x)), axis=-1)


def _margin(grid: SpectralGrid, theta: float) -> float:
    """Feasibility margin theta * max over the mesh of lam_max(M).

    Exact without eigensolving the whole stack: lam_max(M) is at most
    max_i r_i^2 * lam_max(Phi), so only the nodes whose bound reaches the
    exact value at the node of the largest bound, less a rounding slack,
    are solved, that node always among them.
    """
    if theta == 0.0:
        return 0.0
    r2 = np.asarray(tanhc(theta * grid.h_eigh[0]))
    r = np.sqrt(r2)
    bound = np.max(r2, axis=-1) * grid.phi_eigvals[:, -1]
    top = int(np.argmax(bound))
    peak = float(np.linalg.eigvalsh(_scaled_phi(grid, r, top))[-1])
    cands = bound >= peak - MARGIN_SLACK * abs(peak)
    cands[top] = False
    if cands.any():
        peak = max(peak, float(np.max(
            np.linalg.eigvalsh(_scaled_phi(grid, r, cands))[:, -1])))
    return theta * peak


def _upsilon_quad(grid: SpectralGrid, theta: float,
                  cfg: QuadratureConfig) -> HalfLine:
    """Upsilon(theta) with its tail part and error estimate: the integral
    of -ln det D_theta over [0, inf), divided by 2 pi."""
    check_theta(theta)
    return _over_2pi(cfg.half_line(_neg_log_det(grid, theta)))


def _classical_from_grid(grid: SpectralGrid, theta: float,
                         cfg: QuadratureConfig) -> HalfLine:
    """Entropy integral V(theta) with its tail part and error estimate."""
    return _over_2pi(cfg.half_line(_neg_log_factor(grid.phi_eigvals, theta,
                                                   grid.lambdas)))


def _over_2pi(quad: HalfLine) -> HalfLine:
    return HalfLine(*(x / (2.0 * math.pi) for x in quad))


def log_det_d(sample: SpectralSample, theta: float,
              tol_imag: float = 1e-8) -> float:
    """ln det D_theta at one frequency.

    Evaluated on the Hermitian split; the direct complex determinant is
    computed as well and its imaginary part asserted below ``tol_imag``.
    The value is even in both the frequency and the commutator sign, so
    mirrored samples are canonicalized first and evaluate identically.
    """
    check_theta(theta)
    if sample.lam < 0:
        sample = sample.mirrored()
    one_node = SpectralGrid(lambdas=np.array([sample.lam]),
                            phi=sample.phi[None], psi=sample.psi[None],
                            h=sample.h[None])
    value = -float(_neg_log_det(one_node, theta)[0])
    tb = trig_bundle(sample, theta)
    sign, _ = np.linalg.slogdet(tb.cos_tp - theta * sample.phi @ tb.sinc_tp)
    if abs(np.angle(sign)) > tol_imag:
        raise NumericalError(
            f"complex log-det drifted off the real axis: Im = {np.angle(sign):g}")
    return value


def upsilon_from_grid(grid: SpectralGrid, theta: float,
                      cfg: QuadratureConfig) -> RateResult:
    """Growth rate from spectral stacks sampled at ``cfg.lambdas()``.

    Feasibility is certified at the same nodes the integral uses; the
    classical entropy value is reported alongside when theta is below the
    classical threshold at the nodes, and as NaN otherwise.  The result is
    flagged unconverged when the Gauss-Kronrod error estimate of either
    integral exceeds ``QUAD_AGREEMENT`` times its value.
    """
    quad = _upsilon_quad(grid, theta, cfg)
    converged = _converged(quad)
    try:
        cl = _classical_from_grid(grid, theta, cfg)
        converged = converged and _converged(cl)
        v = cl.value
    except FeasibilityError:
        v = math.nan
    return RateResult(theta=float(theta), upsilon=quad.value,
                      classical_v=v, margin=_margin(grid, theta),
                      tail_contrib=quad.tail,
                      n_freq=len(grid.lambdas), converged=converged,
                      quad_error=quad.error)


def _converged(quad: HalfLine) -> bool:
    return quad.error <= QUAD_AGREEMENT * max(abs(quad.value), 1e-300)


def upsilon(ss: StateSpace, theta: float, cfg: QuadratureConfig) -> RateResult:
    """Growth rate of the exponential quadratic cost at risk level theta."""
    return upsilon_from_grid(grid_for(ss, cfg), theta, cfg)


def classical_v(ss: StateSpace, theta: float, cfg: QuadratureConfig) -> float:
    """Entropy integral V(theta) of the classical (commutative) limit."""
    check_theta(theta)
    return _classical_from_grid(grid_for(ss, cfg), theta, cfg).value


def _phi_peak(ss: StateSpace, lam: float) -> float:
    """lam_max(Phi(lam)), the squared largest singular value of F(i lam)."""
    f = transfer(ss, 1j * lam)
    return float(np.linalg.eigvalsh(hermitize(f @ f.conj().T))[-1])


def _crossings(ss: StateSpace, level: float) -> np.ndarray:
    """Frequencies, of both signs and ascending, where a squared singular
    value of F(i lam) equals ``level``.

    They are the imaginary parts of the imaginary-axis eigenvalues of the
    Hamiltonian matrix [[A, B B' / g], [-Pi / g, -A']], g = sqrt(level),
    balanced so that both off-diagonal blocks carry the level.
    """
    g = math.sqrt(level)
    ham = np.block([[ss.a, (ss.b @ ss.b.T) / g], [-ss.weight / g, -ss.a.T]])
    ev = np.linalg.eigvals(ham)
    scale = max(1.0, float(np.max(np.abs(ev))))
    return np.sort(ev.imag[np.abs(ev.real) <= 1e-8 * scale])


def theta_threshold(ss: StateSpace, cfg: QuadratureConfig) -> float:
    """Classical feasibility threshold 1 / sup lam_max(Phi) = 1/||F||_inf^2.

    Mesh-free: ``cfg`` is kept in the signature for its callers and is not
    used.  The value is computed once per model and stored on it.
    The level-set iteration of Bruinsma & Steinbuch (1990) raises a lower
    bound on the peak, starting from lambda = 0 and the drift resonances:
    the frequencies where lam_max(Phi) crosses the bound are read off the
    imaginary-axis eigenvalues of a Hamiltonian matrix, and the bound moves
    to the largest value at the midpoints between them, until no crossing
    is left above it.  A bounded scalar maximization inside the crossing
    interval around the peak then settles the value to rounding.
    """
    theta0 = vars(ss).get(_THETA0_SLOT)
    if theta0 is None:
        theta0 = vars(ss)[_THETA0_SLOT] = 1.0 / _phi_sup(ss)
    return theta0


def _phi_sup(ss: StateSpace) -> float:
    """sup over frequency of lam_max(Phi), by the level-set iteration."""
    cands = np.concatenate([[0.0], np.abs(ss.drift_eigenvalues.imag)])
    peaks = [_phi_peak(ss, lam) for lam in cands]
    k = int(np.argmax(peaks))
    best_lam, best = float(cands[k]), peaks[k]
    bracket = None
    for _ in range(50):
        w = _crossings(ss, best * (1.0 + LEVEL_STEP))
        pairs = [(lo, hi) for lo, hi in zip(w[:-1], w[1:]) if lo + hi >= 0.0]
        vals = [_phi_peak(ss, 0.5 * (lo + hi)) for lo, hi in pairs]
        if not vals or max(vals) <= best:
            break
        j = int(np.argmax(vals))
        bracket, best = pairs[j], vals[j]
        best_lam = 0.5 * (bracket[0] + bracket[1])
    if bracket is None:
        # the starting point was the peak to LEVEL_STEP: bracket it
        w = _crossings(ss, best * (1.0 - POLISH_DEPTH))
        i = int(np.searchsorted(w, best_lam))
        if 0 < i < len(w):
            bracket = (w[i - 1], w[i])
    if bracket is not None:
        _, f_min = minimize_bounded(lambda lam: -_phi_peak(ss, lam),
                                    float(bracket[0]), float(bracket[1]),
                                    xatol=1e-12)
        best = max(best, -float(f_min))
    return best


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
    check_theta(theta)
    grid = grid_for(ss, cfg)
    v = _classical_from_grid(grid, theta, cfg).value
    eye = np.eye(ss.n)
    psi_sq = grid.psi @ grid.psi
    resolvent = np.linalg.solve(eye - theta * grid.phi,
                                eye - (theta / 3.0) * grid.phi)
    corr_vals = np.real(np.trace(resolvent @ psi_sq, axis1=1, axis2=2))
    corr = cfg.half_line(corr_vals).value
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
    """Grid infimum with one bounded Brent refinement around the best node."""
    k = int(np.argmin(values))
    best = float(values[k])
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    if hi > lo:
        _, f_min = minimize_bounded(objective, float(lo), float(hi),
                                    xatol=1e-10)
        if np.isfinite(f_min):
            best = min(best, float(f_min))
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
    grid = grid_for(ss, cfg)
    thetas, ups = _feasible_curve(grid, theta_grid, cfg)

    def objective(th: float) -> float:
        try:
            return _upsilon_quad(grid, th, cfg).value - alpha * th
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
    grid = grid_for(ss, cfg)
    thetas, ups = _feasible_curve(grid, theta_grid, cfg, positive_only=True)

    def objective(th: float) -> float:
        if th <= 0:
            return math.inf
        try:
            return (eps + _upsilon_quad(grid, th, cfg).value) / th
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
            values.append(_upsilon_quad(grid, th, cfg).value)
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
    check_theta(theta)
    neg_ld = _neg_log_det(grid, theta)
    try:
        cl_vals = _neg_log_factor(grid.phi_eigvals, theta, grid.lambdas)
    except FeasibilityError:
        cl_vals = np.full_like(neg_ld, math.nan)
    return grid.lambdas, neg_ld, cl_vals
