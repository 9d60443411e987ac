"""Frequency-domain computation of the quadratic-exponential growth rate.

The growth rate of the exponential cost with risk parameter theta is

    Upsilon(theta) = -(1/4 pi) * integral over the real line of
                     ln det D_theta(lambda) d lambda,

    D_theta = cos(theta Psi) - theta Phi sinc(theta Psi),

valid while the feasibility margin stays below one.  The log-determinant
is always computed through the two-factor Hermitian split

    ln det D = ln det cos(theta Psi)
             + ln det(I - theta sqrt(tanc) Phi sqrt(tanc)),

whose factors have real spectra; the tests keep the direct complex
determinant as a check against branch-cut mistakes.  The second
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
expansion, and the exponential tail / worst-case cost bounds built on top
of Upsilon.

Every entry point that takes a model samples its spectrum through
``qefrate.spectral.grid_for``, once per model and rule, and theta0 is
computed once per model; ``upsilon_from_grid`` takes a grid the caller
sampled.  Per theta, ``upsilon_from_grid`` evaluates tanhc(theta w)
once for the log-determinant and the margin, the small-theta expansion
reads the grid's cached eigenvalues of Phi and diagonal of Psi^2, and
both bounds share one search: it reads Upsilon on their theta grid from
a curve kept on the spectral grid, then refines the grid infimum of the
bound's cost by a bounded search started from the grid values around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._funcs import check_theta, hermitize, lncosh, minimize_bounded, tanhc
from .errors import FeasibilityError, ParameterError
from .model import StateSpace
from .quadrature import HalfLine, QuadratureConfig
from .spectral import SpectralGrid, grid_for, transfer

__all__ = [
    "RateResult", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "tail_bound",
    "worst_case_lqg_bound", "curve_converged", "frequency_profile",
]

#: Gauss-Kronrod error estimate, relative to the integral, above which a
#: rate result is flagged as unconverged.
QUAD_AGREEMENT = 1e-6

#: Relative step above the best known peak of lam_max(Phi) at which the
#: level-set iteration for theta0 looks for imaginary-axis eigenvalues.
LEVEL_STEP = 1e-9

#: Attribute of a ``StateSpace`` holding its memoized theta0.
_THETA0_SLOT = "_theta0"

#: Attribute of a ``SpectralGrid`` holding the bounds' kept Upsilon curve.
_CURVE_SLOT = "_bounds_curve"

#: Relative depth below the peak of the level set whose interval around
#: the peak brackets the final bounded maximization when the level-set
#: iteration for theta0 made no step.
POLISH_DEPTH = 1e-6

#: Spacing of doubles at one.
_EPS = float(np.finfo(float).eps)

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
    top = theta * eigs[:, -1]
    if (top >= 1.0).any():
        bad = int(np.flatnonzero(top >= 1.0)[0])
        _raise_infeasible(theta, lambdas[bad], top[bad])
    terms = eigs * -theta
    return -np.log1p(terms, out=terms).sum(axis=-1)


def _raise_infeasible(theta: float, lam: float, margin: float):
    raise FeasibilityError(
        f"risk parameter {theta:g} infeasible at frequency "
        f"{lam:g} (margin {margin:g} >= 1)", theta=theta, lam=float(lam))


def _sqrt_tanc(grid: SpectralGrid, theta: float) -> np.ndarray:
    """r = sqrt(tanhc(theta w)) with the node axis last, shape
    (n, n_freq): the diagonal of sqrt(tanc(theta Psi)) in the eigenbasis
    of H at every node."""
    r = tanhc(theta * grid.h_eigvals_t)
    return np.sqrt(r, out=r)


def _scaled_phi(grid: SpectralGrid, r: np.ndarray, nodes) -> np.ndarray:
    """M = sqrt(tanc) Phi sqrt(tanc) at ``nodes`` in the eigenbasis of H:
    ``grid.phi_rot`` scaled by r_i r_j, r from ``_sqrt_tanc``."""
    rn = r[:, nodes].T
    return grid.phi_rot[nodes] * (rn[..., :, None] * rn[..., None, :])


def _neg_log_det(grid: SpectralGrid, theta: float,
                 r: np.ndarray | None = None) -> np.ndarray:
    """-ln det D_theta over the mesh via the Hermitian split.

    The second factor I - theta M is factored as L D L* one pivot column
    at a time, each step over every node at once (the node axis last, so
    every operation runs along the frequency stack): with S = -theta M,
    pivot k is 1 + e, e = Re S_kk, contributing -log1p(e), and the Schur
    update is S[k+1:, k+1:] -= c c* / (1 + e) for the column c below the
    pivot, c* read from row k, which holds it to rounding.  Keeping e
    apart from the 1 keeps the relative accuracy of log1p at small theta.
    A pivot at or below zero means I - theta M is not positive definite
    at that node; nodes never mix, so the sweep finishes for the others,
    and FeasibilityError then names the lowest failing frequency with
    its margin from one eigensolve.  ``r`` is ``_sqrt_tanc(grid, theta)``
    when the caller has it.
    """
    n_freq = len(grid.lambdas)
    if theta == 0.0:
        return np.zeros(n_freq)
    if r is None:
        r = _sqrt_tanc(grid, theta)
    scale = r[:, None] * r[None]
    scale *= -theta
    s = grid.phi_rot.transpose(1, 2, 0) * scale  # node axis last
    n = len(s)
    # a failed node's later pivots may overflow; they are never used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n - 1):
            col = s[k + 1:, k] / (1.0 + s[k, k].real)
            s[k + 1:, k + 1:] -= col[:, None] * s[k, k + 1:][None]
    piv = s.reshape(n * n, n_freq)[::n + 1].real
    if (piv <= -1.0).any():
        j = int(np.flatnonzero(np.any(piv <= -1.0, axis=0))[0])
        peak = np.linalg.eigvalsh(_scaled_phi(grid, r, j))[-1]
        _raise_infeasible(theta, grid.lambdas[j], theta * peak)
    np.log1p(piv, out=piv)
    piv += lncosh(theta * grid.h_eigvals_t)
    return -piv.sum(axis=0)


def _margin(grid: SpectralGrid, theta: float, r: np.ndarray) -> float:
    """Feasibility margin theta * max over the mesh of lam_max(M), with
    r = ``_sqrt_tanc(grid, theta)``.

    Exact without eigensolving the whole stack: lam_max(M) is at most
    max_i r_i^2 * lam_max(Phi), so only the nodes whose bound reaches the
    exact value at the node of the largest bound, less a rounding slack,
    are solved, that node always among them.
    """
    if theta == 0.0:
        return 0.0
    bound = np.max(r, axis=0) ** 2 * grid.phi_eigvals[:, -1]
    top = int(np.argmax(bound))
    peak = float(np.linalg.eigvalsh(_scaled_phi(grid, r, top))[-1])
    cands = bound >= peak - MARGIN_SLACK * abs(peak)
    cands[top] = False
    if cands.any():
        peak = max(peak, float(np.max(
            np.linalg.eigvalsh(_scaled_phi(grid, r, cands))[:, -1])))
    return theta * peak


def _upsilon_quad(grid: SpectralGrid, theta: float, cfg: QuadratureConfig,
                  r: np.ndarray | None = None) -> HalfLine:
    """Upsilon(theta) with its tail part and error estimate: the integral
    of -ln det D_theta over [0, inf), divided by 2 pi.  ``r`` is
    ``_sqrt_tanc(grid, theta)`` when the caller has it."""
    check_theta(theta)
    return _over_2pi(cfg.half_line(_neg_log_det(grid, theta, r)))


def _classical_from_grid(grid: SpectralGrid, theta: float,
                         cfg: QuadratureConfig) -> HalfLine:
    """Entropy integral V(theta) with its tail part and error estimate."""
    return _over_2pi(cfg.half_line(_neg_log_factor(grid.phi_eigvals, theta,
                                                   grid.lambdas)))


def _over_2pi(quad: HalfLine) -> HalfLine:
    return HalfLine(*(x / (2.0 * math.pi) for x in quad))


def upsilon_from_grid(grid: SpectralGrid, theta: float,
                      cfg: QuadratureConfig) -> RateResult:
    """Growth rate from spectral stacks sampled at ``cfg.lambdas()``.

    Feasibility is certified at the same nodes the integral uses; the
    classical entropy value is reported alongside when theta is below the
    classical threshold at the nodes, and as NaN otherwise.  The result is
    flagged unconverged when the Gauss-Kronrod error estimate of either
    integral exceeds ``QUAD_AGREEMENT`` times its value.  A grid sampled
    at other nodes raises ParameterError.
    """
    check_theta(theta)
    if not np.array_equal(grid.lambdas, cfg.lambdas()):
        raise ParameterError("the grid was not sampled at the rule's nodes")
    r = _sqrt_tanc(grid, theta)
    quad = _upsilon_quad(grid, theta, cfg, r)
    v, v_converged = _classical_checked(grid, theta, cfg)
    return RateResult(theta=float(theta), upsilon=quad.value,
                      classical_v=v, margin=_margin(grid, theta, r),
                      tail_contrib=quad.tail,
                      n_freq=len(grid.lambdas),
                      converged=_converged(quad) and v_converged,
                      quad_error=quad.error)


def _converged(quad: HalfLine) -> bool:
    return quad.error <= QUAD_AGREEMENT * max(abs(quad.value), 1e-300)


def _classical_checked(grid: SpectralGrid, theta: float,
                       cfg: QuadratureConfig) -> tuple[float, bool]:
    """V(theta), NaN where it is infeasible, and whether its estimate
    meets ``QUAD_AGREEMENT``; an infeasible V has nothing to flag."""
    try:
        cl = _classical_from_grid(grid, theta, cfg)
    except FeasibilityError:
        return math.nan, True
    return cl.value, _converged(cl)


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
    interval around the peak, started from the iteration's best point,
    then settles the value to rounding.
    """
    theta0 = vars(ss).get(_THETA0_SLOT)
    if theta0 is None:
        theta0 = vars(ss)[_THETA0_SLOT] = 1.0 / _phi_sup(ss)
    return theta0


def _phi_sup(ss: StateSpace) -> float:
    """sup over frequency of lam_max(Phi), by the level-set iteration.
    Each frequency is evaluated once: a real drift eigenvalue repeats
    lam = 0 and a conjugate pair its frequency, and a crossing pair
    (-w, w) has its midpoint at 0 again."""
    peaks = {}

    def peak(lam: float) -> float:
        if lam not in peaks:
            peaks[lam] = _phi_peak(ss, lam)
        return peaks[lam]

    # lam = 0 and the drift resonances, the first of equal peaks winning
    for lam in [0.0, *np.abs(ss.drift_eigenvalues.imag).tolist()]:
        peak(lam)
    best_lam, best = max(peaks.items(), key=lambda item: item[1])
    bracket = None
    for _ in range(50):
        level = best * (1.0 + LEVEL_STEP)
        w = _crossings(ss, level)
        pairs = [(lo, hi) for lo, hi in zip(w[:-1], w[1:]) if lo + hi >= 0.0]
        vals = [peak(0.5 * (lo + hi)) for lo, hi in pairs]
        if not vals or max(vals) <= best:
            break
        j = int(np.argmax(vals))
        bracket, best, bracket_level = pairs[j], vals[j], level
        best_lam = 0.5 * (bracket[0] + bracket[1])
    if bracket is None:
        # the starting point was the peak to LEVEL_STEP: bracket it
        bracket_level = best * (1.0 - POLISH_DEPTH)
        w = _crossings(ss, bracket_level)
        i = int(np.searchsorted(w, best_lam))
        if 0 < i < len(w):
            bracket = (w[i - 1], w[i])
    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        _, f_min = minimize_bounded(
            lambda lam: -peak(lam), lo, hi,
            xatol=_peak_xatol(hi - lo, bracket_level, best),
            start=[(best_lam, -best)])
        best = max(best, -float(f_min))
    return best


def _peak_xatol(width: float, level: float, best: float) -> float:
    """Distance from the peak of lam_max(Phi) within which its value is
    settled to rounding, on a bracket of ``width`` whose ends cross
    ``level`` and whose best value so far is ``best``.

    Near its peak f* the function is f* - k (lam - lam*)^2, so a point
    delta from the peak holds f* to d (2 delta / width)^2 relative, d the
    bracket's relative depth (f* - level) / f*.  f* is taken as
    best * (1 + LEVEL_STEP), where the level-set iteration found no
    higher midpoint, and d is at least LEVEL_STEP, the finest depth the
    crossings resolve.  A peak at lam = 0 has no scale of its own in lam,
    so this width-relative tolerance is what ends the search there.
    """
    depth = max(1.0 - level / (best * (1.0 + LEVEL_STEP)), LEVEL_STEP)
    return 0.5 * width * math.sqrt(_EPS / depth)


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
    below the classical value.  In the eigenbasis of Phi the trace is
    sum_i (1 - theta phi_i / 3) / (1 - theta phi_i) * d_i with the cached
    nonpositive d_i of ``SpectralGrid.phi_psi_sq``, so a further theta
    costs elementwise work only.
    """
    check_theta(theta)
    grid = grid_for(ss, cfg)
    v = _classical_from_grid(grid, theta, cfg).value
    phi_w, d = grid.phi_psi_sq
    tp = theta * phi_w
    corr_vals = np.sum((1.0 - tp / 3.0) / (1.0 - tp) * d, axis=-1)
    corr = cfg.half_line(corr_vals).value
    return v + (theta ** 2 / (4.0 * math.pi)) * corr


def _bound_search(ss: StateSpace, theta_grid, cfg: QuadratureConfig,
                  cost) -> float:
    """Infimum of ``cost(theta, Upsilon(theta))`` over the feasible part of
    ``theta_grid``, refined by one bounded search around the best node.

    Upsilon on the grid is read from the model's kept curve
    (``_feasible_curve``), so only the search integrates anew once the
    grid has been asked for; grid costs that are not finite are dropped.
    The search runs between the best node's neighbours (to its one
    neighbour at an end of the grid) and starts from the parabola through
    the best node and the two nodes nearest it, values the grid already
    holds.
    """
    grid = grid_for(ss, cfg)
    thetas, quads = _feasible_curve(grid, theta_grid, cfg)
    values = np.array([cost(th, quad.value)
                       for th, quad in zip(thetas, quads)])
    finite = np.isfinite(values)
    if not finite.any():
        raise FeasibilityError("no feasible risk parameter on the grid")
    order = np.argsort(thetas[finite], kind="stable")
    thetas, values = thetas[finite][order], values[finite][order]

    def objective(th: float) -> float:
        try:
            return cost(th, _upsilon_quad(grid, th, cfg).value)
        except FeasibilityError:
            return math.inf

    k = int(np.argmin(values))
    best = float(values[k])
    lo, hi = thetas[max(k - 1, 0)], thetas[min(k + 1, len(thetas) - 1)]
    if hi > lo:
        first = min(max(k - 1, 0), max(len(thetas) - 3, 0))
        near = slice(first, first + 3)
        _, f_min = minimize_bounded(objective, float(lo), float(hi),
                                    xatol=1e-10,
                                    start=zip(thetas[near], values[near]))
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
    return _bound_search(ss, theta_grid, cfg,
                         lambda th, ups: ups - alpha * th)


def worst_case_lqg_bound(ss: StateSpace, eps: float, theta_grid,
                         cfg: QuadratureConfig) -> float:
    """Worst-case mean-square cost rate under relative-entropy uncertainty.

    Returns 2 * inf over theta > 0 of (eps + Upsilon(theta)) / theta for
    uncertainty budget eps >= 0; the cost is inf at theta = 0.
    """
    if not 0.0 <= eps < math.inf:
        raise FeasibilityError(
            "uncertainty budget eps must be finite and nonnegative")
    return 2.0 * _bound_search(
        ss, theta_grid, cfg,
        lambda th, ups: (eps + ups) / th if th > 0 else math.inf)


def curve_converged(ss: StateSpace, theta_grid,
                    cfg: QuadratureConfig) -> bool:
    """Whether every feasible theta of ``theta_grid`` meets the quadrature
    tolerance: the ``converged`` flag ``upsilon`` gives there, from the
    error estimates of Upsilon and, where it is feasible, of V.

    Upsilon's estimates are those of the kept curve the bounds read, so
    a grid the bounds use is integrated once for both; a grid with no
    feasible theta has nothing to flag.
    """
    grid = grid_for(ss, cfg)
    try:
        thetas, quads = _feasible_curve(grid, theta_grid, cfg)
    except FeasibilityError:
        return True
    return all(_converged(quad) and _classical_checked(grid, theta, cfg)[1]
               for theta, quad in zip(thetas, quads))


def _feasible_curve(grid: SpectralGrid, theta_grid, cfg: QuadratureConfig):
    """The feasible theta of a theta grid, in the grid's order, with their
    Upsilon ``HalfLine``s.

    Kept on the spectral grid, so per model and rule like ``grid_for``'s
    grid: a theta grid with the same float64 values, bit for bit, reads
    the kept curve, and another one replaces it.  Raises
    FeasibilityError, on every call, when no theta of the grid is
    feasible.
    """
    values = np.asarray(theta_grid, dtype=float)
    key = (values.shape, values.tobytes())
    kept = vars(grid).get(_CURVE_SLOT)
    if kept is None or kept[0] != key:
        thetas, quads = [], []
        for th in values:
            try:
                quads.append(_upsilon_quad(grid, th, cfg))
                thetas.append(th)
            except FeasibilityError:
                continue
        thetas = np.asarray(thetas)
        thetas.flags.writeable = False
        kept = vars(grid)[_CURVE_SLOT] = (key, thetas, tuple(quads))
    _, thetas, quads = kept
    if not quads:
        raise FeasibilityError("no feasible risk parameter on the grid")
    return thetas, quads


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
