"""Scalar special functions, symmetric parts and the root of a positive
definite matrix, a bounded scalar minimizer and the domain check of the
risk parameter.

The hyperbolic ratio functions sinhc(x) = sinh(x)/x and tanhc(x) = tanh(x)/x
are extended by 1 at x = 0 and switch to short series below |x| = 1e-4,
where direct division loses accuracy.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import FeasibilityError, ParameterError

_SERIES_CUT = 1e-4
#: ``sqrtm_spd`` refuses a smallest eigenvalue at or below this fraction
#: of the largest.
_PD_FLOOR = 1e-12


def _quotient(num, x, series):
    """num(x)/x, with series(x*x) in its place where |x| < _SERIES_CUT.

    The series is evaluated only at those entries, and the guarded
    quotient only when there are any.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    if not small.any():
        out = num(x) / x
        return out if out.ndim else float(out)
    if not x.ndim:
        return float(series(x * x))
    xs = np.where(small, 1.0, x)
    out = num(xs) / xs
    x_small = x[small]
    out[small] = series(x_small * x_small)
    return out


def sinhc(x: np.ndarray | float) -> np.ndarray | float:
    """sinh(x)/x with the removable singularity filled by its series."""
    return _quotient(np.sinh, x, lambda x2: 1.0 + x2 / 6.0 + x2 * x2 / 120.0)


def tanhc(x: np.ndarray | float) -> np.ndarray | float:
    """tanh(x)/x, valued in (0, 1] on the reals."""
    return _quotient(np.tanh, x,
                     lambda x2: 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0)


def lncosh(x: np.ndarray | float) -> np.ndarray | float:
    """log(cosh(x)) without overflow for large |x| and to full relative
    precision for small |x|, as log1p(2 sinh(x/2)^2) below |x| = 1.  The
    large-|x| form is evaluated only when some |x| reaches 1."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.log1p(2.0 * np.sinh(0.5 * np.minimum(a, 1.0)) ** 2)
    big = a >= 1.0
    if big.any():
        out = np.where(big, a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0), out)
    return out if out.ndim else float(out)


def check_theta(theta: float) -> None:
    """Raise FeasibilityError unless the risk parameter is finite and >= 0."""
    if not 0.0 <= theta < math.inf:
        raise FeasibilityError("risk parameter must be finite and nonnegative",
                               theta=theta)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average with the conjugate transpose (stacks allowed)."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def skew_hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))


def sqrtm_spd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix.

    Rejects matrices whose smallest eigenvalue falls below ``_PD_FLOOR``
    times the largest, since downstream formulas require a nonsingular
    root.
    """
    w, v = np.linalg.eigh(hermitize(m))
    if w[0] <= _PD_FLOOR * max(w[-1], 0.0):
        raise ParameterError(
            f"matrix is not positive definite: eigenvalue range [{w[0]:g}, {w[-1]:g}]")
    return hermitize((v * np.sqrt(w)) @ v.T)


def apply_herm(func_of_eig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reassemble V diag(f) V* for stacked Hermitian eigendecompositions."""
    return (v * func_of_eig[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


#: Fraction of a bracket at which golden-section steps probe, (3 - sqrt 5)/2.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
#: Relative part of the step floor: the square root of the double epsilon.
_SQRT_EPS = math.sqrt(2.2e-16)
#: Function evaluations after which ``minimize_bounded`` stops.
_MAX_EVALS = 500


def minimize_bounded(func: Callable[[float], float], lo: float, hi: float,
                     xatol: float, start) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi]; returns (x, func(x)).

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5): parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola's minimum falls outside the
    bracket or does not halve the step before last.  No point closer than
    sqrt(eps) |x| + xatol/3 to one already evaluated is tried.  ``func``
    may return inf, which the search treats as a wall.

    ``start`` holds one to three (x, f) pairs the caller has evaluated,
    the best of them in [lo, hi]; the others may lie outside.  The search
    opens with the parabola through them, the bracket width standing in
    for the steps before, and returns the best pair when no evaluation
    beats it.  One pair gives no parabola, so the first step is golden.
    Only a strict improvement replaces the best point: a tie narrows
    the bracket like any worse point, so that at a minimum flat to
    rounding the search does not follow rounding noise.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValueError("bounds must be finite with lo <= hi")
    evals = 0
    known = sorted(((float(p), float(f)) for p, f in start),
                   key=lambda pf: pf[1])
    known += known[-1:] * (3 - len(known))
    # x best so far, w second best, v the previous w
    (x, fx), (w, fw), (v, fv) = known[:3]
    if not a <= x <= b:
        raise ValueError("the best start point must lie in [lo, hi]")
    step = last = b - a
    mid = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - mid) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(last) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv)
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, last = last, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                step = (p + 0.0) / q    # + 0.0: a zero step is +0.0
                u = x + step
                if (u - a) < tol2 or (b - u) < tol2:
                    step = math.copysign(tol1, mid - x)
            else:
                golden = True
        if golden:
            last = (a - x) if x >= mid else (b - x)
            step = _GOLDEN * last
        u = x + math.copysign(max(abs(step), tol1), step)
        fu = func(u)
        evals += 1
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= _MAX_EVALS:
            break
    return x, fx
