"""Scalar special functions and small dense linear-algebra helpers.

The hyperbolic ratio functions sinhc(x) = sinh(x)/x and tanhc(x) = tanh(x)/x
are extended by 1 at x = 0 and switch to short series below |x| = 1e-4,
where direct division loses accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_SERIES_CUT = 1e-4


def sinhc(x: np.ndarray | float) -> np.ndarray | float:
    """sinh(x)/x with the removable singularity filled by its series."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 6.0 + x**4 / 120.0, np.sinh(xs) / xs)
    return out if out.ndim else float(out)


def tanhc(x: np.ndarray | float) -> np.ndarray | float:
    """tanh(x)/x, valued in (0, 1] on the reals."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 3.0 + 2.0 * x**4 / 15.0,
                   np.tanh(xs) / xs)
    return out if out.ndim else float(out)


def lncosh(x: np.ndarray | float) -> np.ndarray | float:
    """log(cosh(x)) without overflow for large |x| and to full relative
    precision for small |x|, as log1p(2 sinh(x/2)^2)."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(a, 1.0)) ** 2)
    out = np.where(a < 1.0, small, a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0))
    return out if out.ndim else float(out)


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average with the conjugate transpose (stacks allowed)."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def skew_hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))


def sqrtm_spd(m: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix.

    Rejects matrices whose smallest eigenvalue falls below ``floor`` times
    the largest, since downstream formulas require a nonsingular root.
    """
    w, v = np.linalg.eigh(symmetrize(m))
    if w[0] <= floor * max(w[-1], 0.0):
        raise ParameterError(
            f"matrix is not positive definite: eigenvalue range [{w[0]:g}, {w[-1]:g}]")
    return symmetrize((v * np.sqrt(w)) @ v.T)


def solve_ale(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the algebraic Lyapunov equation A X + X A' + Q = 0.

    Dense Kronecker vectorization; the state dimensions here are small
    enough that the O(n^6) solve is immaterial.  The solution inherits
    the (anti)symmetry of Q through uniqueness.
    """
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    x = np.linalg.solve(lhs, -q.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


def apply_herm(func_of_eig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reassemble V diag(f) V* for stacked Hermitian eigendecompositions."""
    return (v * func_of_eig[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
