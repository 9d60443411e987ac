"""Closed forms for single-mode oscillators with the weight equal to the
energy matrix.

For one position-momentum pair the commutation matrix is BJ2/2 and every
coupling matrix M satisfies M' J M = mu * BJ2 for a scalar mu, assumed
positive.  With nu the square root of det R, the drift is similar to a
rotation-damping block,

    A = R^{-1/2} (nu BJ2 - mu I) sqrt(R),   eigenvalues -mu +/- i nu,

and, when the cost weight equals R, the rational continuation of the
commutator spectrum collapses to two scalar functions:

    Mho(s) = a(s) I + b(s) BJ2,
    [a, b] = mu nu / (((s+mu)^2 + nu^2)((mu-s)^2 + nu^2)) * [2 nu s,
                                                             mu^2+nu^2-s^2],

with poles at mu +/- i nu and -mu +/- i nu.  Trigonometric functions of
theta*Mho then reduce to scalar sin/cos/sinh/cosh combinations.  These
closed forms provide an independent oracle for the generic spectral
pipeline.  They take a scalar point s or an array of points, and return
one value or 2x2 matrix per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._funcs import apply_herm, sinhc, sqrtm_spd
from .errors import DimensionError, ParameterError, SingularityError, StructureError
from .model import BJ2, OqhoParams, StateSpace, build_j_matrix, realize
from .spectral import sample_grid

__all__ = ["OneModeParams", "extract_mu", "onemode_drift", "ab_functions",
           "onemode_trig", "poles", "residue_at", "to_state_space",
           "random_params", "generic_deviation"]


@dataclass(frozen=True)
class OneModeParams:
    """Single-mode parameters: coupling scalar, frequency, energy, coupling."""

    mu: float
    nu: float
    r: np.ndarray
    m_mat: np.ndarray

    @classmethod
    def from_matrices(cls, r: np.ndarray, m_mat: np.ndarray) -> "OneModeParams":
        r = np.asarray(r, dtype=float)
        m_mat = np.asarray(m_mat, dtype=float)
        if r.shape != (2, 2):
            raise DimensionError("energy matrix must be 2x2")
        if np.any(np.linalg.eigvalsh(0.5 * (r + r.T)) <= 0):
            raise ParameterError("energy matrix must be positive definite")
        j = build_j_matrix(m_mat.shape[0])
        mu = extract_mu(m_mat, j)
        nu = float(np.sqrt(np.linalg.det(r)))
        return cls(mu=mu, nu=nu, r=r, m_mat=m_mat)


def extract_mu(m_mat: np.ndarray, j: np.ndarray) -> float:
    """Coupling scalar mu from M' J M = mu * BJ2.

    Any 2-column coupling produces a multiple of BJ2 here; deviations
    beyond tolerance indicate a malformed input, and nonpositive mu is
    outside the assumed regime.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.ndim != 2 or m_mat.shape[1] != 2:
        raise DimensionError("coupling matrix must have exactly 2 columns")
    mjm = m_mat.T @ j @ m_mat
    mu = float(mjm[0, 1])
    scale = max(abs(mu), 1.0)
    if np.linalg.norm(mjm - mu * BJ2) > 1e-12 * scale:
        raise StructureError("M' J M is not a multiple of the 2x2 "
                             "antisymmetric generator")
    if mu <= 0:
        raise ParameterError(f"coupling scalar must be positive, got {mu:g}")
    return mu


def onemode_drift(r: np.ndarray, mu: float) -> np.ndarray:
    """Drift matrix R^{-1/2} (nu BJ2 - mu I) sqrt(R), eigenvalues -mu +/- i nu."""
    r = np.asarray(r, dtype=float)
    root = sqrtm_spd(r)
    nu = float(np.sqrt(np.linalg.det(r)))
    return np.linalg.solve(root, (nu * BJ2 - mu * np.eye(2)) @ root)


def poles(mu: float, nu: float) -> np.ndarray:
    """The four poles of the rational spectral functions."""
    return np.array([mu + 1j * nu, mu - 1j * nu, -mu + 1j * nu, -mu - 1j * nu])


def ab_functions(mu: float, nu: float, s):
    """Scalar coefficients (a, b) of Mho(s) = a I + b BJ2, at each point s."""
    s = np.asarray(s, dtype=complex)
    if np.min(np.abs(poles(mu, nu)[:, None] - s.reshape(1, -1))) < 1e-10:
        raise SingularityError(f"evaluation point {s} is at a pole")
    denom = ((s + mu) ** 2 + nu ** 2) * ((mu - s) ** 2 + nu ** 2)
    factor = mu * nu / denom
    return factor * 2.0 * nu * s, factor * (mu ** 2 + nu ** 2 - s * s)


def _split(a, b) -> np.ndarray:
    """Stacked a I + b BJ2, one 2x2 matrix per entry of a and b."""
    return a[..., None, None] * np.eye(2) + b[..., None, None] * BJ2


def _mho(mu: float, nu: float, s) -> np.ndarray:
    """Mho(s) = a(s) I + b(s) BJ2, a 2x2 matrix per point s."""
    return _split(*ab_functions(mu, nu, s))


def onemode_trig(mu: float, nu: float, s, theta):
    """cos(theta Mho) and sin(theta Mho) from the scalar closed forms.

    Uses cos(z BJ2) = cosh(z) I and sin(z BJ2) = sinh(z) BJ2 together with
    the angle-sum identities on the commuting split a I + b BJ2.  ``theta``
    broadcasts against the points s.
    """
    a, b = ab_functions(mu, nu, s)
    ca, sa = np.cos(theta * a), np.sin(theta * a)
    cb, sb = np.cosh(theta * b), np.sinh(theta * b)
    return _split(ca * cb, -sa * sb), _split(sa * cb, ca * sb)


def residue_at(mu: float, nu: float, pole: complex, radius: float = 1e-3,
               nodes: int = 64) -> np.ndarray:
    """Residue of Mho at a pole by trapezoid quadrature on a small circle.

    The trapezoid rule is spectrally accurate on the circle; the returned
    2x2 matrix is singular at each of the four poles.
    """
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    points = pole + radius * np.exp(1j * angles)
    terms = _mho(mu, nu, points) * (points - pole)[:, None, None]
    return terms.sum(axis=0) / nodes


def to_state_space(params: OneModeParams) -> StateSpace:
    """Realize the single-mode model with weight equal to the energy matrix."""
    return realize(OqhoParams(theta_ccr=0.5 * BJ2, energy=params.r,
                              coupling=params.m_mat, weight=params.r))


def random_params(rng: np.random.Generator) -> OneModeParams:
    """A random single-mode model: energy G G' + I/2 for a normal 2x2 G,
    and a normal 4x2 coupling with a column sign flipped if needed so
    that mu is positive."""
    g = rng.normal(size=(2, 2))
    r = g @ g.T + 0.5 * np.eye(2)
    m_mat = rng.normal(size=(4, 2))
    if (m_mat.T @ build_j_matrix(4) @ m_mat)[0, 1] < 0:
        m_mat = m_mat @ np.diag([1.0, -1.0])
    return OneModeParams.from_matrices(r, m_mat)


def generic_deviation(params: OneModeParams, lams: np.ndarray,
                      thetas: np.ndarray) -> tuple[float, float]:
    """Largest entrywise deviations of the generic pipeline from the
    closed forms, as (psi, trig).

    ``psi`` compares Psi(lam) of the realized model with Mho(i lam);
    ``trig`` compares cos(theta Psi) and theta Psi sinc(theta Psi) with
    the closed-form cos and sin of theta Mho, at the paired entries of
    ``lams`` and ``thetas``.  One grid over |lam| is sampled, mirrored by
    conjugation where lam < 0 (as ``SpectralSample.mirrored`` does), and
    H = i Psi is solved in one stacked eigensolve.
    """
    lams = np.asarray(lams, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    grid = sample_grid(to_state_space(params), np.abs(lams))
    neg = (lams < 0)[:, None, None]
    psi = np.where(neg, np.conj(grid.psi), grid.psi)
    h = np.where(neg, -np.conj(grid.h), grid.h)
    closed = _mho(params.mu, params.nu, 1j * lams)
    dev_psi = float(np.max(np.abs(psi - closed)))
    w, v = np.linalg.eigh(h)
    x = thetas[:, None] * w
    cos_tp = apply_herm(np.cosh(x), v)
    sin_tp = thetas[:, None, None] * psi @ apply_herm(sinhc(x), v)
    cos_c, sin_c = onemode_trig(params.mu, params.nu, 1j * lams, thetas)
    dev_trig = max(float(np.max(np.abs(cos_tp - cos_c))),
                   float(np.max(np.abs(sin_tp - sin_c))))
    return dev_psi, dev_trig
