"""Transfer function, spectral densities and their matrix trigonometry.

For a validated model the transfer function is F(v) = S (vI - A)^{-1} B.
On the imaginary axis it generates the two spectral functions

    Phi(lambda) = F(i lambda) F(i lambda)*          (Hermitian, PSD),
    Psi(lambda) = F(i lambda) J F(i lambda)*        (skew-Hermitian),

whose sum Phi + i Psi is the spectral density of the weighted system
process.  Trigonometric functions of theta*Psi are always evaluated
through the Hermitian matrix H = i Psi, on which they become hyperbolic
functions with real spectra:

    cos(theta Psi)  = cosh(theta H),
    sinc(theta Psi) = sinhc(theta H),
    tanc(theta Psi) = tanhc(theta H).

This keeps every eigensolve on the Hermitian path and makes the outputs
Hermitian by construction.

Every theta-independent step is done once per model and quadrature rule.
``grid_for`` samples the model's spectral grid on the rule's nodes the
first time it is asked for and keeps it on the (immutable) model; the
grid in turn caches eig(H), eig(Phi) and Phi in the eigenbasis of H, so a
further risk parameter costs only the scalar functions of theta*w and one
stacked Hermitian eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._funcs import apply_herm, hermitize, sinhc, skew_hermitize, tanhc
from .errors import SingularityError
from .model import StateSpace
from .quadrature import QuadratureConfig

__all__ = [
    "SpectralSample", "SpectralGrid", "TrigBundle",
    "transfer", "spectral_sample", "sample_grid", "grid_for", "trig_bundle",
]

#: Attribute of a ``StateSpace`` holding its cached (rule, grid) pair.
_GRID_SLOT = "_spectral_grid"


@dataclass(frozen=True)
class SpectralSample:
    """Spectral data at a single frequency."""

    lam: float
    f_val: np.ndarray        # transfer function F(i lam), n x m
    phi: np.ndarray          # Hermitian PSD
    psi: np.ndarray          # skew-Hermitian
    h: np.ndarray            # i * psi, Hermitian

    def mirrored(self) -> "SpectralSample":
        """The sample at -lam, by the reality symmetries
        Phi(-lam) = conj(Phi(lam)) and Psi(-lam) = conj(Psi(lam))."""
        return SpectralSample(lam=-self.lam, f_val=np.conj(self.f_val),
                              phi=np.conj(self.phi), psi=np.conj(self.psi),
                              h=-np.conj(self.h))


@dataclass(frozen=True)
class SpectralGrid:
    """Stacked spectral samples over a frequency mesh.

    ``phi``, ``psi`` and ``h`` have shape (n_freq, n, n).

    The theta-independent eigendecompositions ``h_eigh`` and
    ``phi_eigvals``, and ``phi_rot``, are computed on first use and cached
    on the instance; ``dataclasses.replace`` builds a new instance with
    empty caches.
    """

    lambdas: np.ndarray
    f_val: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    h: np.ndarray

    def sample(self, k: int) -> SpectralSample:
        return SpectralSample(lam=float(self.lambdas[k]), f_val=self.f_val[k],
                              phi=self.phi[k], psi=self.psi[k], h=self.h[k])

    @cached_property
    def h_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked eigenpairs (w, v) of the Hermitian H = i Psi."""
        return np.linalg.eigh(self.h)

    @cached_property
    def phi_rot(self) -> np.ndarray:
        """Phi in the eigenbasis of H, V* Phi V with V from ``h_eigh``.

        For r = sqrt(tanhc(theta w)) the stack r_i r_j (V* Phi V)_ij is
        unitarily similar to sqrt(tanc) Phi sqrt(tanc), the per-theta
        factor of the log-determinant.
        """
        v = self.h_eigh[1]
        return hermitize(np.conj(np.swapaxes(v, -1, -2)) @ self.phi @ v)

    @cached_property
    def phi_eigvals(self) -> np.ndarray:
        """Stacked ascending eigenvalues of Phi."""
        return np.linalg.eigvalsh(self.phi)


@dataclass(frozen=True)
class TrigBundle:
    """cos, sinc and tanc of theta*Psi at one frequency."""

    cos_tp: np.ndarray
    sinc_tp: np.ndarray
    tanc_tp: np.ndarray
    theta: float


def transfer(ss: StateSpace, v: complex) -> np.ndarray:
    """Evaluate F(v) = S (vI - A)^{-1} B by a dense linear solve.

    Raises SingularityError when v is within 1e-12 (relative) of an
    eigenvalue of the drift; this cannot happen on the imaginary axis
    because the drift is Hurwitz.
    """
    eig = np.linalg.eigvals(ss.a)
    if np.min(np.abs(eig - v)) < 1e-12 * (1.0 + abs(v)):
        raise SingularityError(f"evaluation point {v} is an eigenvalue of the drift")
    n = ss.n
    return ss.s_half @ np.linalg.solve(v * np.eye(n) - ss.a, ss.b)


def spectral_sample(ss: StateSpace, lam: float) -> SpectralSample:
    """Spectral pair at one frequency: a one-node ``sample_grid``.

    Negative frequencies are produced by mirroring the positive-frequency
    sample, so the reality symmetries hold exactly.
    """
    sample = sample_grid(ss, np.array([abs(lam)])).sample(0)
    return sample.mirrored() if lam < 0 else sample


def sample_grid(ss: StateSpace, lambdas: np.ndarray) -> SpectralGrid:
    """Vectorized spectral pair over a frequency mesh."""
    lambdas = np.asarray(lambdas, dtype=float)
    n = ss.n
    eye = np.eye(n)
    resolvent_rhs = np.broadcast_to(ss.b, (len(lambdas), n, ss.m))
    f = ss.s_half @ np.linalg.solve(
        1j * lambdas[:, None, None] * eye - ss.a, resolvent_rhs)
    fh = np.conj(np.swapaxes(f, 1, 2))
    phi = hermitize(f @ fh)
    psi = skew_hermitize(f @ ss.j @ fh)
    return SpectralGrid(lambdas=lambdas, f_val=f, phi=phi, psi=psi,
                        h=hermitize(1j * psi))


def grid_for(ss: StateSpace, cfg: QuadratureConfig) -> SpectralGrid:
    """The model's spectral grid at the nodes of the rule ``cfg``.

    Sampled on the first request and stored on the model, the way
    ``functools.cached_property`` stores values on an instance; the
    model's arrays are read-only, so the grid cannot go stale.  A model
    keeps one grid: a request for another rule samples again and replaces
    it.
    """
    cached = vars(ss).get(_GRID_SLOT)
    if cached is None or cached[0] != cfg:
        cached = (cfg, sample_grid(ss, cfg.lambdas()))
        vars(ss)[_GRID_SLOT] = cached
    return cached[1]


def trig_bundle(sample: SpectralSample, theta: float) -> TrigBundle:
    """Matrix trig functions of theta*Psi via the Hermitian eigenpath."""
    w, v = np.linalg.eigh(sample.h)
    x = theta * w
    return TrigBundle(
        cos_tp=apply_herm(np.cosh(x), v),
        sinc_tp=apply_herm(np.asarray(sinhc(x)), v),
        tanc_tp=apply_herm(np.asarray(tanhc(x)), v),
        theta=float(theta),
    )
