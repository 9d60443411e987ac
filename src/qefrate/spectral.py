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

``SpectralGrid`` is the one spectral type: a frequency mesh of any size,
a single frequency being a one-node grid.  ``sample_grid`` samples |lambda|
and obtains negative frequencies by the reality symmetries
Phi(-lambda) = conj Phi(lambda) and Psi(-lambda) = conj Psi(lambda), so
they hold exactly.  The grid stores Phi and Psi only; H = i Psi is formed
when its eigendecomposition is first asked for, so it always matches the
Psi it holds.  ``SpectralGrid.trig`` evaluates cos, sinc and tanc of
theta*Psi over the whole stack from the cached eig(H).

Every theta-independent step is done once per model and quadrature rule.
``grid_for`` samples the model's spectral grid on the rule's nodes the
first time it is asked for and keeps it on the (immutable) model; the
grid in turn caches eig(H) (its eigenvalues also node-last), eig(Phi),
Phi in the eigenbasis of H and, once the small-theta expansion is asked
for, the eigenvalues of Phi with the diagonal of Psi^2 in their
eigenbasis.  A further risk parameter then costs elementwise work on
(n, n_freq) arrays (``qefrate.rate``):

* Upsilon: one pass of tanhc and lncosh over theta*w, one stacked
  L D L* factorization, and eigensolves of the few nodes that can hold
  the feasibility margin;
* the small-theta expansion: a ratio of the Phi eigenvalues times the
  cached diagonal, summed;
* the tail and worst-case bounds: Upsilon on their theta grid, integrated
  once and kept on the grid for every later bound on the same theta
  grid, then per bound a few more values from a parabolic search started
  on the grid's three best-placed samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._funcs import apply_herm, hermitize, sinhc, skew_hermitize, tanhc
from .errors import SingularityError
from .model import StateSpace
from .quadrature import QuadratureConfig

__all__ = ["SpectralGrid", "transfer", "sample_grid", "grid_for"]

#: Attribute of a ``StateSpace`` holding its cached (rule, grid) pair.
_GRID_SLOT = "_spectral_grid"


@dataclass(frozen=True)
class SpectralGrid:
    """Stacked spectral samples over a frequency mesh.

    ``phi`` and ``psi`` have shape (n_freq, n, n); the Hermitian
    H = i Psi is not stored but formed for its eigendecomposition.

    The theta-independent eigendecompositions ``h_eigh``,
    ``phi_eigvals`` and ``phi_psi_sq``, and ``h_eigvals_t`` and
    ``phi_rot``, are computed on first use and cached on the instance,
    as is the bounds' Upsilon curve over their last theta grid
    (``qefrate.rate``); ``dataclasses.replace`` builds a new instance with
    empty caches.
    """

    lambdas: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @cached_property
    def h_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked eigenpairs (w, v) of the Hermitian H = i Psi."""
        return np.linalg.eigh(1j * self.psi)

    @cached_property
    def h_eigvals_t(self) -> np.ndarray:
        """Eigenvalues w of H, shape (n, n_freq): contiguous with the node
        axis last, the layout of the per-theta scalar functions of theta*w
        and of the sweep over ``phi_rot``."""
        return np.ascontiguousarray(self.h_eigh[0].T)

    @cached_property
    def phi_rot(self) -> np.ndarray:
        """Phi in the eigenbasis of H, V* Phi V with V from ``h_eigh``.

        For r = sqrt(tanhc(theta w)) the stack r_i r_j (V* Phi V)_ij is
        unitarily similar to sqrt(tanc) Phi sqrt(tanc), the per-theta
        factor of the log-determinant.  The stack is stored with the node
        axis last, each entry contiguous over frequency, the layout in
        which that factor is swept; the shape is (n_freq, n, n) as for
        ``phi``.
        """
        v = self.h_eigh[1]
        rot = hermitize(np.conj(np.swapaxes(v, -1, -2)) @ self.phi @ v)
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(rot, 0, -1)),
                           -1, 0)

    @cached_property
    def phi_eigvals(self) -> np.ndarray:
        """Stacked ascending eigenvalues of Phi."""
        return np.linalg.eigvalsh(self.phi)

    @cached_property
    def phi_psi_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked eigenvalues phi_i of Phi, with d_i = (U* Psi^2 U)_ii for
        the eigenvectors U of Phi.

        Psi is skew-Hermitian, so d_i = -|Psi u_i|^2 is real and
        nonpositive, and Tr(f(Phi) Psi^2) = sum_i f(phi_i) d_i for any
        scalar function f.  Solved for eigenvectors only here, so that a
        grid used for Upsilon alone pays for eigenvalues only.
        """
        phi_w, u = np.linalg.eigh(self.phi)
        return phi_w, -np.sum(np.abs(self.psi @ u) ** 2, axis=-2)

    def trig(self, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked cos, sinc and tanc of theta*Psi, in that order.

        Evaluated as cosh, sinhc and tanhc of theta*H on the cached
        ``h_eigh``.  ``theta`` is a scalar or holds one value per node.
        """
        w, v = self.h_eigh
        x = np.asarray(theta, dtype=float)[..., None] * w
        return (apply_herm(np.cosh(x), v), apply_herm(sinhc(x), v),
                apply_herm(tanhc(x), v))


def transfer(ss: StateSpace, v: complex) -> np.ndarray:
    """Evaluate F(v) = S (vI - A)^{-1} B by a dense linear solve.

    Raises SingularityError when v is within 1e-12 (relative) of an
    eigenvalue of the drift (the model's stored spectrum); this cannot
    happen on the imaginary axis because the drift is Hurwitz.
    """
    if np.min(np.abs(ss.drift_eigenvalues - v)) < 1e-12 * (1.0 + abs(v)):
        raise SingularityError(f"evaluation point {v} is an eigenvalue of the drift")
    n = ss.n
    return ss.s_half @ np.linalg.solve(v * np.eye(n) - ss.a, ss.b)


def sample_grid(ss: StateSpace, lambdas) -> SpectralGrid:
    """Vectorized spectral pair over a frequency mesh.

    Each node is sampled at |lambda|; a negative node stores conj Phi and
    conj Psi of that sample, so the reality symmetries hold exactly.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = ss.n
    eye = np.eye(n)
    resolvent_rhs = np.broadcast_to(ss.b, (len(lambdas), n, ss.m))
    f = ss.s_half @ np.linalg.solve(
        1j * np.abs(lambdas)[:, None, None] * eye - ss.a, resolvent_rhs)
    fh = np.conj(np.swapaxes(f, 1, 2))
    phi = hermitize(f @ fh)
    psi = skew_hermitize(f @ ss.j @ fh)
    neg = lambdas < 0
    if neg.any():
        phi[neg] = np.conj(phi[neg])
        psi[neg] = np.conj(psi[neg])
    return SpectralGrid(lambdas=lambdas, phi=phi, psi=psi)


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
