"""Frequency meshes and deterministic quadrature for spectral integrals.

All half-line integrals in the package run on a uniform mesh over
[0, cutoff] with composite Simpson weights, doubled by the symmetry of the
integrands, plus one analytic high-frequency tail rule.  Sums are
accumulated with exact compensated summation so results do not depend on
reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class QuadratureConfig:
    """Mesh settings for the frequency-domain integrals.

    Attributes
    ----------
    cutoff:
        Upper end of the resolved frequency range (rad/time).
    step:
        Requested mesh step; the actual step is rounded so that an even
        number of intervals lands exactly on the cutoff.
    """

    cutoff: float = 100.0
    step: float = 0.005

    def __post_init__(self):
        if self.cutoff <= 0 or self.step <= 0:
            raise ParameterError("cutoff and step must be positive")
        if self.step > self.cutoff / 8:
            raise ParameterError("step must be much smaller than cutoff")

    @classmethod
    def for_system(cls, ss, step_scale: float = 0.005) -> "QuadratureConfig":
        """Defaults matched to the system's spectral content.

        The cutoff sits an order of magnitude beyond the fastest drift
        eigenvalue (at least 100 rad/time) and the step scales with it,
        resolving resonance peaks whose width is set by the damping.
        """
        rad = float(np.max(np.abs(np.linalg.eigvals(ss.a))))
        cutoff = max(100.0, 10.0 * rad)
        step = step_scale * (cutoff / 100.0)
        return cls(cutoff=cutoff, step=step)

    @property
    def n_intervals(self) -> int:
        n = int(math.ceil(self.cutoff / self.step))
        return n + (n % 2)

    def lambdas(self) -> np.ndarray:
        """Mesh nodes on [0, cutoff], inclusive, even interval count."""
        return np.linspace(0.0, self.cutoff, self.n_intervals + 1)

    def simpson_weights(self) -> np.ndarray:
        n = self.n_intervals
        h = self.cutoff / n
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)

    def trapezoid_weights(self) -> np.ndarray:
        n = self.n_intervals
        h = self.cutoff / n
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
        return w

    def half_line(self, values: np.ndarray, lead: float) -> tuple[float, float]:
        """Integral over [0, inf) of an integrand sampled on the mesh.

        ``lead`` is the coefficient of the integrand's 1/lambda^2
        asymptote.  Beyond the cutoff the rule integrates that asymptote
        plus a 1/lambda^4 term whose coefficient is read off from the
        residual at the cutoff node; the integrands here have only even
        powers in their large-lambda expansions, so this removes the
        leading truncation error.  Returns (integral, tail part).
        """
        c = self.cutoff
        tail = lead / c + (float(values[-1]) - lead / c ** 2) * c / 3.0
        return weighted_sum(self.simpson_weights(), values) + tail, tail


def weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """Order-independent compensated sum of weights * values."""
    return math.fsum(np.asarray(weights, dtype=float)
                     * np.asarray(values, dtype=float))
