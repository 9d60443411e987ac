"""Composite Gauss-Kronrod rule for the half-line frequency integrals.

Every frequency integral in the package is an integral over [0, inf) of
an even integrand that decays like 1/lambda^2.  It is evaluated by one
rule: 15-point Kronrod panels on [0, cutoff], plus one more panel that
maps t in (0, 1] to lambda = cutoff / t.  The mapped integrand
cutoff/t^2 * f(cutoff/t) is smooth at t = 0 (the integrands expand in
even powers of 1/lambda), so the tail needs no asymptote.  Each panel
embeds the 7-point Gauss rule, and the sum over panels of
|Kronrod - Gauss| is the error estimate.

``QuadratureConfig.for_system`` breaks the panels at the drift
resonances, where the integrands peak; a hand-built configuration has
uniform panels sized by its ``step``.  Integrals are accumulated with
exact compensated summation so results do not depend on reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

# Kronrod 15-point nodes on [-1, 1] (x >= 0 half; odd positions are the
# Gauss 7-point nodes), with the Kronrod and Gauss weights (QUADPACK qk15)
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082,
                0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975,
                0.0, 0.417959183673469387755102040816327])

#: Ascending Kronrod nodes, Kronrod weights and Kronrod-minus-Gauss
#: weights of one panel on [-1, 1].
KRONROD_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_DIFF_WEIGHTS = KRONROD_WEIGHTS - np.concatenate([_WG[:-1], _WG[::-1]])
PANEL_NODES = len(KRONROD_NODES)

#: Levels of halving of the resonance width inside each resonance: the
#: lam_max(Phi) peak, where the log-det integrand steepens as theta
#: approaches theta0, lies within that width.
INNER_LEVELS = 2


class HalfLine(NamedTuple):
    """Integral over [0, inf), the part over [cutoff, inf), and the
    Gauss-Kronrod error estimate."""

    value: float
    tail: float
    error: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel layout of the frequency rule.

    Attributes
    ----------
    cutoff:
        Frequency (rad/time) where the mapped tail panel takes over.
    step:
        Node spacing of uniform panels: each 15-node panel is at most
        15 * step wide, so [0, cutoff] carries about cutoff / step nodes.
        Used when ``edges`` is empty.
    edges:
        Interior panel edges in (0, cutoff); edges at or beyond the cutoff
        are ignored, and panels double in width from the last edge up to
        a cutoff more than twice beyond it.  Empty: uniform panels.
    """

    cutoff: float = 100.0
    step: float = 0.005
    edges: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.cutoff < math.inf and 0.0 < self.step < math.inf):
            raise ParameterError("cutoff and step must be positive and finite")
        if self.step > self.cutoff / 8:
            raise ParameterError("step must be much smaller than cutoff")

    @classmethod
    def for_system(cls, ss, step_scale: float = 0.005) -> "QuadratureConfig":
        """Panels broken at the system's drift resonances.

        The cutoff sits an order of magnitude beyond the fastest drift
        eigenvalue (at least 100 rad/time).  A drift eigenvalue mu puts a
        pole of the integrands at distance d = |Re mu| from the frequency
        axis at c = |Im mu|, so the panel edges c and c +- d 2^j
        (j >= -INNER_LEVELS) keep every panel no wider than its distance
        from every pole.  ``step`` (``step_scale`` times cutoff/100)
        is kept for a uniform override.
        """
        mu = ss.drift_eigenvalues
        rad = float(np.max(np.abs(mu)))
        cutoff = max(100.0, 10.0 * rad)
        edges = set()
        for c, d in zip(np.abs(mu.imag), np.abs(mu.real)):
            edges.add(float(c))
            s = d * 2.0 ** -INNER_LEVELS
            while s < cutoff:
                edges.update((float(c - s), float(c + s)))
                s *= 2.0
        return cls(cutoff=cutoff, step=step_scale * (cutoff / 100.0),
                   edges=tuple(sorted(e for e in edges if 0.0 < e < cutoff)))

    @property
    def rule(self) -> str:
        """Name of the rule and of its panel layout."""
        layout = "resonance" if self.edges else "uniform"
        return f"gauss-kronrod-15/{layout}"

    @cached_property
    def _panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, Kronrod weights and Kronrod-minus-Gauss weights, ascending
        in frequency, panel by panel, with the mapped tail panel last."""
        if self.edges:
            inner = sorted(e for e in self.edges if 0.0 < e < self.cutoff)
            # a cutoff raised past the edges: panels double up to it
            while inner and 2.0 * inner[-1] < self.cutoff:
                inner.append(2.0 * inner[-1])
            bounds = np.unique(np.array([0.0, *inner, self.cutoff]))
        else:
            n = int(math.ceil(self.cutoff / (PANEL_NODES * self.step)))
            bounds = np.linspace(0.0, self.cutoff, n + 1)
        mid = 0.5 * (bounds[1:] + bounds[:-1])[:, None]
        half = 0.5 * (bounds[1:] - bounds[:-1])[:, None]
        t = 0.5 * (1.0 + KRONROD_NODES[::-1])          # descending in (0, 1)
        jac = 0.5 * self.cutoff / t ** 2
        nodes = np.concatenate([(mid + half * KRONROD_NODES).ravel(),
                                self.cutoff / t])
        weights = np.concatenate([(half * KRONROD_WEIGHTS).ravel(),
                                  jac * KRONROD_WEIGHTS[::-1]])
        diffs = np.concatenate([(half * _DIFF_WEIGHTS).ravel(),
                                jac * _DIFF_WEIGHTS[::-1]])
        return nodes, weights, diffs

    @property
    def n_intervals(self) -> int:
        """Gaps between consecutive nodes: one less than the node count."""
        return len(self._panels[0]) - 1

    def lambdas(self) -> np.ndarray:
        """Rule nodes, ascending in (0, inf)."""
        return self._panels[0].copy()

    def half_line(self, values: np.ndarray) -> HalfLine:
        """Integral over [0, inf) of an integrand sampled at ``lambdas()``."""
        nodes, weights, diffs = self._panels
        values = np.asarray(values, dtype=float)
        if values.shape != nodes.shape:
            raise ParameterError(f"{values.shape[0]} samples for a rule of "
                                 f"{len(nodes)} nodes")
        per_panel = (diffs * values).reshape(-1, PANEL_NODES).sum(axis=1)
        tail = float(np.dot(weights[-PANEL_NODES:], values[-PANEL_NODES:]))
        return HalfLine(value=weighted_sum(weights, values), tail=tail,
                        error=float(np.sum(np.abs(per_panel))))


def weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """Order-independent compensated sum of weights * values."""
    return math.fsum(np.asarray(weights, dtype=float)
                     * np.asarray(values, dtype=float))
