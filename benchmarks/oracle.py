"""Mesh-free state-space references for the benchmark's correctness gate.

These are the benchmark's own oracles, independent of the frequency mesh
the library integrates on:

* V(theta) = (theta/2) Tr(B' X B), X the stabilizing solution of
  A'X + XA + Pi + theta X B B' X = 0 (the H-infinity entropy identity),
  solved as a CARE with R = -I/theta;
* theta0 = 1/||F||_inf^2 with F(s) = S (sI - A)^{-1} B, S = sqrt(Pi),
  by bisection on whether the Hamiltonian matrix of the gain level has
  eigenvalues on the imaginary axis.

``self_check`` verifies both against the closed-form scalar surrogate
A = -I, B = 1.2 I, Pi = I before any workload runs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvals, solve_continuous_are, sqrtm

#: Closed-form surrogate: A = -a I, B = g I, Pi = I on two channels.
SURROGATE_A = 1.0
SURROGATE_G = 1.2


def classical_v(a, b, pi, theta: float) -> float:
    """Entropy integral V(theta) from the stabilizing CARE solution."""
    n, m = b.shape
    x = solve_continuous_are(a, b, pi, -np.eye(m) / theta)
    return 0.5 * theta * float(np.trace(b.T @ x @ b))


def _weight_root(pi) -> np.ndarray:
    root = np.real(sqrtm(pi))
    return 0.5 * (root + root.T)


def _sigma_max_at(a, b, s, lam: float) -> float:
    n = a.shape[0]
    f = s @ np.linalg.solve(1j * lam * np.eye(n) - a, b)
    return float(np.linalg.svd(f, compute_uv=False)[0])


def _has_imaginary_eigs(a, b, s, gamma: float) -> bool:
    """True when the Hamiltonian of gain level gamma touches the axis."""
    c = s
    ham = np.block([[a, (b @ b.T) / gamma ** 2],
                    [-(c.T @ c), -a.T]])
    ev = eigvals(ham)
    scale = max(1.0, float(np.max(np.abs(ev))))
    return bool(np.any(np.abs(ev.real) <= 1e-8 * scale))


def theta_threshold(a, b, pi, iterations: int = 200) -> float:
    """1/||F||_inf^2 by bisection on the Hamiltonian imaginary-axis test."""
    s = _weight_root(pi)
    rad = float(np.max(np.abs(np.linalg.eigvals(a))))
    probes = [0.0] + [rad * f for f in (0.25, 0.5, 1.0, 2.0)]
    probes += [float(abs(e.imag)) for e in np.linalg.eigvals(a)]
    lo = max(_sigma_max_at(a, b, s, lam) for lam in probes)
    hi = 2.0 * lo
    while _has_imaginary_eigs(a, b, s, hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _has_imaginary_eigs(a, b, s, mid):
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)
    return 1.0 / gamma ** 2


def surrogate_closed_form(theta: float):
    """Exact (V, theta0) of the scalar surrogate on two channels."""
    a, g = SURROGATE_A, SURROGATE_G
    v = a * (1.0 - np.sqrt(1.0 - theta * g * g / (a * a)))
    return float(v), a * a / (g * g)


def self_check() -> dict:
    """Compare both oracles with the surrogate's closed forms.

    Returns the relative deviations; raises RuntimeError if either oracle
    misses (1e-12 for theta0, 1e-10 for V), because every later verdict
    of the gate rests on them.
    """
    a = -SURROGATE_A * np.eye(2)
    b = SURROGATE_G * np.eye(2)
    pi = np.eye(2)
    _, theta0_exact = surrogate_closed_form(0.0)
    dev_theta0 = abs(theta_threshold(a, b, pi) - theta0_exact) / theta0_exact
    dev_v = 0.0
    for frac in (0.1, 0.5, 0.9, 0.99):
        theta = frac * theta0_exact
        v_exact, _ = surrogate_closed_form(theta)
        dev_v = max(dev_v, abs(classical_v(a, b, pi, theta) - v_exact) / v_exact)
    if dev_theta0 > 1e-12 or dev_v > 1e-10:
        raise RuntimeError(f"oracle self-check failed: theta0 dev {dev_theta0:.3e}, "
                           f"V dev {dev_v:.3e}")
    return {"theta0_rel_dev": dev_theta0, "v_rel_dev": dev_v}
