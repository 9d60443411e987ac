"""Shared fixtures: the two-mode example, cheap meshes, surrogate models,
and a deterministic pool of random stable models."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

import qefrate as q
from qefrate.errors import DegeneracyError, StabilityError
from qefrate.model import BJ2, build_j_matrix


@pytest.fixture(scope="session")
def twomode() -> q.StateSpace:
    return q.two_mode_example()


@pytest.fixture(scope="session")
def cfg_full(twomode) -> q.QuadratureConfig:
    return q.QuadratureConfig.for_system(twomode)


@pytest.fixture(scope="session")
def cfg_coarse() -> q.QuadratureConfig:
    return q.QuadratureConfig(cutoff=100.0, step=0.05)


@pytest.fixture(scope="session")
def grid_full(twomode, cfg_full) -> q.SpectralGrid:
    return q.sample_grid(twomode, cfg_full.lambdas())


@pytest.fixture(scope="session")
def theta0(twomode, cfg_full) -> float:
    return q.theta_threshold(twomode, cfg_full)


# Classical surrogate: A = -a I, B = g I, Pi = I.  Realizable with
# commutation matrix g^2/(2a) * BJ2, spectral density g^2/(a^2+lam^2) I,
# classical threshold a^2/g^2 and closed-form entropy integral
# a (1 - sqrt(1 - theta g^2/a^2)) over the two identical channels.
SURROGATE_A = 1.0
SURROGATE_G = 1.2


def surrogate_v_closed(theta: float, a: float = SURROGATE_A,
                       g: float = SURROGATE_G) -> float:
    return a * (1.0 - np.sqrt(1.0 - theta * g * g / (a * a)))


def care_v(ss: q.StateSpace, theta: float) -> float:
    """Mesh-free V(theta) = (theta/2) Tr(B' X B), X the stabilizing
    solution of A'X + XA + Pi + theta X B B' X = 0 (R = -I/theta)."""
    x = solve_continuous_are(ss.a, ss.b, ss.weight, -np.eye(ss.m) / theta)
    return 0.5 * theta * float(np.trace(ss.b.T @ x @ ss.b))


def single_mode(damping: float, freq: float = 1.0) -> q.StateSpace:
    """One lightly damped mode: A = -damping I + freq [[0, 1], [-1, 0]],
    B = sqrt(2 damping) I, Pi = I."""
    a = np.array([[-damping, freq], [-freq, -damping]])
    return q.from_state_space(a, np.sqrt(2.0 * damping) * np.eye(2),
                              np.eye(2))


@pytest.fixture(scope="session")
def surrogate() -> q.StateSpace:
    a, g = SURROGATE_A, SURROGATE_G
    return q.from_state_space(-a * np.eye(2), g * np.eye(2), np.eye(2))


@pytest.fixture(scope="session")
def onemode_params() -> q.OneModeParams:
    r = np.array([[1.3, 0.2], [0.2, 0.9]])
    m_mat = np.array([[0.7, -0.3],
                      [0.2, 1.1],
                      [-0.5, 0.4],
                      [0.9, 0.6]])
    j = build_j_matrix(4)
    if (m_mat.T @ j @ m_mat)[0, 1] < 0:
        m_mat = m_mat @ np.diag([1.0, -1.0])
    return q.OneModeParams.from_matrices(r, m_mat)


@pytest.fixture(scope="session")
def onemode_ss(onemode_params) -> q.StateSpace:
    from qefrate.onemode import to_state_space
    return to_state_space(onemode_params)


def make_random_model(rng: np.random.Generator, n: int | None = None):
    """One random stable realizable model, or None if the draw is unstable.

    The state dimension is drawn from {2, 4} unless ``n`` is given.
    """
    if n is None:
        n = int(rng.choice([2, 4]))
    m = int(rng.choice([2, 4, 6]))
    if n == 2:
        theta = float(rng.uniform(0.3, 1.5)) * BJ2
    else:
        raw = rng.normal(size=(n, n))
        theta = 0.5 * (raw - raw.T)
        if np.min(np.abs(np.linalg.eigvals(theta))) < 0.05:
            return None
    r = rng.normal(size=(n, n))
    r = 0.5 * (r + r.T)
    m_mat = rng.normal(size=(m, n))
    gpi = rng.normal(size=(n, n))
    pi = gpi @ gpi.T + 0.5 * np.eye(n)
    try:
        return q.realize(q.OqhoParams(theta_ccr=theta, energy=r,
                                      coupling=m_mat, weight=pi))
    except (StabilityError, DegeneracyError):
        return None


@pytest.fixture(scope="session")
def random_models() -> list[q.StateSpace]:
    """Exactly 50 random stable models, deterministic across runs."""
    rng = np.random.default_rng(20260808)
    models = []
    while len(models) < 50:
        ss = make_random_model(rng)
        if ss is not None:
            models.append(ss)
    return models
