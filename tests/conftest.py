"""Shared fixtures: the two-mode example, cheap meshes on a uniform rule,
surrogate models, a deterministic pool of random stable models, a loader
for the benchmark's model generator, the independent references the tests
compare the library against, and a single step of the Riccati march."""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_are

import qefrate as q
from qefrate._funcs import check_theta, hermitize
from qefrate.errors import (DegeneracyError, FeasibilityError, NumericalError,
                            ParameterError, StabilityError)
from qefrate.homotopy import _guard_floor, _guarded_step, _RiccatiStack
from qefrate.model import BJ2, build_j_matrix
from qefrate.quadrature import PANEL_NODES
from qefrate.rate import _neg_log_det
from qefrate.spectral import SpectralGrid


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_module(name: str):
    """A module of the benchmark directory, loaded from its file once."""
    key = f"qefrate_bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the file executes
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.fixture(scope="session")
def twomode() -> q.StateSpace:
    return q.two_mode_example()


@pytest.fixture(scope="session")
def cfg_full(twomode) -> q.QuadratureConfig:
    return q.QuadratureConfig.for_system(twomode)


def uniform_rule(cutoff: float, step: float) -> q.QuadratureConfig:
    """The rule on equal panels at most 15 * step wide below the cutoff,
    about cutoff / step nodes: blind to resonances, so cheap and coarse.
    The last edge is at least cutoff / 2, so panels never double."""
    n = int(math.ceil(cutoff / (PANEL_NODES * step)))
    return q.QuadratureConfig(cutoff, np.linspace(0.0, cutoff, n + 1)[1:-1])


@pytest.fixture(scope="session")
def cfg_coarse() -> q.QuadratureConfig:
    return uniform_rule(100.0, 0.05)


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


#: Largest phase of the complex determinant's sign that ``log_det_d``
#: accepts as real.
PHASE_TOL = 1e-8


def log_det_d(grid: q.SpectralGrid, theta: float) -> float:
    """ln det D_theta at the one node of a one-node grid.

    Evaluated on the library's Hermitian split; the direct complex
    determinant is computed as well, from the same eigenbasis of H, and
    its phase asserted below ``PHASE_TOL``.  The value is even in both the
    frequency and the commutator sign, so a negative node is conjugated
    back first and evaluates identically.
    """
    check_theta(theta)
    if len(grid.lambdas) != 1:
        raise ParameterError(
            f"log_det_d takes a one-node grid, got {len(grid.lambdas)} nodes")
    if grid.lambdas[0] < 0:
        grid = q.SpectralGrid(lambdas=-grid.lambdas, phi=np.conj(grid.phi),
                              psi=np.conj(grid.psi))
    value = -float(_neg_log_det(grid, theta)[0])
    cos_tp, sinc_tp, _ = grid.trig(theta)
    sign, _ = np.linalg.slogdet(cos_tp[0] - theta * grid.phi[0] @ sinc_tp[0])
    if abs(np.angle(sign)) > PHASE_TOL:
        raise NumericalError(
            f"complex log-det drifted off the real axis: Im = {np.angle(sign):g}")
    return value


def contour_e(ss: q.StateSpace, s: complex, theta: float) -> np.ndarray:
    """Analytic continuation E_theta(s) of the log-det matrix off the axis.

    Uses the rational continuations Gamma(s) = F(s) F(-s)' and
    Mho(s) = F(s) J F(-s)', which restrict to Phi and Psi on the imaginary
    axis.  cos M and sinc M of the (generally non-normal) M = theta Mho(s)
    are the top blocks of one matrix exponential,

        exp [[0, I], [-M^2, 0]] = [[cos M, sinc M], [-M sin M, cos M]].

    Raises NumericalError when the result is not finite.
    """
    check_theta(theta)
    f_pos = q.transfer(ss, s)
    f_neg = q.transfer(ss, -s)
    gamma = f_pos @ f_neg.T
    n = ss.n
    generator = np.zeros((2 * n, 2 * n), dtype=complex)
    generator[:n, n:] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        m = theta * (f_pos @ ss.j @ f_neg.T)
        generator[n:, :n] = -(m @ m)
        trig = expm(generator)
        e_mat = trig[:n, :n] - theta * gamma @ trig[:n, n:]
    if not np.isfinite(e_mat).all():
        raise NumericalError(
            f"E_theta(s) is not finite at s = {s}, theta = {theta:g}")
    return e_mat


@dataclass(frozen=True)
class KernelSample:
    """Commutator and covariance kernels evaluated at one time lag."""

    tau: float
    lambda_k: np.ndarray
    p_k: np.ndarray


def kernel_at(ss: q.StateSpace, tau: float) -> KernelSample:
    """Evaluate the commutator and covariance kernels at lag ``tau``.

    The negative-lag branch is produced by mirroring the positive-lag
    matrices, so the kernel symmetries hold exactly for paired lags.
    """
    s = ss.s_half
    e = expm(abs(tau) * ss.a)
    lam_pos = s @ e @ ss.theta_ccr @ s
    p_pos = s @ e @ ss.sigma @ s
    if tau >= 0:
        return KernelSample(tau=float(tau), lambda_k=lam_pos, p_k=p_pos)
    return KernelSample(tau=float(tau), lambda_k=-lam_pos.T, p_k=p_pos.T)


#: Step in theta of the central difference in ``d_second_derivative_check``.
D2_STEP = 1e-4


def d_second_derivative_check(grid: q.SpectralGrid, theta: float) -> float:
    """Largest residual over the grid's nodes of the linear structure
    D'' = -D Psi^2.

    D'' is a central finite difference of the log-det matrix in theta, of
    step ``D2_STEP``, so the residual is dominated by the O(D2_STEP^2)
    differencing error.
    """
    def d_mat(th: float) -> np.ndarray:
        cos_tp, sinc_tp, _ = grid.trig(th)
        return cos_tp - th * grid.phi @ sinc_tp

    d0 = d_mat(theta)
    d_plus = d_mat(theta + D2_STEP)
    d_minus = d_mat(theta - D2_STEP)
    second = (d_plus - 2.0 * d0 + d_minus) / D2_STEP ** 2
    psi_sq = grid.psi @ grid.psi
    return float(np.max(np.linalg.norm(second + d0 @ psi_sq, axis=(1, 2))))


def u_direct(grid: SpectralGrid, theta: float) -> np.ndarray:
    """Closed-form Hermitian Riccati solution at every node of a grid.

    Evaluates -D^{-1} dD/dtheta = D^{-1} (Phi cos(theta Psi)
    + Psi sin(theta Psi)) with D the log-det matrix; this is the
    commutator-weighted resolvent form with the Psi factor absorbed, so it
    stays regular when the commutator spectrum degenerates (U then reduces
    to (I - theta Phi)^{-1} Phi).  sin(theta Psi) = theta Psi sinc(theta Psi).
    Raises FeasibilityError, naming the first such frequency, where D is
    numerically singular.
    """
    phi, psi = grid.phi, grid.psi
    cos_tp, sinc_tp, _ = grid.trig(theta)
    sin_m = theta * psi @ sinc_tp
    d_mat = cos_tp - theta * phi @ sinc_tp
    cond = np.linalg.cond(d_mat)
    bad = np.flatnonzero(~np.isfinite(cond) | (cond > 1e14))
    if bad.size:
        lam = float(grid.lambdas[bad[0]])
        raise FeasibilityError(f"log-det matrix singular at frequency {lam:g}",
                               theta=theta, lam=lam)
    u = np.linalg.solve(d_mat, phi @ cos_tp + psi @ sin_m)
    return hermitize(u)


def u_ode_step(grid: q.SpectralGrid, u: np.ndarray, theta: float,
               d_theta: float) -> np.ndarray:
    """One re-Hermitized RK4 step of dU/dtheta = Psi^2 + U^2 for the stack
    ``u`` of states at the grid's nodes, by the march's own step.

    The equation is autonomous; ``theta`` only labels the step for the
    finite-escape diagnostic, which raises FeasibilityError.
    """
    st = _RiccatiStack(u, grid.psi, _guard_floor(grid))
    _guarded_step(st, d_theta, theta + d_theta, grid.lambdas)
    return st.x + 1j * st.y


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


def passive_params(rng: np.random.Generator, n: int,
                   active: float = 0.0) -> q.OqhoParams:
    """A passive oscillator of n/2 modes and m = n channels, stable by
    design: in complex form its drift is -i Omega - C*C/2, Hurwitz when
    (Omega, C) is observable.  Hermitian Omega = X + iY and C enter in
    the channel pairing of ``build_j_matrix`` as R = [[X, -Y], [Y, X]]
    and M = [[Re C, -Im C], [Im C, Re C]]; ``active`` scales a random
    symmetric perturbation of R and a random one of M."""
    h = n // 2
    g = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    omega = 0.5 * (g + g.conj().T)
    c = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    r = np.block([[omega.real, -omega.imag], [omega.imag, omega.real]])
    m_mat = np.block([[c.real, -c.imag], [c.imag, c.real]])
    d = rng.normal(size=(n, n))
    r = r + active * 0.5 * (d + d.T)
    m_mat = m_mat + active * rng.normal(size=(n, n))
    gpi = rng.normal(size=(n, n))
    return q.OqhoParams(theta_ccr=0.5 * build_j_matrix(n), energy=r,
                        coupling=m_mat, weight=gpi @ gpi.T / n + np.eye(n))


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
