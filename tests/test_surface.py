"""The package's public surface: what ``import qefrate`` exports."""

from __future__ import annotations

import qefrate as q

PUBLIC = [
    "__version__",
    "QefError", "ModelError", "DimensionError", "StabilityError",
    "DegeneracyError", "ParameterError", "StructureError",
    "FeasibilityError", "NumericalError", "SingularityError", "SizeError",
    "OqhoParams", "StateSpace", "build_j_matrix", "realize",
    "from_state_space",
    "SpectralGrid", "transfer", "sample_grid",
    "QuadratureConfig",
    "RateResult", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "tail_bound",
    "worst_case_lqg_bound", "frequency_profile",
    "HomotopyTrace", "rate_by_homotopy",
    "HorizonEstimate", "ConvergenceStudy", "discretize_kernels", "ln_xi",
    "convergence_study",
    "OneModeParams",
    "load_model", "write_csv", "write_summary", "two_mode_example",
]

#: Names only the tests called: the references now live in the tests'
#: conftest, the march on a given grid is private, and the one-mode
#: helpers are reached through their module.
RETIRED = [
    "KernelSample", "kernel_at", "log_det_d", "contour_e",
    "d_second_derivative_check", "u_direct", "u_ode_step",
    "rate_by_homotopy_from_grid", "extract_mu", "onemode_drift",
    "ab_functions", "onemode_trig",
]


def test_public_surface():
    assert len(PUBLIC) == 43
    assert q.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(q, name)] == []
    assert [name for name in RETIRED if hasattr(q, name)] == []
