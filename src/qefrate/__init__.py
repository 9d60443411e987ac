"""Growth rates of quadratic-exponential costs for stable linear quantum
stochastic systems driven by vacuum fields.

Three independent routes to the same number: direct frequency-domain
quadrature of a matrix log-determinant, a Riccati-equation march in the
risk parameter, and a finite-horizon integral-operator oracle.
"""

from .errors import (DegeneracyError, DimensionError, FeasibilityError,
                     ModelError, NumericalError, ParameterError, QefError,
                     SingularityError, SizeError, StabilityError,
                     StructureError)
from .homotopy import HomotopyTrace, rate_by_homotopy
from .horizon import (ConvergenceStudy, HorizonEstimate, convergence_study,
                      discretize_kernels, ln_xi)
from .io import load_model, write_csv, write_summary
from .model import (OqhoParams, StateSpace, build_j_matrix,
                    from_state_space, realize)
from .onemode import OneModeParams
from .quadrature import QuadratureConfig
from .rate import (RateResult, classical_v, frequency_profile, lqg_rate,
                   small_theta_expansion, tail_bound, theta_threshold,
                   upsilon, upsilon_from_grid, worst_case_lqg_bound)
from .spectral import SpectralGrid, sample_grid, transfer
from .twomode import two_mode_example

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QefError", "ModelError", "DimensionError", "StabilityError",
    "DegeneracyError", "ParameterError", "StructureError",
    "FeasibilityError", "NumericalError", "SingularityError", "SizeError",
    # model
    "OqhoParams", "StateSpace", "build_j_matrix", "realize",
    "from_state_space",
    # spectral
    "SpectralGrid", "transfer", "sample_grid",
    # quadrature
    "QuadratureConfig",
    # rate
    "RateResult", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "tail_bound",
    "worst_case_lqg_bound", "frequency_profile",
    # homotopy
    "HomotopyTrace", "rate_by_homotopy",
    # horizon
    "HorizonEstimate", "ConvergenceStudy", "discretize_kernels", "ln_xi",
    "convergence_study",
    # one-mode closed forms
    "OneModeParams",
    # io / examples
    "load_model", "write_csv", "write_summary", "two_mode_example",
]
