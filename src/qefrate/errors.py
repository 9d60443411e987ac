"""Exception hierarchy shared across the package.

The three branches map onto the CLI exit codes: model/validation failures,
infeasible risk parameters, and numerical breakdowns.
"""

from __future__ import annotations


class QefError(Exception):
    """Base class for all package errors."""


class ModelError(QefError):
    """A model or its parameters violate a structural requirement."""


class DimensionError(ModelError):
    """Matrix dimensions or parity constraints are violated."""


class StabilityError(ModelError):
    """The drift matrix is not Hurwitz."""


class DegeneracyError(ModelError):
    """The noise coupling is degenerate (det(B J B') vanishes)."""


class ParameterError(ModelError):
    """A parameter matrix fails symmetry or definiteness requirements."""


class StructureError(ModelError):
    """A matrix does not have the special structure an operation requires."""


class FeasibilityError(QefError):
    """The risk parameter exceeds the feasible range.

    Carries the offending risk parameter and, when detected during a
    frequency sweep, the frequency at which the bound failed.
    """

    def __init__(self, message: str, theta: float | None = None,
                 lam: float | None = None):
        super().__init__(message)
        self.theta = theta
        self.lam = lam


class NumericalError(QefError):
    """A numerical procedure failed to converge or lost accuracy."""


class SingularityError(NumericalError):
    """Evaluation was requested too close to a pole or eigenvalue."""


class SizeError(NumericalError):
    """A discretization exceeds the configured size guard on its order."""
