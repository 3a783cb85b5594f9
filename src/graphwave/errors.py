"""Typed error hierarchy shared by all graphwave modules.

The CLI maps these onto exit codes: problem-domain errors (bad input,
infeasible constraint, leaving the energy ball) exit 1, solver
non-convergence exits 2.
"""


class GraphWaveError(Exception):
    """Base class for all graphwave errors."""


class SchemaError(GraphWaveError):
    """A config document violates the JSON schema; message names the field."""


class AssumptionError(GraphWaveError):
    """The graph or operator violates a standing model requirement."""


class ConfigurationError(GraphWaveError):
    """Run settings are unusable: a numerical parameter (grid step too large
    or too small for the node limit, worker count out of range) or an input
    file that cannot be read."""


class DomainError(GraphWaveError):
    """An argument is outside the mathematical domain of the operation."""


class FeasibilityError(GraphWaveError):
    """The mass constraint is incompatible with the energy ball (c > r/lambda0)."""


class BallExitError(GraphWaveError):
    """A descent iterate left the energy ball B(r)."""

    def __init__(self, message, iteration=None, g_norm_sq=None, r=None):
        super().__init__(message)
        self.iteration = iteration
        self.g_norm_sq = g_norm_sq
        self.r = r


class ConvergenceError(GraphWaveError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history if history is not None else []


class BlowUpError(GraphWaveError):
    """Time integration tripped the overflow guard (blow-up suspected)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
