"""Typed error hierarchy shared by all graphwave modules, and the rules they
all apply: the range of the nonlinearity exponent p, and a refused file access.

The CLI maps these onto exit codes: problem-domain errors (bad input,
infeasible constraint, leaving the energy ball) exit 1, solver
non-convergence exits 2.
"""
from contextlib import contextmanager

# largest nonlinearity exponent p accepted.  Up to it |u|^{p-1} stays a
# normal float for every |u| >= 1e-6, and the closed-form profile's
# sech^{2/(p-1)} loses digits to underflow only below 3e-13 of its peak; at
# p = 1e308 both are gone (a box profile, a flow that sees a linear problem)
MAX_EXPONENT = 50.0


class GraphWaveError(Exception):
    """Base class for all graphwave errors."""


class SchemaError(GraphWaveError):
    """A config document violates the JSON schema; message names the field."""


class AssumptionError(GraphWaveError):
    """The graph or operator violates a standing model requirement."""


class ConfigurationError(GraphWaveError):
    """Run settings are unusable: a numerical parameter (grid step too large
    or too small for the node limit, too many vertices, worker count out of
    range), an input file that cannot be read or is not UTF-8 text, or an
    output location that cannot be written."""


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


def check_exponent(p, what: str, lowest: float | None = None) -> None:
    """Refuse, as DomainError naming ``what``, an exponent p that is not a
    number above 1 (at least ``lowest`` when given) and at most
    MAX_EXPONENT; NaN and None fail."""
    if not (p is not None and (p > 1.0 if lowest is None else p >= lowest)
            and p <= MAX_EXPONENT):
        low = "1 < p" if lowest is None else f"{lowest:g} <= p"
        raise DomainError(f"{what} needs {low} <= {MAX_EXPONENT:g}, got p={p!r}")


@contextmanager
def os_action(action: str):
    """Turn an OSError in the block, the OS refusing ``action`` (which names
    its file), or undecodable text into the ConfigurationError "cannot <action>: <reason>"."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot {action}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot {action}: not {exc.encoding.upper()} text") from None


class BlowUpError(GraphWaveError):
    """Time integration tripped the overflow guard (blow-up suspected)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
