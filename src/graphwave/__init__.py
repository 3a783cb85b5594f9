"""graphwave: Schrodinger dynamics and constrained ground states on metric graphs.

A numpy/scipy library for delta-coupled quantum graphs: assemble the energy
form on glued edge grids, compute the linear ground state, minimize the
focusing energy on a mass sphere localized to an energy ball, validate
against exact star-graph standing waves, and test orbital stability by
time evolution.

Submodules and names load on first access (PEP 562), so a command that
needs little of the package loads little.  A name is read from its module
at each access, never cached here: a wrapper patched into that module, or
the original put back, is what the package returns.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AssumptionError", "BallExitError", "BlowUpError", "ConfigurationError",
               "ConvergenceError", "DomainError", "FeasibilityError", "GraphWaveError",
               "SchemaError"),
    "evolution": ("evolve", "orbit_distance", "stability_experiment", "step"),
    "graphs": ("INFINITE", "Edge", "GaussianBump", "MetricGraph", "SampledPotential",
               "SquareWell", "StarGraphSpec", "Vertex", "ZeroPotential", "make_star",
               "parse_graph", "serialize_graph"),
    "mesh": ("Discretization", "GraphFunction", "build", "g_norm_sq", "gn_ratio",
             "grad_norm_sq", "h1_inner", "h1_norm_sq", "load_function_csv", "lp_norm", "mass",
             "quadratic_form", "save_function_csv"),
    "minimizers": ("EnergyBreakdown", "MinimizerResult", "energy", "feasibility_bound",
                   "lagrange_multiplier", "minimize", "scaling_energy_curve",
                   "structure_diagnostics"),
    "spectrum": ("GroundStatePair", "ground_state", "spectral_gap", "spectral_gap_report"),
    "starwaves": ("ClosedFormWave", "evaluate_wave", "h_integral", "mass_curve",
                  "monotone_window", "profile_f", "solve_omega_for_mass"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
