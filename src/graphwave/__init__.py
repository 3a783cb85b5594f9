"""graphwave: Schrodinger dynamics and constrained ground states on metric graphs.

A numpy/scipy library for delta-coupled quantum graphs: assemble the energy
form on glued edge grids, compute the linear ground state, minimize the
focusing energy on a mass sphere localized to an energy ball, validate
against exact star-graph standing waves, and test orbital stability by
time evolution.
"""

from . import errors, evolution, graphs, mesh, minimizers, spectrum, starwaves
from .errors import (
    AssumptionError,
    BallExitError,
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    FeasibilityError,
    GraphWaveError,
    SchemaError,
)
from .evolution import evolve, orbit_distance, stability_experiment, step
from .graphs import (
    INFINITE,
    Edge,
    GaussianBump,
    MetricGraph,
    SampledPotential,
    SquareWell,
    StarGraphSpec,
    Vertex,
    ZeroPotential,
    make_star,
    parse_graph,
    potential_integrability_report,
    serialize_graph,
)
from .mesh import (
    Discretization,
    GraphFunction,
    build,
    g_norm_sq,
    gn_ratio,
    grad_norm_sq,
    h1_inner,
    h1_norm_sq,
    load_function_csv,
    lp_norm,
    mass,
    quadratic_form,
    save_function_csv,
)
from .minimizers import (
    EnergyBreakdown,
    MinimizerResult,
    energy,
    feasibility_bound,
    lagrange_multiplier,
    minimize,
    scaling_energy_curve,
    structure_diagnostics,
)
from .spectrum import GroundStatePair, ground_state, spectral_gap, spectral_gap_report
from .starwaves import (
    ClosedFormWave,
    evaluate_wave,
    h_integral,
    mass_curve,
    monotone_window,
    profile_f,
    solve_omega_for_mass,
)

__version__ = "0.1.0"
