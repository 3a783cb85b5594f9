"""The package namespace: the names graphwave has always exported, now
resolved on first access from the module that defines them."""
import pytest

import graphwave
from graphwave import errors, evolution, graphs, mesh, minimizers, spectrum, starwaves

# every name the package imported eagerly before its namespace became lazy
EXPORTED = {
    errors: "AssumptionError BallExitError BlowUpError ConfigurationError ConvergenceError "
            "DomainError FeasibilityError GraphWaveError SchemaError",
    evolution: "evolve orbit_distance stability_experiment step",
    graphs: "INFINITE Edge GaussianBump MetricGraph SampledPotential SquareWell StarGraphSpec "
            "Vertex ZeroPotential make_star parse_graph serialize_graph",
    mesh: "Discretization GraphFunction build g_norm_sq gn_ratio grad_norm_sq h1_inner "
          "h1_norm_sq load_function_csv lp_norm mass quadratic_form save_function_csv",
    minimizers: "MinimizerResult energy feasibility_bound lagrange_multiplier minimize "
                "scaling_energy_curve structure_diagnostics",
    spectrum: "GroundStatePair ground_state spectral_gap spectral_gap_report",
    starwaves: "ClosedFormWave evaluate_wave h_integral mass_curve monotone_window profile_f "
               "solve_omega_for_mass",
}


def test_every_exported_name_is_an_attribute_and_comes_with_star_import():
    star = {}
    exec("from graphwave import *", star)
    for module, names in EXPORTED.items():
        short = module.__name__.rpartition(".")[2]
        assert getattr(graphwave, short) is module
        assert star[short] is module
        for name in names.split():
            assert getattr(graphwave, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
    assert graphwave.__version__ == "0.1.0"


def test_a_name_is_what_its_module_holds_now(monkeypatch):
    # a tracer patches the defining module and restores it; the package must
    # follow both ways and keep no copy of its own
    original = spectrum.ground_state

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum, "ground_state", wrapper)
    assert graphwave.ground_state is wrapper
    monkeypatch.undo()
    assert graphwave.ground_state is original
    assert "ground_state" not in vars(graphwave)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphwave.no_such_name  # noqa: B018
