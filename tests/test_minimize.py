import gc
import math
import weakref

import numpy as np
import pytest

from graphwave import mesh, minimizers
from graphwave.errors import BallExitError, ConvergenceError, DomainError, FeasibilityError
from graphwave.graphs import StarGraphSpec, make_star
from graphwave.mesh import GraphFunction, gn_ratio, h1_norm_sq, lp_norm, mass, quadratic_form
from graphwave.minimizers import (
    energy,
    feasibility_bound,
    lagrange_multiplier,
    minimize,
    scaling_energy_curve,
    structure_diagnostics,
)
from graphwave.spectrum import ground_state
from graphwave.starwaves import (
    ClosedFormWave,
    evaluate_wave,
    h_integral,
    mass_curve,
    monotone_window,
    profile_f,
    solve_omega_for_mass,
)

from conftest import C_REF_P6, OMEGA_REF_P6

# analytic-quadrature oracle for the p=5, omega=1 star wave (N=3, gamma=1):
# kinetic+vertex form and energy integrated from the closed form directly
FORM_CLOSED_51 = 0.3743183173089115
ENERGY_CLOSED_51 = -0.4082482909472138


def test_energy_breakdown_zero(disc_h02):
    assert energy(GraphFunction(disc_h02, np.full(disc_h02.n_nodes, 0j)), 5.0) == 0.0
    with pytest.raises(DomainError):
        energy(GraphFunction(disc_h02, np.full(disc_h02.n_nodes, 0j)), 0.5)


def test_energy_of_scaled_ground_state(disc_h01, ground_h01):
    c = 2.0
    lam0 = ground_h01.lambda0
    u = GraphFunction(disc_h01, math.sqrt(c) * ground_h01.psi0.values)
    e = energy(u, 6.0)
    assert 0.5 * quadratic_form(u) == pytest.approx(-lam0 * c / 2.0, abs=1e-9)
    assert e < -lam0 * c / 2.0
    assert e == 0.5 * quadratic_form(u) - lp_norm(u, 7.0) ** 7.0 / 7.0


def test_energy_matches_analytic_quadrature(disc_h01):
    u = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), disc_h01)
    assert quadratic_form(u) == pytest.approx(FORM_CLOSED_51, abs=2e-4)
    assert energy(u, 5.0) == pytest.approx(ENERGY_CLOSED_51, abs=2e-4)


@pytest.mark.parametrize("call", [
    lambda u, g: energy(u, math.nan),
    lambda u, g: lagrange_multiplier(u, math.nan),
    lambda u, g: lp_norm(u, math.nan),
    lambda u, g: gn_ratio(u, math.nan),
    lambda u, g: feasibility_bound(0.1, math.inf),
    lambda u, g: h_integral(0.5, math.inf),
    lambda u, g: profile_f(0.5, math.inf, 1.0),
    lambda u, g: profile_f(0.5, 5.0, math.nan),
    lambda u, g: GraphFunction(u.disc, u.values[:-1]),
], ids=["energy", "lagrange_multiplier", "lp_norm", "gn_ratio", "feasibility_bound",
        "h_integral", "profile_f", "profile_f-omega", "graph_function-length"])
def test_library_checks_refuse_nan_and_inf(star3, disc_h02, call):
    u = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), disc_h02)
    with pytest.raises(DomainError):
        call(u, star3)


@pytest.mark.filterwarnings("error")
def test_a_flow_whose_residual_overflows_is_a_convergence_error(disc_h02, ground_h02):
    # at p = 50 the start sqrt(1e10) psi0 has |u|^{p-1} u near 1e235, whose
    # squared residual overflows; the ball of radius 1e30 still holds it
    with pytest.raises(ConvergenceError, match="flow diverged at iteration 1"):
        minimize(disc_h02, 50.0, 1e10, 1e30, tau=1.0, ground=ground_h02)


def test_feasibility_bound_values():
    assert feasibility_bound(1.0 / 9.0, 1.0) == pytest.approx(9.0)
    assert feasibility_bound(1.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        feasibility_bound(1.0, 0.0)
    with pytest.raises(DomainError):
        feasibility_bound(-1.0, 1.0)


def test_multiplier_on_closed_form(disc_h01):
    u = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), disc_h01)
    assert lagrange_multiplier(u, 5.0) == pytest.approx(1.0, abs=5e-4)
    with pytest.raises(DomainError):
        lagrange_multiplier(GraphFunction(disc_h01, np.full(disc_h01.n_nodes, 0j)), 5.0)


def test_multiplier_on_nonstationary_state(disc_h01, ground_h01):
    # for sqrt(c) psi0 the formula collapses to lambda0 + ||u||_{p+1}^{p+1}/c
    c, p = 1.5, 6.0
    u = GraphFunction(disc_h01, math.sqrt(c) * ground_h01.psi0.values)
    expected = ground_h01.lambda0 + lp_norm(u, p + 1.0) ** (p + 1.0) / c
    assert lagrange_multiplier(u, p) == pytest.approx(expected, abs=1e-9)
    assert lagrange_multiplier(u, p) > ground_h01.lambda0


def test_minimizer_matches_closed_form(minimizer_p6, disc_h01):
    res = minimizer_p6
    omega_c = solve_omega_for_mass(3, 1.0, 6.0, C_REF_P6, (0.12, 1.2))
    assert omega_c == pytest.approx(OMEGA_REF_P6, abs=1e-10)
    ref = evaluate_wave(ClosedFormWave(3, 1.0, 6.0, omega_c, 0), disc_h01)
    # gauge-align before comparing
    theta = res.diagnostics["theta_hat"]
    diff = GraphFunction(disc_h01, np.exp(-1j * theta) * res.phi.values - ref.values)
    rel = math.sqrt(h1_norm_sq(diff) / h1_norm_sq(ref))
    assert rel <= 1e-3
    assert res.omega == pytest.approx(omega_c, abs=5e-4)
    assert res.energy < -res.lambda0 * res.c / 2.0


def test_minimizer_contracts(monkeypatch, minimizer_p6, disc_h02, ground_h02):
    res = minimizer_p6
    assert mass(res.phi) == pytest.approx(res.c, rel=1e-12)
    assert res.g_norm_sq <= res.r
    assert res.gradient_residual <= 1e-9
    # multiplier identity at the converged point
    ident = quadratic_form(res.phi) - lp_norm(res.phi, 7.0) ** 7.0 + res.omega * res.c
    assert abs(ident) <= 1e-9 * res.c
    # along a flow without the Newton polish, every iterate the flow
    # measures has mass c (renormalization is exact) and the energy never
    # rises (discrete dissipation)
    masses, energies = [], []
    measure = minimizers._measure

    def spy(d, p, c, lam0, u):
        s = measure(d, p, c, lam0, u)
        masses.append(mass(GraphFunction(d, u)))
        energies.append(s.energy)
        return s

    monkeypatch.setattr(minimizers, "_measure", spy)
    monkeypatch.setattr(minimizers, "_newton", lambda *args: None)
    flow = minimize(disc_h02, 6.0, C_REF_P6, 1.0, tau=1.0, tol=1e-9, ground=ground_h02)
    assert flow.newton_steps == 0 and len(energies) == flow.iterations > 1
    assert np.max(np.abs(np.array(masses) - C_REF_P6)) <= 1e-12 * C_REF_P6
    assert np.max(np.diff(energies)) <= 1e-12


def test_minimize_infeasible_mass(disc_h02, ground_h02):
    with pytest.raises(FeasibilityError, match="exceeds the feasibility bound"):
        minimize(disc_h02, 6.0, 1.01 / ground_h02.lambda0, 1.0, ground=ground_h02)


def test_minimize_near_bound_is_typed(disc_h02, ground_h02):
    # just inside feasibility at p=7: interior convergence or a typed ball exit
    c = 0.98 / ground_h02.lambda0
    try:
        res = minimize(disc_h02, 7.0, c, 1.0, ground=ground_h02, max_iter=20000)
        assert res.g_norm_sq <= 1.0
    except BallExitError as exc:
        assert exc.g_norm_sq > 1.0
    except ConvergenceError as exc:
        assert exc.residual is not None


def test_minimize_iteration_cap(disc_h02, ground_h02):
    with pytest.raises(ConvergenceError) as err:
        minimize(disc_h02, 6.0, 1.5, 1.0, tau=1.0, tol=1e-16, max_iter=20,
                 ground=ground_h02)
    assert len(err.value.history) == 20


def test_gauge_equivariance(disc_h02, ground_h02):
    c, p, theta = 1.5, 6.0, math.pi / 3.0
    base = minimize(disc_h02, p, c, 1.0, tau=1.0, tol=1e-9, ground=ground_h02)
    shifted_init = GraphFunction(
        disc_h02,
        np.exp(1j * theta) * math.sqrt(c) * ground_h02.psi0.values.astype(complex),
    )
    rotated = minimize(disc_h02, p, c, 1.0, tau=1.0, tol=1e-9, ground=ground_h02,
                       init=shifted_init)
    assert rotated.diagnostics["theta_hat"] == pytest.approx(theta, abs=1e-8)
    np.testing.assert_allclose(
        np.abs(rotated.phi.values), np.abs(base.phi.values), atol=1e-8
    )


def test_structure_diagnostics_flags(minimizer_p6):
    res = minimizer_p6
    diag = res.diagnostics
    assert diag["phase_constant_ok"] and diag["positivity_ok"]
    assert diag["energy_below_linear_ok"] and diag["ball_interior_ok"]
    # rotating the minimizer by a phase is detected, not flagged
    rotated = type(res)(
        phi=GraphFunction(res.phi.disc, np.exp(1j * math.pi / 3) * res.phi.values),
        c=res.c, r=res.r, energy=res.energy, omega=res.omega,
        g_norm_sq=res.g_norm_sq, iterations=res.iterations,
        gradient_residual=res.gradient_residual, lambda0=res.lambda0,
        psi0=res.psi0,
    )
    d2 = structure_diagnostics(rotated)
    assert d2["phase_constant_ok"]
    assert d2["theta_hat"] == pytest.approx(math.pi / 3, abs=1e-8)
    # a sign-changing profile fails positivity
    flipped = type(res)(
        phi=GraphFunction(res.phi.disc, res.phi.values * np.where(
            np.arange(res.phi.disc.n_nodes) % 2 == 0, 1.0, -1.0)),
        c=res.c, r=res.r, energy=res.energy, omega=res.omega,
        g_norm_sq=res.g_norm_sq, iterations=res.iterations,
        gradient_residual=res.gradient_residual, lambda0=res.lambda0,
        psi0=res.psi0,
    )
    assert not structure_diagnostics(flipped)["positivity_ok"]


def test_omega_decreases_with_mass(disc_h02, ground_h02):
    lam0 = ground_h02.lambda0
    omegas = []
    for c in (2.0, 1.4, 1.0):
        res = minimize(disc_h02, 6.0, c, 1.0, tau=1.0, tol=1e-9, ground=ground_h02)
        omegas.append(res.omega)
        assert res.omega > lam0
    assert omegas[0] > omegas[1] > omegas[2]


def test_scaling_curve_preserves_mass():
    # fine grid so the lam-compressed profiles stay resolved
    g = make_star(StarGraphSpec(3, 1.0, 20.0))
    d = mesh.build(g, 1e-3)
    u = evaluate_wave(ClosedFormWave(3, 1.0, 7.0, 0.4, 0), d)
    m0 = mass(u)
    for lam in (1.0, 1.5, 2.0):
        def prof(k, x, lam=lam):
            eg = d.edge_grids[k]
            vals = np.where(eg.gidx >= 0, u.values[eg.gidx].real, 0.0)
            return math.sqrt(lam) * np.interp(lam * x, eg.x, vals, right=0.0)
        u_lam = d.from_edge_profiles(prof)
        assert mass(u_lam) == pytest.approx(m0, rel=1e-6)


def test_scaling_curve_supercritical_trend(disc_h02):
    u = evaluate_wave(ClosedFormWave(3, 1.0, 7.0, 0.5, 0), disc_h02)
    curve = scaling_energy_curve(disc_h02, 7.0, u, [1.0, 2.0, 4.0, 8.0])
    energies = [E for _, E in curve]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert energies[3] < 2.0 * energies[2] < 0.0
    with pytest.raises(DomainError):
        scaling_energy_curve(disc_h02, 7.0, u, [0.5])


def test_scaling_curve_subcritical_diagnostic(disc_h02):
    # p = 3: the lam^2 kinetic term eventually beats the lam nonlinearity
    u = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 0.3, 0), disc_h02)
    curve = scaling_energy_curve(disc_h02, 3.0, u, [1.0, 2.0, 4.0, 8.0])
    energies = [E for _, E in curve]
    assert energies[3] > energies[0]


def test_scaling_curve_rejects_non_star():
    from graphwave.graphs import Edge, MetricGraph, Vertex

    g = MetricGraph(
        vertices=(Vertex("a", 1.0), Vertex("b", 0.0)),
        edges=(
            Edge("f", "a", "b", 2.0),
            Edge("x", "a", None, math.inf, 20.0),
        ),
    ).validate()
    d = mesh.build(g, 0.05)
    with pytest.raises(DomainError, match="star"):
        scaling_energy_curve(d, 7.0, GraphFunction(d, np.full(d.n_nodes, 1.0, complex)), [1.0])


def test_a_start_or_ground_on_another_grid_is_refused_naming_it():
    # gamma = 2 gives a grid of the same size, whose lambda0 = 0.444 set the
    # bound r/lambda0 = 2.2525: minimize refused c = 2.7136 as infeasible,
    # though d's bound is 9.049 and the solve there converges
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 10.0)), 0.1)
    d2 = mesh.build(make_star(StarGraphSpec(3, 2.0, 10.0)), 0.1)
    assert d2.n_nodes == d.n_nodes
    assert minimize(d, 6.0, 2.7136, 1.0).omega == pytest.approx(0.3549, abs=1e-4)
    with pytest.raises(DomainError, match="ground lives on another grid than d"):
        minimize(d, 6.0, 2.7136, 1.0, ground=ground_state(d2))
    u = evaluate_wave(ClosedFormWave(3, 2.0, 7.0, 1.0, 0), d2)
    with pytest.raises(DomainError, match="init lives on another grid than d"):
        minimize(d, 6.0, 2.7136, 1.0, init=u)
    with pytest.raises(DomainError, match="u lives on another grid than d"):
        scaling_energy_curve(d, 7.0, u, [1.0, 2.0])


@pytest.mark.parametrize("error", [BallExitError, ConvergenceError])
def test_typed_error_releases_factorizations(monkeypatch, disc_h02, ground_h02, error):
    # a caller that keeps the error (the CLI, a benchmark gate) must not keep
    # the multi-MB factorizations of the flow and of the Newton attempts alive
    solves = []
    init = mesh.Elimination.__init__

    def recording_init(self, *args):
        solves.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(mesh.Elimination, "__init__", recording_init)
    if error is BallExitError:
        args = dict(c=0.98 / ground_h02.lambda0, p=7.0)
    else:   # Newton is tried at every decade on the way and fails at round-off
        args = dict(c=1.5, p=6.0, tau=1.0, tol=1e-16, max_iter=60)
    gc.disable()
    try:
        try:
            minimize(disc_h02, r=1.0, ground=ground_h02, **args)
        except error as exc:
            kept = exc
        assert kept.__traceback__ is not None
        assert solves and all(ref() is None for ref in solves)
    finally:
        gc.enable()


def test_flow_is_factored_only_when_it_steps(monkeypatch, disc_h02, ground_h02):
    # at the default tau Newton finishes from the start, before the flow's
    # first step, so M/tau + A is never factored; from a twisted start, which
    # Newton declines until the flow has untwisted it, it is factored once
    shifts = []
    refactor = mesh.Elimination.refactor

    def recording_refactor(self, shift):
        shifts.append(shift)
        refactor(self, shift)

    def flow_factors(tau):
        return sum(np.array_equal(s, disc_h02.m / tau) for s in shifts)

    monkeypatch.setattr(mesh.Elimination, "refactor", recording_refactor)
    res = minimize(disc_h02, 6.0, C_REF_P6, 1.0, ground=ground_h02)
    assert res.iterations == 1 and res.newton_steps >= 1
    assert shifts and flow_factors(disc_h02.h_max) == 0
    shifts.clear()
    twist = disc_h02.from_edge_profiles(lambda k, x: np.exp(0.05j * (k + 1) * x))
    init = GraphFunction(disc_h02, math.sqrt(C_REF_P6) * ground_h02.psi0.values * twist.values)
    twisted = minimize(disc_h02, 6.0, C_REF_P6, 1.0, tau=1.0, init=init, ground=ground_h02)
    assert twisted.iterations > 1
    assert flow_factors(1.0) == 1


def test_newton_measures_and_factors_once_per_step(monkeypatch, disc_h01, ground_h01):
    # at the benchmark minimizer's setting the flow converges at iterate 1 by
    # one Newton attempt: the flow's measurement starts it, each step is
    # measured once, and one factor is refactored for all its steps
    calls = {"measure": 0, "attempts": 0, "eliminations": 0}
    measure, newton, init = minimizers._measure, minimizers._newton, mesh.Elimination.__init__

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(minimizers, "_measure", counted("measure", measure))
    monkeypatch.setattr(minimizers, "_newton", counted("attempts", newton))
    monkeypatch.setattr(mesh.Elimination, "__init__", counted("eliminations", init))
    res = minimize(disc_h01, 6.0, C_REF_P6, 1.0, tau=1.0, tol=1e-9, ground=ground_h01)
    assert res.iterations == 1 and res.newton_steps >= 1 and calls["attempts"] == 1
    assert calls["measure"] == res.iterations + res.newton_steps
    assert calls["eliminations"] == calls["attempts"]


def test_newton_keeps_the_ball_exit(disc_h02, ground_h02):
    # at 0.8 omega_hi the loose flow is still inside B(1), and Newton from it
    # would land on a stationary point with ||u||_G^2 = 1.146; the flow,
    # which decides the outcome, leaves the ball
    omega_hi = monotone_window(3, 1.0, 6.0)[1]
    c = mass_curve(3, 1.0, 6.0, 0.8 * omega_hi)
    with pytest.raises(BallExitError):
        minimize(disc_h02, 6.0, c, 1.0, tau=1.0, ground=ground_h02)


def test_newton_first_step_may_raise_the_residual(disc_h02, ground_h02):
    # near the top of the p = 6 window the first Newton step from the flow's
    # residual 9.3e-2 lowers the energy from -0.195 to -0.226 but raises the
    # residual to 9.5e-2; accepting it finishes the solve, where the tau = h
    # flow would run about 475 more iterations to the next attempt
    c = mass_curve(3, 1.0, 6.0, 0.488333)
    res = minimize(disc_h02, 6.0, c, 1.0, ground=ground_h02)
    assert res.iterations <= 5
    assert res.newton_steps >= 1
    assert res.gradient_residual <= 1e-8
    assert res.omega == pytest.approx(0.48888178, abs=1e-7)
    assert all(v for k, v in res.diagnostics.items() if k.endswith("_ok"))


def test_newton_declines_an_iterate_without_constant_phase(monkeypatch, disc_h02, ground_h02):
    # a start twisted by exp(0.05 i (k+1) x) on edge k: Newton gives the
    # iterate back to the flow until the flow has untwisted it, and the
    # result is the minimizer reached from sqrt(c) psi0
    attempts = []

    def recording_newton(d, p, c, r, lam0, tol, u, s):
        k = int(np.argmax(np.abs(u)))
        gauged = u * abs(u[k]) / u[k]
        attempts.append(float(np.max(np.abs(gauged.imag))) / abs(u[k]))
        return newton(d, p, c, r, lam0, tol, u, s)

    newton = minimizers._newton
    monkeypatch.setattr(minimizers, "_newton", recording_newton)
    c = C_REF_P6
    twist = disc_h02.from_edge_profiles(lambda k, x: np.exp(0.05j * (k + 1) * x))
    init = GraphFunction(disc_h02, math.sqrt(c) * ground_h02.psi0.values * twist.values)
    twisted = minimize(disc_h02, 6.0, c, 1.0, tau=1.0, init=init, ground=ground_h02)
    declined = [t for t in attempts[:-1] if t > 1e-8]
    assert len(declined) == len(attempts) - 1 == 6
    assert attempts[-1] <= 1e-8 and twisted.newton_steps >= 1
    plain = minimize(disc_h02, 6.0, c, 1.0, tau=1.0, ground=ground_h02)
    assert twisted.energy == pytest.approx(plain.energy, abs=1e-13)
    assert twisted.omega == pytest.approx(plain.omega, abs=1e-12)
    assert twisted.diagnostics["phase_constant_ok"]


def test_a_mass_whose_start_overflows_is_refused_naming_c_and_p():
    # on the mass-1e20 sphere max|u|^49 overflows: minimize warned three
    # times in its first measurement, then raised "flow diverged at iteration 1"
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    with pytest.raises(DomainError, match=r"c=1e\+20 and p=50\.0 .* = inf"):
        minimize(d, 50.0, 1e20, 1e30, tau=1.0)
