import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwave import evolution, mesh
from graphwave.errors import BlowUpError, ConfigurationError, DomainError
from graphwave.evolution import (
    evolve,
    initial_state,
    orbit_distance,
    stability_experiment,
    step,
)
from graphwave.graphs import StarGraphSpec, make_star
from graphwave.mesh import GraphFunction, h1_norm_sq
from graphwave.minimizers import minimize
from graphwave.spectrum import ground_state
from graphwave.starwaves import ClosedFormWave, evaluate_wave
from strategies import small_graphs


@pytest.fixture(scope="module")
def small_setup():
    g = make_star(StarGraphSpec(3, 1.0, 30.0))
    d = mesh.build(g, 0.05)
    return d, ground_state(d)


# the linear flow is the nonlinear step at vanishing amplitude: at this
# scale |u|^{p-1} is below every diagonal entry's last digit, and scaling
# by a power of two is exact
TINY = 2.0**-200


def test_linear_evolution_of_eigenfunction(small_setup):
    d, gs = small_setup
    errs = []
    for dt in (0.02, 0.01):
        u0 = GraphFunction(d, TINY * gs.psi0.values.astype(complex))
        uT, _ = evolve(d, 5.0, u0, dt, 1.0, sample_every=10**9)
        exact = np.exp(1j * gs.lambda0 * 1.0) * gs.psi0.values
        errs.append(float(np.max(np.abs(uT.values / TINY - exact))))
    assert errs[1] <= 1e-7
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)


def test_linear_overlap_modulus_constant(small_setup):
    d, gs = small_setup
    u0 = GraphFunction(d, TINY * gs.psi0.values.astype(complex))
    state = initial_state(u0, 0.01, 5.0)
    base = abs(np.sum(d.m * state.u.values / TINY * gs.psi0.values))
    for _ in range(100):
        state = step(state)
    after = abs(np.sum(d.m * state.u.values / TINY * gs.psi0.values))
    assert after == pytest.approx(base, rel=1e-12)


def test_evolve_refactors_once_per_step(monkeypatch, small_setup):
    # the CN matrix moves with |u|^{p-1}: the trajectory factors and solves
    # in its one workspace once per step
    d, gs = small_setup
    calls = []
    factor_solve = mesh.Elimination.factor_solve

    def counting_factor_solve(self, shift, w, u):
        calls.append(shift)
        return factor_solve(self, shift, w, u)

    monkeypatch.setattr(mesh.Elimination, "factor_solve", counting_factor_solve)
    u0 = GraphFunction(d, gs.psi0.values.astype(complex))
    evolve(d, 5.0, u0, 0.01, 0.1)
    assert len(calls) == 10


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), p=st.sampled_from([5.0, 6.0, 7.0]), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-3, 0.1))
def test_step_solves_the_crank_nicolson_equation(d, p, seed, dt):
    # step's Cayley form against a dense solve of the scheme as written:
    # (i M/dt - A/2 + M gam/2) u+ = (i M/dt + A/2 - M gam/2) u
    rng = np.random.default_rng(seed)
    n = d.n_nodes
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gam_prev = np.abs(u) ** (p - 1.0) * rng.uniform(0.5, 1.5, n)
    state = dataclasses.replace(initial_state(GraphFunction(d, u), dt, p), gamma_relax=gam_prev)
    out = step(state)
    gam = 2.0 * np.abs(u) ** (p - 1.0) - gam_prev
    half = 0.5 * d.A.toarray()
    rhs = (1j * d.m / dt - 0.5 * d.m * gam) * u + half @ u
    ref = np.linalg.solve(np.diag(1j * d.m / dt + 0.5 * d.m * gam) - half, rhs)
    assert np.linalg.norm(out.u.values - ref) <= 1e-10 * np.linalg.norm(ref)
    np.testing.assert_array_equal(out.gamma_relax, gam)
    assert out.t == dt
    np.testing.assert_array_equal(state.u.values, u)


@pytest.mark.parametrize("p, sample_every", [(5.0, 1), (5.0, 3), (5.0, 4)])
def test_yielded_states_are_never_written_again(small_setup, p, sample_every):
    # the time loop recycles the arrays of the states it keeps to itself;
    # a state it has handed out must keep its values
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    kept = []
    for state in evolution._trajectory(u0, 0.01, p, 20, sample_every):
        kept.append((state, state.u.values.copy(), state.gamma_relax.copy()))
    assert len(kept) == 1 + 20 // sample_every + (20 % sample_every > 0)
    for state, u, gam in kept:
        np.testing.assert_array_equal(state.u.values, u)
        np.testing.assert_array_equal(state.gamma_relax, gam)
    assert len({id(state.u.values) for state, _, _ in kept}) == len(kept)


@pytest.mark.parametrize("sample_every", [1, 3])
def test_trajectory_reusing_the_modulus_is_bit_identical(small_setup, sample_every):
    # a trajectory takes |u| for |u|^{p-1} from the last step's sup pass
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    uT, trace = evolve(d, 5.0, u0, 0.01, 0.12, sample_every=sample_every)
    state, energies = initial_state(u0, 0.01, 5.0), [trace.energy[0]]
    for k in range(1, 13):
        # a state restarted from this one is a trajectory of its own, so the
        # reference step gets fresh storage and computes |u| afresh
        state = step(dataclasses.replace(initial_state(state.u, 0.01, 5.0),
                                         gamma_relax=state.gamma_relax, steps=state.steps))
        if k % sample_every == 0:
            energies.append(evolution.energy(state.u, 5.0))
    np.testing.assert_array_equal(uT.values, state.u.values)
    assert trace.energy == energies


def test_standing_wave_modulus_and_phase(small_setup):
    d, _ = small_setup
    wave = ClosedFormWave(3, 1.0, 5.0, 1.0, 0)
    u0 = evaluate_wave(wave, d)
    dt = 0.01
    uT, _ = evolve(d, 5.0, u0, dt, 1.0, sample_every=10**9)
    tol = 10.0 * (dt**2 + d.h_max**2)
    assert float(np.max(np.abs(np.abs(uT.values) - np.abs(u0.values)))) <= tol
    _, theta = orbit_distance(uT, u0)
    assert theta == pytest.approx(wave.omega * 1.0, abs=tol)


def test_mass_conserved_over_many_steps(small_setup):
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    _, trace = evolve(d, 5.0, u0, 1e-3, 2.0, sample_every=100)
    m = np.array(trace.mass)
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-10


def test_time_reversibility(small_setup):
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    n, dt = 50, 0.01
    state = initial_state(u0, dt, 5.0)
    for _ in range(n):
        state = step(state)
    back = initial_state(state.u, -dt, 5.0)
    for _ in range(n):
        back = step(back)
    err = float(np.max(np.abs(back.u.values - u0.values)))
    assert err <= 10.0 * n * abs(dt) ** 3


@pytest.mark.parametrize(
    "t_final, dt, sample_every",
    [
        (1.0, 0.3, 1),     # 3.33 steps: would stop early at t = 0.9
        (0.01, 0.02, 1),   # dt > T: would take zero steps
        (1.0, 0.0, 1),
        (-1.0, 0.01, 1),
        (float("nan"), 0.01, 1),
        (1.0, 0.01, 0),    # sample_every must be positive
    ],
)
def test_time_grid_must_be_whole_steps(small_setup, t_final, dt, sample_every):
    d, gs = small_setup
    u0 = GraphFunction(d, gs.psi0.values.astype(complex))
    with pytest.raises(DomainError):
        evolve(d, 5.0, u0, dt, t_final, sample_every=sample_every)
    if sample_every == 1:
        with pytest.raises(DomainError):
            stability_experiment(d, 6.0, u0, delta=0.0, t_final=t_final, dt=dt)


@pytest.mark.filterwarnings("error")
def test_a_start_whose_power_overflows_is_refused_before_any_step(small_setup):
    # mass 1e200 m is finite, but |u0|^{p-1} = 1e600 is not: the first
    # factor would have seen inf and NaN
    d, _ = small_setup
    u0 = GraphFunction(d, np.full(d.n_nodes, 0j))
    u0.values[0] = 1e100
    with pytest.raises(DomainError, match=r"max\|u0\|\^\(p-1\) = inf"):
        evolve(d, 7.0, u0, 0.01, 0.1)


def test_a_start_whose_first_step_overflows_is_refused_naming_it():
    # max|u0|^49 is finite, but the first step's field 2|u0|^49 and the
    # energy's sum m|u0|^51 are not: evolve warned "overflow encountered in
    # power" and then blamed the matrix ("A + diag(shift) is singular")
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    u0 = GraphFunction(d, np.full(d.n_nodes, 0j))
    u0.values[5] = 0.999 * 1e308 ** (1.0 / 49.0)
    with pytest.raises(DomainError, match=r"the start u0 .* 2 max\|u0\|\^\(p-1\) = inf"):
        evolve(d, 50.0, u0, 0.01, 0.02)


@pytest.mark.filterwarnings("error")
def test_a_singular_step_is_refused_naming_t_dt_p_and_the_field():
    # 3x the exact p = 50 star wave has max|u0|^49 = 5.4e24, which puts the
    # largest diagonal entry near 1e23: the first step's matrix is refused as
    # singular, and the refusal named no input.  3x the p = 20 wave evolves
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.1)
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 50.0, 1.0), d)
    u0.values *= 3.0
    with pytest.raises(DomainError, match=r"step from t=0\.0 by dt=0\.01 at p=50\.0, where "
                       r"max\|u\|\^\(p-1\) = 5\.42e\+24: A \+ diag\(shift\) is singular"):
        evolve(d, 50.0, u0, 0.01, 0.05)
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 20.0, 1.0), d)
    u0.values *= 3.0
    assert evolve(d, 20.0, u0, 0.01, 0.05)[1].times[-1] == 0.05


def test_sample_times_are_whole_multiples_of_dt(small_setup):
    # a state counts its steps from the trajectory's start: t = k dt, where
    # summing dt 2000 times ended at 20.000000000000327
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    _, trace = evolve(d, 5.0, u0, 0.01, 20.0, sample_every=100)
    assert trace.times == [k * 0.01 for k in range(0, 2001, 100)]
    assert trace.times[-1] == 20.0
    state = initial_state(u0, 0.01, 5.0)
    for k in range(1, 101):
        state = step(state)
    assert state.t == trace.times[1]
    stab = stability_experiment(d, 5.0, u0, 0.0, 20.0, 0.01, n_samples=4)
    assert stab.times == [k * 0.01 for k in range(0, 2001, 500)]


def test_step_count_is_capped():
    # a resource request: 1e9 steps would run for hours, 1e300 for ever
    assert evolution._n_steps(1.0, 1.0 / evolution.MAX_STEPS) == evolution.MAX_STEPS
    for dt in (1e-9, 1e-300):
        with pytest.raises(ConfigurationError, match="above the limit"):
            evolution._n_steps(1.0, dt)


def test_blow_up_guard_triggers(small_setup):
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    state = initial_state(u0, 0.01, 5.0)
    state.traj.guard = 1e-12
    with pytest.raises(BlowUpError):
        step(state)


def test_a_hand_stepped_trajectory_keeps_its_guard(small_setup):
    # the guard is the trajectory's start's: a state of that trajectory
    # whose sup norm is 2^200 times the start's trips it on its next step
    d, _ = small_setup
    u0 = GraphFunction(d, TINY * evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d).values)
    state = step(initial_state(u0, 0.01, 5.0))
    grown = dataclasses.replace(state, values=state.values / TINY)
    with pytest.raises(BlowUpError, match="overflow guard"):
        step(grown)


def test_chained_steps_share_one_elimination(monkeypatch, small_setup):
    # the start builds the trajectory's workspace and every step hands it on
    d, _ = small_setup
    built = []
    init = mesh.Elimination.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(mesh.Elimination, "__init__", counting_init)
    state = initial_state(evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d), 0.01, 5.0)
    for _ in range(10):
        state = step(state)
    assert len(built) == 1 and state.traj.elim is built[0]


@pytest.mark.filterwarnings("error")
def test_initial_state_refuses_a_start_whose_power_overflows(small_setup):
    d, _ = small_setup
    u0 = GraphFunction(d, np.full(d.n_nodes, 0j))
    u0.values[0] = 1e100
    with pytest.raises(DomainError, match=r"max\|u0\|\^\(p-1\) = inf"):
        initial_state(u0, 0.01, 7.0)


def test_a_zero_time_step_is_refused(small_setup):
    d, gs = small_setup
    with pytest.raises(DomainError, match="dt must be nonzero"):
        initial_state(GraphFunction(d, gs.psi0.values.astype(complex)), 0.0, 5.0)


def test_orbit_distance_identities(small_setup):
    d, gs = small_setup
    phi = evaluate_wave(ClosedFormWave(3, 1.0, 6.0, 0.3, 0), d)
    rotated = GraphFunction(d, np.exp(1j * math.pi / 4) * phi.values)
    dist, theta = orbit_distance(rotated, phi)
    # the norm of the difference itself is at round-off, where the expanded
    # sqrt(||u||^2 + ||phi||^2 - 2|<u, phi>|) would stall near sqrt(eps)
    assert dist <= 1e-12 * math.sqrt(h1_norm_sq(phi))
    assert theta == pytest.approx(math.pi / 4, abs=1e-12)

    delta = 1e-4
    bumped = GraphFunction(d, phi.values + delta * gs.psi0.values)
    dist, theta = orbit_distance(bumped, phi)
    assert dist == pytest.approx(delta * math.sqrt(h1_norm_sq(gs.psi0)), rel=1e-6)

    alpha = 0.9
    d1, t1 = orbit_distance(bumped, phi)
    rot = GraphFunction(d, np.exp(1j * alpha) * bumped.values)
    d2, t2 = orbit_distance(rot, phi)
    assert d2 == pytest.approx(d1, rel=1e-12)
    assert (t2 - t1) == pytest.approx(alpha, abs=1e-10)

    with pytest.raises(DomainError):
        orbit_distance(phi, GraphFunction(d, np.full(d.n_nodes, 0j)))


def test_the_h1_distance_refuses_a_second_grid():
    # two 298-node 3-stars: the distance mixed their grids and read 0.5145
    # one way round and 0.4026 the other
    da = mesh.build(make_star(StarGraphSpec(3, 1.0, 10.0)), 0.1)
    db = mesh.build(make_star(StarGraphSpec(3, 1.0, 5.0)), 0.05)
    assert da.n_nodes == db.n_nodes == 298
    a, b = ground_state(da).psi0, ground_state(db).psi0
    for u, v in ((a, b), (b, a)):
        with pytest.raises(DomainError, match="v lives on another grid than u"):
            mesh.h1_inner(u, v)
        with pytest.raises(DomainError, match="phi_ref lives on another grid than u"):
            orbit_distance(u, v)
    assert orbit_distance(a, a)[0] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sup, field", [(2.5e6, "inf"), (1e308 ** (1 / 49), "1e\\+308")])
def test_an_overflowing_field_is_refused_without_a_warning(sup, field):
    # 3x the exact p = 50 wave starts below the guard (sup 3.197, guard
    # 3.2e6); scaled to sup 2.5e6, max|u|^49 overflows, which warned
    # "overflow encountered in power" before the singular matrix was
    # refused; at a field of 1e308, doubling it warned "... in multiply"
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 10.0)), 0.1)
    u0 = GraphFunction(d, 3.0 * evaluate_wave(ClosedFormWave(3, 1.0, 50.0, 1.0, 0), d).values)
    state = initial_state(u0, 0.01, 50.0)
    assert state.traj.guard == pytest.approx(3.2e6, rel=1e-3)
    big = dataclasses.replace(state, values=state.values * (sup / np.max(np.abs(u0.values))))
    with pytest.raises(DomainError, match=rf"max\|u\|\^\(p-1\) = {field}: .* singular"):
        step(big)


@pytest.fixture(scope="module")
def reference_minimizer(small_setup):
    d, gs = small_setup
    return d, gs, minimize(d, 6.0, 1.8, 1.0, tau=1.0, tol=1e-9, ground=gs)


def test_stationary_data_stays_on_orbit(reference_minimizer):
    d, gs, res = reference_minimizer
    trace = stability_experiment(
        d, 6.0, res.phi, delta=0.0, t_final=2.0, dt=0.01, bump=gs.psi0, n_samples=20
    )
    assert max(trace.orbit_distance) <= 1e-5
    assert trace.mass_drift[0] == 0.0 and trace.energy_drift[0] == 0.0
    assert max(trace.mass_drift) <= 1e-10


def test_perturbation_response_is_linear(reference_minimizer):
    d, gs, res = reference_minimizer
    t1 = stability_experiment(
        d, 6.0, res.phi, delta=1e-2, t_final=1.0, dt=0.01, bump=gs.psi0, n_samples=10
    )
    t2 = stability_experiment(
        d, 6.0, res.phi, delta=2e-2, t_final=1.0, dt=0.01, bump=gs.psi0, n_samples=10
    )
    ratios = np.array(t2.orbit_distance[1:]) / np.array(t1.orbit_distance[1:])
    assert np.all((ratios > 1.7) & (ratios < 2.3))


def test_noise_mode_is_seeded(reference_minimizer):
    d, gs, res = reference_minimizer
    kw = dict(delta=1e-2, t_final=0.2, dt=0.01, mode="multiplicative-noise", n_samples=4)
    a = stability_experiment(d, 6.0, res.phi, seed=7, **kw)
    b = stability_experiment(d, 6.0, res.phi, seed=7, **kw)
    c = stability_experiment(d, 6.0, res.phi, seed=8, **kw)
    assert a.orbit_distance == b.orbit_distance
    assert a.orbit_distance != c.orbit_distance
    with pytest.raises(DomainError):
        stability_experiment(d, 6.0, res.phi, delta=1e-2, t_final=0.1, dt=0.01,
                             mode="bogus")
    with pytest.raises(DomainError, match="needs a bump profile"):
        stability_experiment(d, 6.0, res.phi, delta=1e-2, t_final=0.1, dt=0.01)


def test_stability_and_evolve_share_one_loop(reference_minimizer):
    d, _, res = reference_minimizer
    n_steps, n_samples, dt = 60, 7, 0.01
    trace = stability_experiment(
        d, 6.0, res.phi, delta=0.0, t_final=n_steps * dt, dt=dt, n_samples=n_samples
    )
    # delta = 0 leaves the start exactly at the reference profile
    _, ev = evolve(d, 6.0, res.phi, dt, n_steps * dt, sample_every=n_steps // n_samples)
    assert trace.times == ev.times
    e0 = ev.energy[0]
    assert trace.energy_drift == [abs(e - e0) / abs(e0) for e in ev.energy]


@pytest.mark.parametrize("n_samples", [0, -1])
def test_stability_sample_count_must_be_positive(reference_minimizer, n_samples):
    # 0 had raised ZeroDivisionError, and a negative count sampled every step
    d, gs, res = reference_minimizer
    with pytest.raises(DomainError, match="n_samples"):
        stability_experiment(d, 6.0, res.phi, delta=1e-2, t_final=0.1, dt=0.01, bump=gs.psi0,
                             n_samples=n_samples)


def test_a_state_holds_only_what_varies_along_its_trajectory(small_setup):
    # the grid, dt and p are the trajectory's, set once by initial_state: a
    # state whose t, dt, grid or p contradicted its workspace stepped silently
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    state = step(step(initial_state(u0, 0.01, 5.0)))
    assert [f.name for f in dataclasses.fields(state)] == ["values", "gamma_relax", "steps",
                                                           "traj"]
    assert (state.traj.d, state.traj.dt, state.traj.p) == (d, 0.01, 5.0)
    assert state.u.disc is d and state.t == state.steps * 0.01 == 0.02
    for bad in ({"t": 5.0}, {"dt": 0.02}, {"u": state.u}):
        with pytest.raises(TypeError):
            dataclasses.replace(state, **bad)


def test_the_time_loop_calls_step_through_the_module(monkeypatch, reference_minimizer):
    # the benchmark's tracer wraps evolution.step and reports its calls: a
    # loop that inlined the step would read zero there
    d, gs, res = reference_minimizer
    calls = []

    def counting_step(state):
        calls.append(state.steps)
        return step(state)

    monkeypatch.setattr(evolution, "step", counting_step)
    evolve(d, 6.0, res.phi, 0.01, 0.1)
    assert calls == list(range(10))
    calls.clear()
    stability_experiment(d, 6.0, res.phi, 0.01, 0.3, 0.01, bump=gs.psi0, n_samples=7)
    assert calls == list(range(30))


def test_a_function_on_another_grid_is_refused_naming_it():
    # gamma = 2 gives a grid of the same size: evolve on it stepped u0 with
    # that grid's matrix, and the energy jumped from -0.41291 to -1.23025 in
    # one step; the trajectory runs on u0's grid, so d must be that grid
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 10.0)), 0.1)
    d2 = mesh.build(make_star(StarGraphSpec(3, 2.0, 10.0)), 0.1)
    assert d2.n_nodes == d.n_nodes
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    energy = evolve(d, 5.0, u0, 0.01, 0.02)[1].energy
    assert energy[-1] == pytest.approx(energy[0], rel=1e-5)
    with pytest.raises(DomainError, match="u0 lives on another grid than d"):
        evolve(d2, 5.0, u0, 0.01, 0.02)
    bump = ground_state(d2).psi0
    with pytest.raises(DomainError, match="phi_ref lives on another grid than d"):
        stability_experiment(d2, 5.0, u0, 0.01, 0.02, 0.01, bump=bump)
    with pytest.raises(DomainError, match="bump lives on another grid than d"):
        stability_experiment(d, 5.0, u0, 0.01, 0.02, 0.01, bump=bump)
