import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwave import evolution, mesh
from graphwave.errors import BlowUpError, ConfigurationError, DomainError
from graphwave.evolution import (
    EvolutionState,
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


def test_linear_evolution_of_eigenfunction(small_setup):
    d, gs = small_setup
    errs = []
    for dt in (0.02, 0.01):
        u0 = GraphFunction(d, gs.psi0.values.astype(complex))
        uT, _ = evolve(d, None, u0, dt, 1.0, sample_every=10**9)
        exact = np.exp(1j * gs.lambda0 * 1.0) * gs.psi0.values
        errs.append(float(np.max(np.abs(uT.values - exact))))
    assert errs[1] <= 1e-7
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)


def test_linear_overlap_modulus_constant(small_setup):
    d, gs = small_setup
    u0 = GraphFunction(d, gs.psi0.values.astype(complex))
    state = initial_state(u0, 0.01, None)
    base = abs(np.sum(d.m * state.u.values * gs.psi0.values))
    for _ in range(100):
        state = step(state, d, None)
    after = abs(np.sum(d.m * state.u.values * gs.psi0.values))
    assert after == pytest.approx(base, rel=1e-12)


def test_linear_evolve_factors_once(monkeypatch, small_setup):
    # the linear flow's CN matrix never changes, so one factorization serves
    # every step; the nonlinear flow needs one per step (the trajectory
    # refactors its one workspace)
    d, gs = small_setup
    calls = []
    refactor = mesh.Elimination.refactor

    def counting_refactor(self, shift):
        calls.append(shift)
        return refactor(self, shift)

    monkeypatch.setattr(mesh.Elimination, "refactor", counting_refactor)
    u0 = GraphFunction(d, gs.psi0.values.astype(complex))
    evolve(d, None, u0, 0.01, 1.0, sample_every=10)
    assert len(calls) == 1
    calls.clear()
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
    state = EvolutionState(t=0.5, u=GraphFunction(d, u), gamma_relax=gam_prev, dt=dt)
    out = step(state, d, p)
    gam = 2.0 * np.abs(u) ** (p - 1.0) - gam_prev
    half = 0.5 * d.A.toarray()
    rhs = (1j * d.m / dt - 0.5 * d.m * gam) * u + half @ u
    ref = np.linalg.solve(np.diag(1j * d.m / dt + 0.5 * d.m * gam) - half, rhs)
    assert np.linalg.norm(out.u.values - ref) <= 1e-10 * np.linalg.norm(ref)
    np.testing.assert_array_equal(out.gamma_relax, gam)
    assert out.t == 0.5 + dt
    np.testing.assert_array_equal(state.u.values, u)


@pytest.mark.parametrize("p, sample_every", [(5.0, 1), (5.0, 3), (None, 4)])
def test_yielded_states_are_never_written_again(small_setup, p, sample_every):
    # the time loop recycles the arrays of the states it keeps to itself;
    # a state it has handed out must keep its values
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    kept = []
    for state in evolution._trajectory(d, p, u0, 0.01, 20, sample_every):
        kept.append((state, state.u.values.copy(), state.gamma_relax.copy()))
    assert len(kept) == 1 + 20 // sample_every + (20 % sample_every > 0)
    for state, u, gam in kept:
        np.testing.assert_array_equal(state.u.values, u)
        np.testing.assert_array_equal(state.gamma_relax, gam)
    assert len({id(state.u.values) for state, _, _ in kept}) == len(kept)


@pytest.mark.parametrize("sample_every", [1, 3])
def test_trajectory_reusing_the_modulus_is_bit_identical(small_setup, sample_every):
    # a trajectory takes |u| for |u|^{p-1} from the last step's sup pass;
    # a step on a workspace of its own computes it afresh
    d, _ = small_setup
    u0 = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, 1.0, 0), d)
    uT, trace = evolve(d, 5.0, u0, 0.01, 0.12, sample_every=sample_every)
    state, energies = initial_state(u0, 0.01, 5.0), [trace.energy[0]]
    for k in range(1, 13):
        state = step(state, d, 5.0)
        if k % sample_every == 0:
            energies.append(evolution.energy(state.u, 5.0).total)
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
        state = step(state, d, 5.0)
    back = initial_state(state.u, -dt, 5.0)
    for _ in range(n):
        back = step(back, d, 5.0)
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
        evolve(d, None, u0, dt, t_final, sample_every=sample_every)
    if sample_every == 1:
        with pytest.raises(DomainError):
            stability_experiment(d, 6.0, u0, delta=0.0, t_final=t_final, dt=dt)


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
    with pytest.raises(BlowUpError):
        step(state, d, 5.0, sup_guard=1e-12)


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
        orbit_distance(phi, d.zeros())


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
