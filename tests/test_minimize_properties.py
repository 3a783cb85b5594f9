"""Property tests of minimize on random small graphs with potentials: the
Newton polish changes the cost of a solve, not its outcome (except that it
may finish a flow that stalls short of the tolerance), the minimizer is
gauge equivariant, and the time stepper carries it along its phase orbit."""
import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphwave import minimizers
from graphwave.evolution import evolve, orbit_distance
from graphwave.errors import BallExitError, ConvergenceError, DomainError, GraphWaveError
from graphwave.graphs import Edge, MetricGraph, SquareWell, Vertex, ZeroPotential
from graphwave.mesh import Elimination, GraphFunction, build, h1_norm_sq
from graphwave.minimizers import minimize
from graphwave.spectrum import ground_state
from strategies import small_graphs


@st.composite
def bound_state_problems(draw):
    """A graph from strategies.small_graphs, with p and a mass below the
    feasibility bound."""
    d = draw(small_graphs())
    p = draw(st.sampled_from([5.0, 6.0, 7.0]))
    return d, p, draw(st.floats(0.05, 0.6))


def outcome(d, p, c, ground, **kw):
    try:
        return minimize(d, p, c, 1.0, tol=1e-10, max_iter=20000, ground=ground, **kw)
    except GraphWaveError as exc:
        return type(exc)


def h1_rel(x, ref):
    diff = GraphFunction(ref.disc, x.values - ref.values)
    return math.sqrt(h1_norm_sq(diff) / h1_norm_sq(ref))


@settings(max_examples=40, deadline=None)
@given(problem=bound_state_problems())
def test_newton_keeps_the_flow_outcome(problem):
    d, p, fraction = problem
    ground = ground_state(d)
    c = fraction / ground.lambda0
    with mock.patch.object(minimizers, "_newton", return_value=None):
        flow = outcome(d, p, c, ground)
    polished = outcome(d, p, c, ground)
    if flow is ConvergenceError and not isinstance(polished, type):
        # the one outcome Newton may change: a flow that stalls above the
        # tolerance, from which Newton reaches a stationary state in the ball
        assert polished.gradient_residual <= 1e-10
        assert polished.g_norm_sq <= 1.0
        return
    if isinstance(flow, type):
        assert polished is flow
        return
    assert not isinstance(polished, type), polished
    assert polished.newton_steps >= 1
    assert abs(polished.omega - flow.omega) <= 1e-6
    assert h1_rel(polished.phi, flow.phi) <= 1e-5


@settings(max_examples=30, deadline=None)
@given(d=small_graphs(), p=st.floats(5.0, 7.0), fraction=st.floats(0.05, 0.9))
def test_real_descent_matches_the_complex_reference(d, p, fraction):
    # the default start sqrt(c) psi0 is real, and minimize descends in real
    # arithmetic; the same start passed as a complex init takes the complex
    # path, the reference
    ground = ground_state(d)
    c = fraction / ground.lambda0
    real = outcome(d, p, c, ground)
    init = GraphFunction(d, math.sqrt(c) * ground.psi0.values.astype(complex))
    cplx = outcome(d, p, c, ground, init=init)
    if isinstance(cplx, type):
        assert real is cplx
        return
    assert not isinstance(real, type), real
    assert real.phi.values.dtype == cplx.phi.values.dtype == np.complex128
    assert real.omega == pytest.approx(cplx.omega, rel=1e-12, abs=0.0)
    assert real.energy == pytest.approx(cplx.energy, rel=1e-12, abs=0.0)
    assert (real.iterations, real.newton_steps) == (cplx.iterations, cplx.newton_steps)
    flags = {k for k in real.diagnostics if k.endswith("_ok")}
    assert {k: real.diagnostics[k] for k in flags} == {k: cplx.diagnostics[k] for k in flags}


@settings(max_examples=25, deadline=None)
@given(problem=bound_state_problems(), k=st.integers(-200, 200), seed=st.integers(0, 2**32 - 1))
def test_minimize_start_is_rescaled_exactly(problem, k, seed):
    # minimize scales its start by sqrt(c / mass): a power of two in front
    # of the start cancels bit for bit, until the start's squares overflow
    # or underflow, and such a start is refused naming init
    d, p, fraction = problem
    ground = ground_state(d)
    c = fraction / ground.lambda0
    noise = np.random.default_rng(seed).uniform(0.5, 1.5, d.n_nodes)
    start = ground.psi0.values * noise + 0.0j

    def run(values):
        try:
            return minimize(d, p, c, 1.0, tau=1.0, tol=1e-8, max_iter=300, ground=ground,
                            init=GraphFunction(d, values))
        except GraphWaveError as exc:
            return type(exc), str(exc)

    base, scaled = run(start), run(2.0**k * start)
    if isinstance(base, tuple):
        assert scaled == base
    else:
        np.testing.assert_array_equal(scaled.phi.values, base.phi.values)
        assert (scaled.iterations, scaled.newton_steps, scaled.energy, scaled.omega) == (
            base.iterations, base.newton_steps, base.energy, base.omega)
    for huge in (600, -600):
        with pytest.raises(DomainError, match="init has mass"):
            minimize(d, p, c, 1.0, tau=1.0, ground=ground,
                     init=GraphFunction(d, 2.0**huge * start))


def star_with_well(truncations, depth, start):
    """A 3-star with gamma = 1 and a square well of width 2 on half-line h2,
    on small_graphs' grid: a case that test_newton_keeps_the_flow_outcome
    drew."""
    edges = tuple(
        Edge(f"h{k}", "v0", None, math.inf, trunc,
             potential=SquareWell(depth, start, 2.0) if k == 2 else ZeroPotential())
        for k, trunc in enumerate(truncations))
    g = MetricGraph((Vertex("v0", 1.0),), edges).validate()
    return build(g, sum(e.grid_length for e in g.edges) / 280.0)


def test_newton_saddle_does_not_hide_a_ball_exit():
    # Newton from the first flow iterate converges to a stationary point
    # inside the ball with two negative eigenvalues of J, a saddle on the
    # mass sphere; the flow leaves the ball
    d = star_with_well((8.0, 8.0, 8.0), -0.4375, 2.0)
    ground = ground_state(d)
    with pytest.raises(BallExitError):
        minimize(d, 6.0, 0.6 / ground.lambda0, 1.0, tol=1e-10, max_iter=20000, ground=ground)


def test_newton_saddle_is_not_returned():
    # Newton from the first flow iterate would return the saddle
    # omega = 0.227510, E = -0.213807; the minimizer is the flow's
    d = star_with_well((8.0, 8.0, 9.0), -0.421875, 2.875)
    ground = ground_state(d)
    res = minimize(d, 5.0, 0.375 / ground.lambda0, 1.0, tol=1e-10, max_iter=20000,
                   ground=ground)
    assert res.newton_steps >= 1
    assert res.omega == pytest.approx(0.978610, abs=1e-6)
    assert res.energy == pytest.approx(-0.320793, abs=1e-6)
    shift = res.omega * d.m - 5.0 * d.m * np.abs(res.phi.values) ** 4
    solve = Elimination(d, float)
    solve.refactor(shift)
    assert solve.n_negative() == 1


@settings(max_examples=25, deadline=None)
@given(problem=bound_state_problems(), theta=st.floats(0.0, 2.0 * math.pi))
def test_minimize_gauge_equivariance(problem, theta):
    d, p, fraction = problem
    ground = ground_state(d)
    c = fraction / ground.lambda0
    start = math.sqrt(c) * ground.psi0.values.astype(complex)
    base = outcome(d, p, c, ground, init=GraphFunction(d, start))
    rotated = outcome(d, p, c, ground, init=GraphFunction(d, cmath.exp(1j * theta) * start))
    if isinstance(base, type):
        assert rotated is base
        return
    expected = GraphFunction(d, cmath.exp(1j * theta) * base.phi.values)
    assert h1_rel(rotated.phi, expected) <= 1e-9
    assert abs(rotated.omega - base.omega) <= 1e-12
    np.testing.assert_allclose(rotated.energy, base.energy, rtol=1e-12)


@settings(max_examples=10, deadline=None)
@given(problem=bound_state_problems())
def test_minimizer_is_a_fixed_orbit_of_the_time_stepper(problem):
    # a CN step maps an exact stationary state u (A u + omega M u =
    # M |u|^{p-1} u) to a phase rotation of itself.  The minimizer's residual
    # q = M^{-1}(A u - M |u|^{p-1} u) + omega u, ||q||_M = residual sqrt(c),
    # makes each step miss that rotation by (1 + rho)/2 L^{-1} M q with
    # |rho| = 1, and ||(i M/dt - H/2)^{-1} M||_M <= dt for symmetric H, so
    # by at most dt ||q||_M; round-off adds eps (1 + dt max|M^{-1} A|) sqrt(c)
    # per step.  kappa = sqrt(1 + max 2 K_ii/m_i) bounds the H1 norm by the
    # M-norm (Gershgorin on M^{-1} K), and the factor 2 allows earlier
    # misses to grow under the linearized flow over this short T.
    d, p, fraction = problem
    ground = ground_state(d)
    c = fraction / ground.lambda0
    res = outcome(d, p, c, ground)
    assume(not isinstance(res, type))
    dt, t_final = 0.02, 1.0
    u_t, _ = evolve(d, p, res.phi, dt, t_final, sample_every=50)
    kappa = math.sqrt(1.0 + float(np.max(2.0 * d.K.diagonal() / d.m)))
    a_max = float(np.max(abs(d.A).sum(axis=1).A1 / d.m))
    per_step = (dt * res.gradient_residual
                + np.finfo(float).eps * (1.0 + dt * a_max)) * math.sqrt(c)
    bound = 2.0 * kappa * round(t_final / dt) * per_step
    assert orbit_distance(u_t, res.phi)[0] <= bound
