import math
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from graphwave import mesh, spectrum
from graphwave.errors import AssumptionError, DomainError
from graphwave.graphs import Edge, MetricGraph, SquareWell, StarGraphSpec, Vertex, make_star
from graphwave.mesh import GraphFunction, mass, quadratic_form
from graphwave.spectrum import GroundStatePair, ground_state, spectral_gap, spectral_gap_report
from strategies import branching_graphs, has_negative_eigenvalue, small_graphs

# examples of the gates against dense eigh; CI also runs them with 300
GAP_EXAMPLES = int(os.environ.get("GRAPHWAVE_GAP_EXAMPLES", "30"))
# ground_state's iterations (Newton steps and solves) and factorizations on
# branching_graphs: medians 6 and 5, at most 13 and 14 over 19000 random
# draws (Newton in sigma alone took up to 19 and 20 on another 19000); the
# most come where T's bottom lies just above 0, where each Newton step only
# doubles the distance to that pole of the secular function
STEP_BOUND, FACTOR_BOUND = 22, 22


def test_star3_ground_state(ground_h01):
    assert abs(ground_h01.lambda0 - 1.0 / 9.0) <= 1e-4
    assert ground_h01.residual <= 1e-10
    assert mass(ground_h01.psi0) == pytest.approx(1.0, abs=1e-10)
    assert float(np.min(ground_h01.psi0.values.real)) > 0.0


def test_star3_ground_state_takes_few_iterations(disc_h02, ground_h02):
    # the certified Rayleigh shifts close in on -lambda0 within about ten
    # iterations
    assert disc_h02.n_nodes == 5998
    assert ground_h02.iterations <= 12


def test_star3_ground_state_takes_few_factorizations(ground_h02):
    # one step in sigma from 0, then steps in kappa = sqrt(-sigma), in which a
    # half-line's secular function is nearly linear
    assert ground_h02.factorizations <= 5


def test_line_with_delta_strength_two():
    # two half-lines with a strength-2 vertex: lambda0 = (gamma/N)^2 = 1
    g = make_star(StarGraphSpec(2, 2.0, 25.0))
    pair = ground_state(mesh.build(g, 0.01))
    assert abs(pair.lambda0 - 1.0) <= 1e-4


def test_repulsive_vertex_has_no_bound_state():
    g = MetricGraph(
        vertices=(Vertex("v", -1.0),),
        edges=tuple(Edge(f"e{i}", "v", None, math.inf, 30.0) for i in range(3)),
    ).validate()
    with pytest.raises(AssumptionError, match="no negative ground energy"):
        ground_state(mesh.build(g, 0.02))


def test_grid_step_below_float_resolution_is_refused_at_once():
    # at h = 1.25e-101 the first iterate's entries are near 1e-151, its
    # M-norm underflows to 0, and every later iterate would be NaN
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 1e-100)), 1e-100 / 8)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="h=1.25e-101"):
        ground_state(d)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
def test_ground_state_tol_must_be_positive_and_finite(disc_h02, tol):
    with pytest.raises(DomainError, match="tolerance"):
        ground_state(disc_h02, tol=tol)


def test_loose_tol_does_not_invent_a_missing_bound_state():
    # the first iterate's Rayleigh quotient is positive here (7.978e-3) and
    # its residual is below 0.5, but it does not prove lambda0 <= 0
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    assert ground_state(d, tol=0.5).lambda0 > 0
    assert ground_state(d, tol=1e-3).lambda0 == pytest.approx(ground_state(d).lambda0, abs=1e-4)


def test_rayleigh_identity_and_principle(disc_h01, ground_h01, rng):
    lam0 = ground_h01.lambda0
    assert quadratic_form(ground_h01.psi0) == pytest.approx(-lam0, abs=10 * ground_h01.tol)
    for _ in range(8):
        u = GraphFunction(disc_h01, rng.standard_normal(disc_h01.n_nodes))
        assert quadratic_form(u) >= -lam0 * mass(u) - 1e-8 * mass(u)


def test_eigen_residual_definition(disc_h01, ground_h01):
    A, m = disc_h01.A, disc_h01.m
    v = ground_h01.psi0.values.real
    r = A @ v - (-ground_h01.lambda0) * (m * v)
    assert np.linalg.norm(r) / np.linalg.norm(m * v) <= 10 * ground_h01.tol


def test_mesh_convergence_order(star3):
    # L = 40 keeps the truncation tail (~1e-12) far below discretization error
    errs = []
    for h in (0.04, 0.02, 0.01):
        pair = ground_state(mesh.build(star3, h))
        errs.append(abs(pair.lambda0 - 1.0 / 9.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.7)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.7)


def test_cross_check_against_arpack():
    g = make_star(StarGraphSpec(3, 1.0, 30.0))
    d = mesh.build(g, 0.05)
    pair = ground_state(d)
    vals = eigsh(
        d.A, k=2, M=sp.diags(d.m), sigma=-2.0, which="LM",
        return_eigenvectors=False,
    )
    vals = np.sort(vals)
    assert pair.lambda0 == pytest.approx(-vals[0], abs=1e-9)
    assert spectral_gap(pair)[0] == pytest.approx(vals[1] - vals[0], abs=1e-7)


def test_gap_scales_with_truncation():
    # essential spectrum starts at 0: the second eigenvalue of the truncated
    # problem behaves like (pi/L)^2 modes, so gap -> lambda0 from above
    gaps = {}
    for L in (20.0, 40.0):
        pair = ground_state(mesh.build(make_star(StarGraphSpec(3, 1.0, L)), 0.02))
        gaps[L] = spectral_gap(pair)[0] - pair.lambda0
    assert gaps[40.0] < gaps[20.0]
    assert gaps[40.0] == pytest.approx(0.0, abs=4 * (math.pi / 40.0) ** 2)


def test_gap_report_flags(ground_h01):
    gap, _ = spectral_gap(ground_h01)
    rep = spectral_gap_report(ground_h01, gap)
    assert rep["isolation_certified"]
    assert rep["gap_over_lambda0"] == pytest.approx(gap / ground_h01.lambda0)
    tiny = GroundStatePair(
        lambda0=1.0 / 9.0, psi0=ground_h01.psi0,
        iterations=1, residual=1e-11, tol=1e-10,
    )
    assert not spectral_gap_report(tiny, gap=5e-10)["isolation_certified"]


def test_ground_state_makes_one_eigen_solve(monkeypatch, disc_h02):
    calls = []
    solve = spectrum._shift_invert_smallest

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_shift_invert_smallest", counted)
    ground_state(disc_h02)
    assert len(calls) == 1


def test_residual_floor_on_a_fine_grid(star3):
    # 96k nodes: round-off holds the residual near 1.6e-10, above the
    # default tol, so the solve stops at the floor 2 eps max|diag A| / min m
    d = mesh.build(star3, 0.00125)
    pair = ground_state(d)
    assert d.n_nodes > 95_000
    assert pair.tol > 1e-10
    assert pair.residual <= pair.tol
    assert abs(pair.lambda0 - 1.0 / 9.0) <= 1e-6


def test_gap_of_a_triple_second_eigenvalue_matches_dense_eigh():
    # four equal half-lines: the three modes that vanish at the vertex share
    # the second eigenvalue, and Lanczos must land on it, not past it
    d = mesh.build(make_star(StarGraphSpec(4, 1.0, 10.0)), 0.05)
    mu = eigh(d.A.toarray(), np.diag(d.m), eigvals_only=True, subset_by_index=[0, 4])
    assert mu[3] - mu[1] < 1e-10 * mu[1] < mu[4] - mu[3]
    gap, solves = spectral_gap(ground_state(d))
    assert gap == pytest.approx(mu[1] - mu[0], abs=1e-7)
    assert solves <= spectrum._MAX_LANCZOS


@settings(max_examples=GAP_EXAMPLES, deadline=None)
@given(d=small_graphs())
def test_spectral_gap_matches_dense_eigh(d):
    mu = eigh(d.A.toarray(), np.diag(d.m), eigvals_only=True, subset_by_index=[0, 1])
    pair = ground_state(d)
    # a Rayleigh shift past the bottom of the spectrum would converge elsewhere
    assert pair.lambda0 == pytest.approx(-mu[0], rel=1e-9)
    assert spectral_gap(pair)[0] == pytest.approx(mu[1] - mu[0], abs=1e-7)


@settings(max_examples=2 * GAP_EXAMPLES, deadline=None)
@given(drawn=branching_graphs())
def test_ground_state_matches_dense_eigh_where_the_loop_branches(drawn):
    d, kirchhoff = drawn
    A = d.A.toarray()
    v = eigh(A, np.diag(d.m), subset_by_index=[0, 0])[1][:, 0]
    # the Rayleigh quotient of eigh's vector: eigh's eigenvalue itself is off
    # by about eps ||M^{-1} A|| (8e-12 on a 581-node graph with lambda0 = 6.7e-3)
    mu0 = (v @ A @ v) / (v @ (d.m * v))
    if kirchhoff:
        # lambda0 = 0 exactly: A is singular, and the bottom's sign is round-off
        assert abs(mu0) < 1e-10
        with pytest.raises(AssumptionError, match="no negative ground energy"):
            ground_state(d)
        return
    if not has_negative_eigenvalue(A):
        with pytest.raises(AssumptionError, match="no negative ground energy"):
            ground_state(d)
        return
    pair = ground_state(d)
    assert pair.lambda0 == pytest.approx(-mu0, rel=1e-9)
    assert pair.iterations <= STEP_BOUND and pair.factorizations <= FACTOR_BOUND


@pytest.mark.parametrize("h", [0.05, 0.02])
@pytest.mark.parametrize("length", [1.0, 1.3, 1.7, 2.1, 2.9])
def test_kirchhoff_theta_graph_has_no_bound_state(length, h):
    # two alpha = 0 vertices joined by three W = 0 edges: the ground energy is
    # 0 exactly, and a Rayleigh quotient of round-off size, either sign, is
    # no bound state (at L = 1.0 and 2.9 one of -1.6e-15 to -4.2e-15 was
    # taken for one)
    g = MetricGraph(
        vertices=(Vertex("a", 0.0), Vertex("b", 0.0)),
        edges=tuple(Edge(f"e{k}", "a", "b", ell) for k, ell in enumerate((length, 1.0, 0.8))),
    )
    with pytest.raises(AssumptionError, match="no negative ground energy"):
        ground_state(mesh.build(g, h))


def test_a_newton_step_stalled_under_an_edge_eigenvalue_is_not_taken_for_convergence():
    # the well on h0 puts the bottom of the edge block T 1.4e-8 above 0, so
    # at sigma = 0 the secular function's slope is huge and the Newton step
    # tiny; inverse iteration there finds 9.6e-3, the eigenvalue nearest 0,
    # and reading it as the ground state would deny the bound state at -1
    from scipy.linalg import eigvalsh_tridiagonal

    g = MetricGraph(
        vertices=(Vertex("v", 2.0),),
        edges=(Edge("h0", "v", None, math.inf, 10.0,
                    potential=SquareWell(-0.166035, 3.0, 3.0)),
               Edge("h1", "v", None, math.inf, 10.0)),
    ).validate()
    d = mesh.build(g, 0.05)
    s = 1.0 / np.sqrt(d.m[1:])
    t_bottom = eigvalsh_tridiagonal(d._diag[1:] * s * s, d._off * s[:-1] * s[1:],
                                    select="i", select_range=(0, 0))[0]
    assert 1e-9 < t_bottom < 1e-7
    mu = eigh(d.A.toarray(), np.diag(d.m), eigvals_only=True, subset_by_index=[0, 1])
    assert mu[0] < -0.99 and 0 < mu[1] < 0.01
    assert ground_state(d).lambda0 == pytest.approx(-mu[0], rel=1e-9)


def test_a_trial_shift_with_t_indefinite_runs_no_gttrf(monkeypatch):
    # the well on f binds inside the edge, so T is indefinite at sigma = 0: no
    # step is taken from that trial factor, and the solves from below factor T
    # by ?pttrf.  The trial at 0 ran ?gttrf, a Z solve and the Schur
    # complement, and nothing read them
    g = MetricGraph(
        vertices=(Vertex("a", 0.5), Vertex("b", 0.5)),
        edges=(Edge("f", "a", "b", 3.0, potential=SquareWell(-3.0, 0.5, 2.0)),
               Edge("ha", "a", None, math.inf, 20.0), Edge("hb", "b", None, math.inf, 20.0)),
    ).validate()
    d = mesh.build(g, 0.02)
    assert not mesh.factor(d, np.zeros(d.n_nodes)).definite
    calls, lapack = [], mesh._lapack

    def counted(names, dtype):
        found = lapack(names, dtype)
        if "gttrf" not in names:
            return found
        k = names.index("gttrf")

        def gttrf(*args, **kwargs):
            calls.append(dtype)
            return found[k](*args, **kwargs)
        return (*found[:k], gttrf, *found[k + 1:])

    monkeypatch.setattr(mesh, "_lapack", counted)
    pair = ground_state(d)
    mu = eigh(d.A.toarray(), np.diag(d.m), eigvals_only=True, subset_by_index=[0, 0])
    assert pair.lambda0 == pytest.approx(-mu[0], rel=1e-9)
    assert calls == []
