import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphwave import mesh
from graphwave.errors import ConfigurationError, DomainError, SchemaError
from graphwave.evolution import initial_state, step
from graphwave.graphs import Edge, MetricGraph, StarGraphSpec, Vertex, make_star
from graphwave.mesh import (
    GraphFunction,
    build,
    g_norm_sq,
    gn_ratio,
    grad_norm_sq,
    h1_norm_sq,
    load_function_csv,
    lp_norm,
    mass,
    quadratic_form,
    save_function_csv,
)
from graphwave.spectrum import ground_state
from strategies import small_graphs as graphs_with_potentials


def full(d, value):
    """The grid function of constant value on d."""
    return GraphFunction(d, np.full(d.n_nodes, value, complex))


def segment_graph(length=1.0, alpha_a=0.0, alpha_b=0.0):
    """Single finite segment; bypasses the external-edge requirement on
    purpose (the mesh layer accepts compact graphs for diagnostics)."""
    return MetricGraph(
        vertices=(Vertex("a", alpha_a), Vertex("b", alpha_b)),
        edges=(Edge("e", "a", "b", length),),
    )


def line_graph(alpha=0.0, length=10.0):
    """Two half-lines glued at one vertex: the real line with a delta."""
    return MetricGraph(
        vertices=(Vertex("v", alpha),),
        edges=(
            Edge("e1", "v", None, math.inf, length),
            Edge("e2", "v", None, math.inf, length),
        ),
    )


def test_node_count_star():
    d = build(make_star(StarGraphSpec(3, 1.0, 40.0)), 0.01)
    # 3999 interior nodes per edge (truncation endpoint eliminated) + vertex
    assert d.n_nodes == 3 * 3999 + 1
    assert all(eg.h == pytest.approx(0.01) for eg in d.edge_grids)


def test_segment_stiffness_matrix_hand_assembled():
    d = build(segment_graph(1.0), 0.25)
    expected = 4.0 * np.array(
        [
            [1, -1, 0, 0, 0],
            [-1, 2, -1, 0, 0],
            [0, -1, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, 0, 0, -1, 1],
        ],
        dtype=float,
    )
    # global order: the two vertices first, then the three interior nodes
    perm = [0, 2, 3, 4, 1]
    A = d.A.toarray()[np.ix_(perm, perm)]
    np.testing.assert_array_equal(A, expected)
    np.testing.assert_array_equal(d.A.toarray(), d.K.toarray())


def test_build_vertex_limit(monkeypatch):
    # the solver's Schur complement is dense V x V
    monkeypatch.setattr(mesh, "MAX_VERTICES", 2)
    assert build(segment_graph(1.0), 0.25).n_nodes == 5
    monkeypatch.setattr(mesh, "MAX_VERTICES", 1)
    with pytest.raises(ConfigurationError, match="2 vertices, above the limit 1"):
        build(segment_graph(1.0), 0.25)


def test_build_rejects_large_step():
    with pytest.raises(ConfigurationError, match="too large"):
        build(segment_graph(1.0), 0.3)


def test_build_node_limit(monkeypatch):
    # the 1.0 segment at h = 0.25 has exactly 5 nodes
    monkeypatch.setattr(mesh, "MAX_NODES", 5)
    assert build(segment_graph(1.0), 0.25).n_nodes == 5
    monkeypatch.setattr(mesh, "MAX_NODES", 4)
    with pytest.raises(ConfigurationError, match="above the limit 4"):
        build(segment_graph(1.0), 0.25)
    # a step so small that the cell count overflows to inf
    with pytest.raises(ConfigurationError, match="above the limit"):
        build(segment_graph(1.0), 1e-320)


def test_mass_examples(disc_h01, ground_h01):
    assert mass(full(disc_h01, 0.0)) == 0.0
    # u = 1: total measure 120 up to the eliminated half-weight at each truncation
    total = mass(full(disc_h01, 1.0))
    assert total == pytest.approx(120.0, abs=3 * 0.01 / 2 + 1e-9)
    assert mass(ground_h01.psi0) == pytest.approx(1.0, abs=1e-12)


def test_weights_positive_and_sum(disc_h01):
    assert np.all(disc_h01.m > 0)
    assert np.sum(disc_h01.m) == pytest.approx(120.0 - 3 * 0.01 / 2, abs=1e-9)


def test_form_zero_and_sine_line():
    L = 10.0
    d = build(line_graph(alpha=0.0, length=L), 0.01)
    assert quadratic_form(full(d, 0.0)) == 0.0
    u = d.from_edge_profiles(lambda k, x: np.sin(math.pi * x / L) * (1 if k == 0 else -1))
    exact = 2.0 * (math.pi / L) ** 2 * (L / 2.0)
    assert quadratic_form(u) == pytest.approx(exact, rel=1e-3)


def test_form_constant_sees_only_vertex_term():
    # all-finite star so the constant lies in the discrete space exactly
    g = MetricGraph(
        vertices=(Vertex("v", 0.75), Vertex("a"), Vertex("b"), Vertex("c")),
        edges=(
            Edge("e1", "v", "a", 3.0),
            Edge("e2", "v", "b", 4.0),
            Edge("e3", "v", "c", 5.0),
        ),
    )
    d = build(g, 0.05)
    assert quadratic_form(full(d, 1.0)) == pytest.approx(-0.75, abs=1e-12)


def test_stiffness_kernel_contains_constants_on_compact_graph():
    g = MetricGraph(
        vertices=(Vertex("v", 1.0), Vertex("a"), Vertex("b")),
        edges=(Edge("e1", "v", "a", 2.0), Edge("e2", "v", "b", 3.0),
               Edge("loop", "a", "b", 1.5)),
    )
    d = build(g, 0.05)
    ones = np.ones(d.n_nodes)
    np.testing.assert_allclose(d.K @ ones, 0.0, atol=1e-12)


def test_g_norm_examples(disc_h01, ground_h01):
    lam0 = ground_h01.lambda0
    assert g_norm_sq(full(disc_h01, 0.0), lam0) == 0.0
    c = 2.7
    psi_c = GraphFunction(disc_h01, math.sqrt(c) * ground_h01.psi0.values)
    assert g_norm_sq(psi_c, lam0) == pytest.approx(lam0 * c, abs=1e-8)


def test_g_norm_lower_bound_random(disc_h01, ground_h01, rng):
    lam0 = ground_h01.lambda0
    for _ in range(10):
        u = GraphFunction(disc_h01, rng.standard_normal(disc_h01.n_nodes))
        slack = g_norm_sq(u, lam0) - lam0 * mass(u)
        assert slack >= -1e-8 * mass(u)


def test_lp_norm_examples(disc_h01, rng):
    assert lp_norm(full(disc_h01, 0.0), 6.0) == 0.0
    measure = float(np.sum(disc_h01.m))
    assert lp_norm(full(disc_h01, 1.0), 6.0) == pytest.approx(measure ** (1 / 6), rel=1e-12)
    for _ in range(5):
        u = rng.standard_normal(disc_h01.n_nodes)
        v = rng.standard_normal(disc_h01.n_nodes)
        lhs = lp_norm(GraphFunction(disc_h01, u + v), 3.0)
        rhs = lp_norm(GraphFunction(disc_h01, u), 3.0) + lp_norm(GraphFunction(disc_h01, v), 3.0)
        assert lhs <= rhs + 1e-12
    with pytest.raises(DomainError):
        lp_norm(full(disc_h01, 1.0), 0.5)


def test_h1_norm_examples(disc_h01, ground_h01, rng):
    assert h1_norm_sq(full(disc_h01, 0.0)) == 0.0
    # constant on a compact graph: no gradient, h1 = measure exactly
    g = MetricGraph(
        vertices=(Vertex("v", 0.0), Vertex("a"), Vertex("b"), Vertex("c")),
        edges=(Edge("e1", "v", "a", 30.0), Edge("e2", "v", "b", 40.0),
               Edge("e3", "v", "c", 50.0)),
    )
    dc = build(g, 0.05)
    assert h1_norm_sq(full(dc, 1.0)) == pytest.approx(120.0, abs=1e-9)
    assert grad_norm_sq(full(dc, 1.0)) == 0.0
    # on the truncated star the constant pays the Dirichlet kink at each far end
    kink = sum(1.0 / eg.h for eg in disc_h01.edge_grids if eg.gidx[-1] < 0)
    measure = float(np.sum(disc_h01.m))
    assert h1_norm_sq(full(disc_h01, 1.0)) == pytest.approx(measure + kink, rel=1e-12)
    # equivalence with the localization norm: finite empirical constant
    lam0 = ground_h01.lambda0
    ratios = []
    for _ in range(10):
        u = GraphFunction(disc_h01, rng.standard_normal(disc_h01.n_nodes))
        ratios.append(h1_norm_sq(u) / (g_norm_sq(u, lam0) + lam0 * mass(u)))
    assert all(0.0 < r < 100.0 for r in ratios)


def test_form_symmetry_random(disc_h02, rng):
    A = disc_h02.A
    for _ in range(5):
        u = rng.standard_normal(disc_h02.n_nodes)
        v = rng.standard_normal(disc_h02.n_nodes)
        scale = abs(u @ (A @ u)) + abs(v @ (A @ v)) + 1.0
        assert abs(u @ (A @ v) - v @ (A @ u)) <= 1e-10 * scale


def test_form_convergence_line_with_delta():
    # gamma = 2 on the line: ground profile e^{-|x|}, form = -gamma/2 = -1 * mass
    gamma, L = 2.0, 20.0
    exact_form = -gamma / 2.0
    errs = []
    for h in (0.02, 0.01):
        d = build(line_graph(alpha=gamma, length=L), h)
        u = d.from_edge_profiles(lambda k, x: np.exp(-x))
        errs.append(abs(quadratic_form(u) - exact_form))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_gn_ratio_invariances(disc_h02, rng):
    # bump on a single half-line; quadrature oracle on the analytic profile
    from scipy.integrate import quad

    f = lambda x: math.exp(-((x - 3.0) ** 2))
    fp = lambda x: -2.0 * (x - 3.0) * f(x)
    num = quad(lambda x: f(x) ** 6, 0, 40, epsabs=1e-13)[0]
    grad2 = quad(lambda x: fp(x) ** 2, 0, 40, epsabs=1e-13)[0]
    m2 = quad(lambda x: f(x) ** 2, 0, 40, epsabs=1e-13)[0]
    oracle = num / (grad2 * m2**2)

    u = disc_h02.from_edge_profiles(
        lambda k, x: np.exp(-((x - 3.0) ** 2)) if k == 0 else np.zeros_like(x)
    )
    base = gn_ratio(u, 5.0)
    assert base == pytest.approx(oracle, rel=1e-3)
    scaled = GraphFunction(disc_h02, 2.0 * np.exp(1j * 0.7) * u.values)
    assert gn_ratio(scaled, 5.0) == pytest.approx(base, rel=1e-13)
    with pytest.raises(DomainError):
        gn_ratio(full(disc_h02, 0.0), 5.0)


def test_gn_ratio_scaling_family_on_line():
    # lam^{1/2} u(lam x) leaves the ratio invariant on the free line
    d = build(line_graph(alpha=0.0, length=30.0), 0.005)
    vals = {}
    for lam in (1.0, 2.0):
        u = d.from_edge_profiles(
            lambda k, x, lam=lam: math.sqrt(lam) * np.exp(-((lam * x) ** 2))
        )
        vals[lam] = gn_ratio(u, 5.0)
    assert vals[1.0] == pytest.approx(vals[2.0], rel=1e-3)


def test_csv_roundtrip(tmp_path, disc_h02, rng):
    u = GraphFunction(
        disc_h02,
        rng.standard_normal(disc_h02.n_nodes) + 1j * rng.standard_normal(disc_h02.n_nodes),
    )
    path = tmp_path / "fn.csv"
    save_function_csv(u, path)
    v = load_function_csv(disc_h02, path)
    np.testing.assert_array_equal(u.values, v.values)


def test_csv_rejects_mismatched_grid(tmp_path, disc_h02):
    other = build(make_star(StarGraphSpec(3, 1.0, 40.0)), 0.03)
    path = tmp_path / "fn.csv"
    save_function_csv(full(other, 0.0), path)
    with pytest.raises(SchemaError, match="does not match the grid"):
        load_function_csv(disc_h02, path)


def test_csv_of_a_finer_grid_loads_at_the_shared_nodes(tmp_path, disc_h02):
    # h = 0.01 has every node of h = 0.02 (40 / 0.02 cells per edge) and one
    # between each two; the loader picks the rows at this grid's x
    fine = build(make_star(StarGraphSpec(3, 1.0, 40.0)), 0.01)
    u = fine.from_edge_profiles(lambda k, x: np.cos(x) + 1j * (k + 1) * x)
    path = tmp_path / "fine.csv"
    save_function_csv(u, path)
    loaded = load_function_csv(disc_h02, path)
    for eg, fine_eg in zip(disc_h02.edge_grids, fine.edge_grids):
        keep = eg.gidx >= 0
        np.testing.assert_array_equal(fine_eg.x[::2], eg.x)
        np.testing.assert_array_equal(loaded.values[eg.gidx[keep]],
                                      u.values[fine_eg.gidx[::2][keep]])


def test_csv_rejects_missing_edge(tmp_path, disc_h02):
    path = tmp_path / "fn.csv"
    with open(path, "w") as fh:
        fh.write("edge_id,x,re,im\nzz,0.0,1.0,0.0\n")
    with pytest.raises(SchemaError, match="missing edge"):
        load_function_csv(disc_h02, path)


@pytest.mark.parametrize("column", ["edge_id", "x", "re", "im"])
def test_csv_missing_column_is_a_schema_error(tmp_path, disc_h02, column):
    row = {k: v for k, v in {"edge_id": "e1", "x": "0.0", "re": "1.0", "im": "0.0"}.items()
           if k != column}
    path = tmp_path / "fn.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(SchemaError, match="needs columns edge_id,x,re,im"):
        load_function_csv(disc_h02, path)


def test_csv_missing_file_is_a_configuration_error(tmp_path, disc_h02):
    with pytest.raises(ConfigurationError, match="nope.csv"):
        load_function_csv(disc_h02, tmp_path / "nope.csv")


def test_csv_shuffled_rows_load_identically(tmp_path, disc_h02, rng):
    u = GraphFunction(
        disc_h02,
        rng.standard_normal(disc_h02.n_nodes) + 1j * rng.standard_normal(disc_h02.n_nodes),
    )
    path = tmp_path / "fn.csv"
    save_function_csv(u, path)
    header, *rows = path.read_text().splitlines()
    rng.shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    np.testing.assert_array_equal(load_function_csv(disc_h02, path).values, u.values)


def test_csv_columns_are_found_by_name(tmp_path, disc_h02, rng):
    # any column order loads, and a column the loader does not know is ignored
    n = disc_h02.n_nodes
    u = GraphFunction(disc_h02, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    path = tmp_path / "fn.csv"
    save_function_csv(u, path)
    rows = path.read_text().splitlines()
    path.write_text("".join(f"{im},note,{x},{edge},{re}\n"
                            for edge, x, re, im in (row.split(",") for row in rows)))
    np.testing.assert_array_equal(load_function_csv(disc_h02, path).values, u.values)


@pytest.mark.parametrize("rel, ok", [(0.5e-9, True), (2e-9, False)])
def test_csv_match_tolerance(tmp_path, disc_h02, rel, ok):
    # x is matched to 1e-9 (1 + |x|): at x = 10 a 2e-9 relative shift is out
    path = tmp_path / "fn.csv"
    save_function_csv(full(disc_h02, 1.0), path)
    header, *rows = path.read_text().splitlines()
    k = next(i for i, row in enumerate(rows) if row.split(",")[1] == "10.0")
    edge, x, re_, im = rows[k].split(",")
    rows[k] = ",".join([edge, repr(float(x) * (1.0 + rel)), re_, im])
    path.write_text("\n".join([header, *rows]) + "\n")
    if ok:
        assert np.all(load_function_csv(disc_h02, path).values == 1.0)
    else:
        with pytest.raises(SchemaError, match="near x = 10.0"):
            load_function_csv(disc_h02, path)


# ---------------------------------------------------------------------------
# the solver layer on random small graphs (at most about 300 nodes)
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw):
    """A star, a tree, a cycle or a self-loop, each with one or more
    half-lines, random lengths and couplings, and a grid step that keeps
    the node count below about 300."""
    kind = draw(st.sampled_from(["star", "tree", "cycle", "self-loop"]))
    lengths = st.floats(1.0, 3.0)
    alphas = st.floats(0.0, 1.5)
    if kind == "star":
        n_vertices, finite = 1, []
    elif kind == "tree":
        n_vertices = draw(st.integers(2, 4))
        finite = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_vertices)]
    elif kind == "cycle":
        n_vertices = draw(st.integers(2, 4))
        finite = [(k, (k + 1) % n_vertices) for k in range(n_vertices)]
    else:
        n_vertices, finite = 1, [(0, 0)]
    vertices = tuple(Vertex(f"v{k}", draw(alphas)) for k in range(n_vertices))
    edges = [Edge(f"f{k}", f"v{a}", f"v{b}", draw(lengths)) for k, (a, b) in enumerate(finite)]
    n_half = draw(st.integers(2 if kind == "star" else 1, 3))
    edges += [Edge(f"h{k}", f"v{draw(st.integers(0, n_vertices - 1))}", None, math.inf,
                   draw(lengths)) for k in range(n_half)]
    g = MetricGraph(vertices, tuple(edges)).validate()
    min_len = min(e.grid_length for e in g.edges)
    return build(g, min_len / 4.0 * draw(st.floats(0.5, 1.0)))


def test_factor_singular_matrix_is_a_domain_error():
    # Neumann segment without coupling: constants span the kernel of A, and
    # with h = 1/4 the elimination is exact, so SuperLU meets a zero pivot
    d = build(segment_graph(1.0), 0.25)
    with pytest.raises(DomainError, match="singular"):
        factored(d, np.zeros(d.n_nodes))


def factored(d, shift):
    """A + diag(shift) refactored into an Elimination of the shift's dtype."""
    solve = mesh.Elimination(d, np.result_type(d._diag, shift))
    solve.refactor(shift)
    return solve


def solved(solve, b):
    """The solution for b, of shape (n,) or (n, k), as a new array; a complex b
    on a real factor through its float view, as the flow solves its iterate."""
    x = np.array(b, np.result_type(b, solve.dtype))
    solve.solve_in_place((x.view(float) if solve.dtype == float else x).reshape(len(x), -1))
    return x


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_factor_matches_dense_solve(d, seed):
    assert d.n_nodes <= 300
    rng = np.random.default_rng(seed)
    n = d.n_nodes
    # real parts at least (1 - mu_min) m, with mu_min the bottom of A's
    # spectrum relative to M, keep A + diag(s) >= M; imaginary parts of one sign
    dense = d.A.toarray()
    mu_min = np.linalg.eigvalsh(dense / np.sqrt(np.outer(d.m, d.m)))[0]
    s_real = d.m * (rng.uniform(1.0, 20.0, n) - min(mu_min, 0.0))
    s_complex = s_real + 1j * rng.choice([-1.0, 1.0]) * d.m * rng.uniform(2.0, 50.0, n)
    b_real = rng.standard_normal(n)
    b_complex = b_real + 1j * rng.standard_normal(n)
    for s, b in ((s_real, b_real), (s_real, b_complex), (s_complex, b_complex)):
        ref = np.linalg.solve(dense + np.diag(s), b)
        x = solved(factored(d, s), b)
        assert x.dtype == ref.dtype
        assert rel_err(x, ref) <= 1e-10
    # the real shift lies below the spectrum: T is definite and LDL^T factors it
    assert np.linalg.eigvalsh(dense + np.diag(s_real))[0] > 0.0
    solve = factored(d, s_real)
    assert solve.definite and solve.n_negative() == 0


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1), level=st.floats(-3.0, 1.0))
def test_factor_counts_negative_eigenvalues(d, seed, level):
    # Haynsworth: the Sturm count of the edge block plus the negative
    # eigenvalues of the vertex Schur complement
    rng = np.random.default_rng(seed)
    s = d.m * (level + rng.uniform(-0.5, 0.5, d.n_nodes))
    eig = np.linalg.eigvalsh(d.A.toarray() + np.diag(s))
    assume(np.min(np.abs(eig)) > 1e-8 * np.max(np.abs(eig)))
    assert factored(d, s).n_negative() == int(np.sum(eig < 0.0))


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 0.1))
def test_linear_step_conserves_mass(d, seed, dt):
    rng = np.random.default_rng(seed)
    u0 = GraphFunction(d, rng.standard_normal(d.n_nodes) + 1j * rng.standard_normal(d.n_nodes))
    # the Cayley step conserves mass for any real relaxation field
    u1 = step(initial_state(u0, dt, 5.0)).u
    assert abs(mass(u1) - mass(u0)) <= 1e-12 * mass(u0)


@settings(max_examples=60, deadline=None)
@given(d=small_graphs())
def test_build_numbers_each_edge_interior_contiguously(d):
    # the Elimination relies on it: the vertices come first, then every edge's
    # interior nodes as one run, edge after edge, and the runs cover the rest
    V = len(d.graph.vertices)
    assert sorted(d.vertex_index.values()) == list(range(V))
    start = V
    for eg in d.edge_grids:
        interior = eg.gidx[1:-1]
        np.testing.assert_array_equal(interior, np.arange(start, start + interior.size))
        assert eg.gidx[0] < V and eg.gidx[-1] < V
        start += interior.size
    assert start == d.n_nodes


@settings(max_examples=60, deadline=None)
@given(d=st.one_of(small_graphs(), graphs_with_potentials()))
def test_build_assembles_as_a_scatter_over_the_edges_does(d):
    # the reference adds every node's share edge by edge, with np.add.at;
    # build fills each edge's interior block and accumulates only the vertex
    # ends, in the same order, so the arrays are equal bit for bit (the
    # self-loops of small_graphs add twice to one vertex)
    g, n = d.graph, d.n_nodes
    m, diag_k, diag_w = np.zeros(n), np.zeros(n), np.zeros(n)
    for e, eg in zip(g.edges, d.edge_grids):
        ga, gb = eg.gidx[:-1], eg.gidx[1:]
        np.add.at(diag_k, ga[ga >= 0], 1.0 / eg.h)
        np.add.at(diag_k, gb[gb >= 0], 1.0 / eg.h)
        w = np.full(eg.x.size, eg.h)
        w[0] = w[-1] = eg.h / 2.0
        keep = eg.gidx >= 0
        np.add.at(m, eg.gidx[keep], w[keep])
        np.add.at(diag_w, eg.gidx[keep], (e.potential.values_at(eg.x) * w)[keep])
    diag_alpha = np.zeros(n)
    for v in g.vertices:
        diag_alpha[d.vertex_index[v.id]] -= v.alpha
    np.testing.assert_array_equal(d.m, m)
    np.testing.assert_array_equal(d._diag_k, diag_k)
    np.testing.assert_array_equal(d._diag, diag_k + diag_w + diag_alpha)


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1), n_negative=st.integers(1, 3),
       pull=st.booleans())
def test_factor_matches_dense_solve_indefinite(d, seed, n_negative, pull):
    # the Newton shape: a real shift with a few negative eigenvalues, kept at
    # least 1e-3 max(m) from singular, and a two-column right-hand side.
    # With pull, one interior node sits far below the others, so the edge
    # block T is indefinite and ?gttrf factors it; without, T may be either
    rng = np.random.default_rng(seed)
    n, V = d.n_nodes, len(d.vertex_index)
    dense = d.A.toarray()
    s0 = d.m * rng.uniform(-5.0, 5.0, n)
    if pull:
        s0[V + rng.integers(n - V)] -= 10.0 * np.max(np.abs(np.diag(dense)))
    scale = np.sqrt(np.outer(d.m, d.m))
    mu = np.linalg.eigvalsh((dense + np.diag(s0)) / scale)
    s = s0 - 0.5 * (mu[n_negative - 1] + mu[n_negative]) * d.m
    eig = np.linalg.eigvalsh(dense + np.diag(s))
    assume(np.min(np.abs(eig)) >= 1e-3 * np.max(d.m))
    assert np.sum(eig < 0) == n_negative
    b = rng.standard_normal((n, 2))
    solve = factored(d, s)
    x = solved(solve, b)
    ref = np.linalg.solve(dense + np.diag(s), b)
    assert x.shape == (n, 2) and x.dtype == np.float64
    for j in range(2):
        assert rel_err(x[:, j], ref[:, j]) <= 1e-10
    # LDL^T exactly when T is positive definite, and the same count either way
    t_definite = np.linalg.eigvalsh(dense[V:, V:] + np.diag(s[V:]))[0] > 0.0
    assert solve.definite == t_definite and not (pull and t_definite)
    assert solve.n_negative() == n_negative


def test_factor_near_a_dirichlet_eigenvalue_of_an_edge():
    # a shift at the lowest eigenvalue of edge e1's interior block (to 1e-8)
    # makes that block nearly singular while A + diag(s) is well conditioned
    # (condition number ~1.5e3); eliminating through the block alone loses
    # about 8 digits, which the refinement step must win back
    g = MetricGraph(
        vertices=(Vertex("v", 0.5),),
        edges=(Edge("e1", "v", None, math.inf, 3.0), Edge("e2", "v", None, math.inf, 5.0)),
    ).validate()
    d = build(g, 0.1)
    eg = d.edge_grids[0]
    n_cells = eg.gidx.size - 1
    sigma = 2.0 / eg.h**2 * (1.0 - math.cos(math.pi / n_cells)) * (1.0 + 1e-8)
    s = -sigma * d.m
    b = np.ones(d.n_nodes)
    ref = np.linalg.solve(d.A.toarray() + np.diag(s), b)
    assert rel_err(solved(factored(d, s), b), ref) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 0.1))
def test_factor_solve_is_refactor_and_solve_in_place_bit_for_bit(d, seed, dt):
    # the CN step's shape, -m (gam + 2i/dt) and the right side -4i m/dt u:
    # the one ?gtsv pass eliminates T with ?gttrf's and ?gttrs's arithmetic,
    # on graphs whose Z has one column (stars, self-loops) and two (trees, cycles)
    rng = np.random.default_rng(seed)
    n = d.n_nodes
    shift = -d.m * (rng.uniform(0.0, 3.0, n) + 2j / dt)
    w, u = -4j * d.m / dt, rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fused = mesh.Elimination(d, complex)
    x = fused.factor_solve(shift, w, u).copy()
    kept = mesh.Elimination(d, complex)
    kept.refactor(shift)
    ref = (w * u)[:, None]
    kept.solve_in_place(ref)
    np.testing.assert_array_equal(x, ref[:, 0])
    assert fused.refine == kept.refine


def test_factor_solve_refines_through_a_kept_factor_near_a_dirichlet_eigenvalue():
    # the CN shift with gam at the lowest eigenvalue of edge e1's interior
    # block and a large dt, whose 2i/dt barely moves it off: |Z| >> 10, and
    # the fused call, which keeps no factor of T, falls back to refactor and
    # one refinement step
    g = MetricGraph(
        vertices=(Vertex("v", 0.5),),
        edges=(Edge("e1", "v", None, math.inf, 3.0), Edge("e2", "v", None, math.inf, 5.0)),
    ).validate()
    d = build(g, 0.1)
    eg = d.edge_grids[0]
    sigma = 2.0 / eg.h**2 * (1.0 - math.cos(math.pi / (eg.gidx.size - 1))) * (1.0 + 1e-8)
    dt = 1e6
    shift = -d.m * (sigma + 2j / dt)
    w, u = -4j * d.m / dt, np.exp(-np.arange(d.n_nodes) / 50.0) + 0j
    solve = mesh.Elimination(d, complex)
    x = solve.factor_solve(shift, w, u)
    assert solve.refine
    ref = np.linalg.solve(d.A.toarray() + np.diag(shift), w * u)
    assert rel_err(x, ref) <= 1e-10


def test_three_column_real_solve_back_substitutes_as_the_per_node_gather_did():
    # a tree, so that Z has two columns, under a definite shift (?pttrf) and
    # an indefinite one (?gttrf).  Each interior value is y - Z x_V with
    # x_V read at the node's own edge ends, summed column of Z by column, bit
    # for bit.  A one-column solve agrees only to rounding: ?getrs, on the
    # vertex Schur complement, takes another path for one right side
    g = MetricGraph(
        vertices=(Vertex("a", 1.0), Vertex("b", 0.5), Vertex("c", 0.2)),
        edges=(Edge("ab", "a", "b", 2.0), Edge("bc", "b", "c", 1.5),
               Edge("ha", "a", None, math.inf, 8.0), Edge("hc", "c", None, math.inf, 9.0)),
    ).validate()
    d = build(g, 0.05)
    V, node_ends = 3, np.repeat(d._ends, d._sizes, axis=0)
    b = np.random.default_rng(5).standard_normal((d.n_nodes, 3))
    for s, definite in ((2.0 * d.m, True), (-0.2 * d.m, False)):
        solve = factored(d, s)
        x = solved(solve, b)
        assert solve.definite == definite and solve._cols == 2 and not solve.refine
        y = solve._trs(*solve._T, np.array(b[V:], order="F"))[0]
        for k in range(3):
            for j in range(2):
                y[:, k] -= solve._Z[:, j] * x[node_ends[:, j], k]
            np.testing.assert_array_equal(x[V:, k], y[:, k])
            assert rel_err(solved(solve, b[:, k]), x[:, k]) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(d=st.one_of(small_graphs(), graphs_with_potentials()), seed=st.integers(0, 2**32 - 1),
       complex_u=st.booleans(), shape=st.sampled_from([(), (2,)]))
def test_apply_matches_the_csr_product(d, seed, complex_u, shape):
    # the self-loops of small_graphs and the potentials of the shared strategy
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((d.n_nodes, *shape))
    if complex_u:
        u = u + 1j * rng.standard_normal(u.shape)
    for got, ref in ((d.apply(u), d.A @ u), (d.apply_k(u), d.K @ u)):
        assert got.shape == u.shape and got.dtype == u.dtype
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(d=small_graphs(), seed=st.integers(0, 2**32 - 1), level=st.floats(-3.0, 1.0))
def test_n_negative_counts_the_edge_block_as_eigvalsh_tridiagonal_does(d, seed, level):
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(seed)
    s = d.m * (level + rng.uniform(-0.5, 0.5, d.n_nodes))
    work = mesh.Elimination(d, float)
    work.refactor(s)
    V = len(d.vertex_index)
    in_t = eigvalsh_tridiagonal(d._diag[V:] + s[V:], d._off, select="v",
                                select_range=(-np.inf, 0.0))
    assert work.n_negative() == len(in_t) + int(np.sum(np.linalg.eigvalsh(work._S) < 0.0))


def test_pickle_leaves_out_the_csr_copies():
    # sweep pickles the grid to its workers, which never need scipy.sparse
    import pickle

    d = build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.05)
    size = len(pickle.dumps(d))
    d.A, d.K   # built on each read
    data = pickle.dumps(d)
    assert len(data) == size
    copy = pickle.loads(data)
    assert "A" not in vars(copy) and "K" not in vars(copy)
    np.testing.assert_array_equal(copy.A.toarray(), d.A.toarray())
    np.testing.assert_array_equal(copy.apply(d.m), d.apply(d.m))


def test_flux_defect_does_not_depend_on_edge_orientation():
    # the finite edge ends at a in one orientation and at b in the other, so
    # both terms of the defect are used; it is O(h) at a smooth ground state
    def graph(reverse):
        finite = Edge("f", "b", "a", 2.0) if reverse else Edge("f", "a", "b", 2.0)
        return MetricGraph(
            vertices=(Vertex("a", 1.0), Vertex("b", 0.5)),
            edges=(finite, Edge("ha", "a", None, math.inf, 20.0),
                   Edge("hb", "b", None, math.inf, 20.0)),
        ).validate()

    defects = {}
    for h in (0.05, 0.025):
        for reverse in (False, True):
            psi0 = ground_state(build(graph(reverse), h)).psi0
            defects[h, reverse] = np.array([mesh.vertex_flux_defect(psi0, v) for v in "ab"])
    for h in (0.05, 0.025):
        np.testing.assert_allclose(defects[h, True], defects[h, False], rtol=1e-9)
    np.testing.assert_allclose(defects[0.05, False] / defects[0.025, False], 2.0, rtol=0.01)
