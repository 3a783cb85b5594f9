"""Hypothesis strategies shared by the property tests: random small graphs
with potentials that carry a bound state."""
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from graphwave.graphs import Edge, GaussianBump, MetricGraph, SquareWell, Vertex, ZeroPotential
from graphwave.mesh import build


@st.composite
def potentials(draw, length, depths=(-0.5, 0.2)):
    kind = draw(st.sampled_from(["zero", "well", "bump"]))
    if kind == "zero":
        return ZeroPotential()
    depth = draw(st.floats(*depths))
    start = draw(st.floats(0.0, 0.5 * length))
    width = draw(st.floats(0.1, 0.5 * length))
    if kind == "well":
        return SquareWell(depth, start, width)
    return GaussianBump(depth, start, width)


def has_negative_eigenvalue(a):
    """Whether the dense symmetric a, and so M^{-1} a for any positive
    diagonal M (Sylvester's law of inertia), has an eigenvalue at or below 0
    (below 0 but for a null set of graphs): its Cholesky factorization
    breaks down."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return True
    return False


def _topology(draw, kind):
    """Vertex count and finite edges (a, b) of a star, a tree or a cycle."""
    if kind == "star":
        return 1, []
    n_vertices = draw(st.integers(2, 3))
    if kind == "tree":
        return n_vertices, [(draw(st.integers(0, k - 1)), k) for k in range(1, n_vertices)]
    return n_vertices, [(k, (k + 1) % n_vertices) for k in range(n_vertices)]


def _edges(draw, n_vertices, finite, half_lines, potential):
    """The finite edges, of length 1-3, then half-lines truncated at 8-12, as
    many as half_lines draws, each with the potential that
    potential(length) draws."""
    edges = []
    for k, (a, b) in enumerate(finite):
        length = draw(st.floats(1.0, 3.0))
        edges.append(Edge(f"f{k}", f"v{a}", f"v{b}", length, potential=draw(potential(length))))
    for k in range(draw(half_lines)):
        trunc = draw(st.floats(8.0, 12.0))
        edges.append(Edge(f"h{k}", f"v{draw(st.integers(0, n_vertices - 1))}", None,
                          math.inf, trunc, potential=draw(potential(trunc))))
    return edges


def _grid(g):
    d = build(g, sum(e.grid_length for e in g.edges) / 280.0)
    assert d.n_nodes <= 300
    return d


@st.composite
def small_graphs(draw):
    """A star, a tree or a cycle with half-lines truncated at 8-12, a
    potential on every edge and one strongly attractive vertex, on a grid of
    at most 300 nodes."""
    kind = draw(st.sampled_from(["star", "tree", "cycle"]))
    n_vertices, finite = _topology(draw, kind)
    alphas = [draw(st.floats(0.8, 1.5))] + [draw(st.floats(0.0, 1.0))
                                            for _ in range(n_vertices - 1)]
    vertices = tuple(Vertex(f"v{k}", a) for k, a in enumerate(alphas))
    edges = _edges(draw, n_vertices, finite, st.integers(2 if kind == "star" else 1, 3),
                   potentials)
    d = _grid(MetricGraph(vertices, tuple(edges)).validate())
    # positive wells can lift the bottom of the spectrum above 0 (the 3-star
    # with alpha = 0.8125 and +0.1875 wells on two edges sits at +8.24e-3):
    # keep only graphs with a negative ground energy
    assume(has_negative_eigenvalue(d.A.toarray()))
    return d


@st.composite
def branching_graphs(draw):
    """(d, kirchhoff): the graphs on which ground_state's loop branches.  A
    star, a tree or a cycle as small_graphs draws them, or a tree or a cycle
    without half-lines (compact), with vertex strengths in [-1, 1.6] (so
    repulsive vertices too) and wells and bumps of depth -3 to 0.5: a deep,
    wide well binds inside an edge, where the edge block T is indefinite at
    0 and the solves start from below, and several wells give several bound
    states.  Graphs without a bound state are kept.  kirchhoff marks a
    compact graph with alpha = 0 and W = 0, whose ground energy is 0 exactly
    and whose A is singular at 0; elsewhere |alpha| >= 0.05, as a strength
    near 0 on a compact graph puts the ground energy at round-off size, where
    neither a relative match nor Cholesky's verdict means anything.  At most
    300 nodes."""
    kind = draw(st.sampled_from(["star", "tree", "cycle"]))
    n_vertices, finite = _topology(draw, kind)
    compact = kind != "star" and draw(st.booleans())
    kirchhoff = compact and draw(st.booleans())
    alphas = [0.0 if kirchhoff else draw(st.floats(-1.0, -0.05) | st.floats(0.05, 1.6))
              for _ in range(n_vertices)]
    vertices = tuple(Vertex(f"v{k}", a) for k, a in enumerate(alphas))
    edges = _edges(draw, n_vertices, finite,
                   st.just(0) if compact else st.integers(2 if kind == "star" else 1, 3),
                   (lambda _: st.just(ZeroPotential())) if kirchhoff
                   else (lambda length: potentials(length, (-3.0, 0.5))))
    # a compact graph is no model graph (validate refuses it), but the grid
    # and the spectrum accept it
    g = MetricGraph(vertices, tuple(edges))
    return _grid(g if compact else g.validate()), kirchhoff
