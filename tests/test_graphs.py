import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwave.errors import AssumptionError, DomainError, SchemaError
from graphwave.graphs import (
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
    serialize_graph,
)

STAR3 = json.dumps(
    {
        "vertices": [{"id": "v0", "alpha": 1.0}],
        "edges": [
            {"id": f"e{i}", "from": "v0", "to": None, "length": "inf", "truncation": 40.0,
             "potential": {"type": "zero"}}
            for i in (1, 2, 3)
        ],
    }
)


def test_parse_star_config():
    g = parse_graph(STAR3)
    assert len(g.vertices) == 1 and g.vertices[0].alpha == 1.0
    assert len(g.edges) == 3
    assert all(e.is_external and e.truncation == 40.0 for e in g.edges)
    assert g.is_star()


def test_parse_rejects_zero_length_edge():
    doc = json.loads(STAR3)
    doc["edges"].append({"id": "bad", "from": "v0", "to": "v0", "length": 0.0})
    with pytest.raises(SchemaError, match="length must be positive"):
        parse_graph(json.dumps(doc))


def test_parse_tadpole_plus_tail():
    doc = {
        "vertices": [{"id": "a", "alpha": 0.5}, {"id": "b", "alpha": 0.0}],
        "edges": [
            {"id": "f1", "from": "a", "to": "b", "length": 2.0},
            {"id": "f2", "from": "a", "to": "b", "length": 3.0},
            {"id": "tail", "from": "a", "to": None, "length": "inf", "truncation": 25.0},
        ],
    }
    g = parse_graph(json.dumps(doc))
    assert len(g.vertices) == 2 and len(g.edges) == 3


def test_parse_rejects_disconnected_and_compact():
    doc = json.loads(STAR3)
    doc["vertices"].append({"id": "lonely", "alpha": 0.0})
    with pytest.raises(AssumptionError, match="connected"):
        parse_graph(json.dumps(doc))
    compact = {
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"id": "f", "from": "a", "to": "b", "length": 1.0}],
    }
    with pytest.raises(AssumptionError, match="unbounded"):
        parse_graph(json.dumps(compact))


def test_parse_error_names_field():
    doc = json.loads(STAR3)
    del doc["edges"][1]["truncation"]
    with pytest.raises(SchemaError, match="e2"):
        parse_graph(json.dumps(doc))


def test_make_star_shapes():
    g = make_star(StarGraphSpec(3, 1.0, 40.0))
    assert len(g.edges) == 3 and len(g.vertices) == 1
    assert g.vertices[0].alpha == 1.0
    line = make_star(StarGraphSpec(2, 1.0, 40.0))
    assert len(line.edges) == 2
    with pytest.raises(DomainError):
        StarGraphSpec(1, 1.0, 40.0)
    with pytest.raises(DomainError):
        StarGraphSpec(3, 0.0, 40.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_roundtrip_star(n):
    g = make_star(StarGraphSpec(n, 0.7, 15.0))
    assert parse_graph(serialize_graph(g)) == g


def test_roundtrip_with_potentials():
    g = MetricGraph(
        vertices=(Vertex("a", 1.0), Vertex("b", -0.2)),
        edges=(
            Edge("f", "a", "b", 2.5, None, SquareWell(-2.0, 0.5, 1.0)),
            Edge("x1", "a", None, math.inf, 30.0, GaussianBump(-1.0, 5.0, 1.0)),
            Edge("x2", "b", None, math.inf, 30.0,
                 SampledPotential((0.0, 1.0, 2.0), (0.1, -0.3, 0.2))),
        ),
    ).validate()
    assert parse_graph(serialize_graph(g)) == g


@st.composite
def potentials(draw):
    numbers = st.floats(-10.0, 10.0, allow_nan=False)
    widths = st.floats(0.01, 10.0)
    kind = draw(st.sampled_from(["zero", "well", "gaussian", "samples"]))
    if kind == "zero":
        return ZeroPotential()
    if kind == "well":
        return SquareWell(draw(numbers), draw(numbers), draw(widths))
    if kind == "gaussian":
        return GaussianBump(draw(numbers), draw(numbers), draw(widths))
    x = sorted(draw(st.lists(numbers, min_size=1, max_size=5, unique=True)))
    return SampledPotential(tuple(x), tuple(draw(st.lists(numbers, min_size=len(x),
                                                          max_size=len(x)))))


@st.composite
def graphs(draw):
    """A star, a tree or a cycle with random ids, alphas of either sign,
    potentials on every edge and at least one half-line."""
    kind = draw(st.sampled_from(["star", "tree", "cycle"]))
    n_vertices = 1 if kind == "star" else draw(st.integers(2, 4))
    if kind == "tree":
        finite = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_vertices)]
    elif kind == "cycle":
        finite = [(k, (k + 1) % n_vertices) for k in range(n_vertices)]
    else:
        finite = []
    n_half = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=n_vertices + len(finite)
                        + n_half, max_size=n_vertices + len(finite) + n_half, unique=True))
    v_ids, e_ids = ids[:n_vertices], ids[n_vertices:]
    alphas = st.floats(-5.0, 5.0, allow_nan=False)
    lengths = st.floats(0.1, 50.0)
    vertices = tuple(Vertex(v, draw(alphas)) for v in v_ids)
    edges = [Edge(e_ids[k], v_ids[a], v_ids[b], draw(lengths), None, draw(potentials()))
             for k, (a, b) in enumerate(finite)]
    edges += [Edge(e_ids[len(finite) + k], v_ids[draw(st.integers(0, n_vertices - 1))], None,
                   math.inf, draw(lengths), draw(potentials())) for k in range(n_half)]
    return MetricGraph(vertices, tuple(edges)).validate()


@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_roundtrip_random_graphs(g):
    assert parse_graph(serialize_graph(g)) == g


def test_potential_evaluation_rules():
    sq = SquareWell(-2.0, 1.0, 3.0)
    assert list(sq.values_at([0.5, 1.0, 2.0, 4.0, 4.5])) == [0.0, -2.0, -2.0, -2.0, 0.0]
    samp = SampledPotential((1.0, 2.0), (3.0, 5.0))
    np.testing.assert_allclose(samp.values_at([0.0, 1.5, 9.0]), [3.0, 4.0, 5.0])
    with pytest.raises(SchemaError, match="increasing"):
        SampledPotential((1.0, 1.0), (0.0, 0.0))


@pytest.mark.parametrize("kind", ["cubic", ["zero"], {"type": "zero"}, None])
def test_unknown_potential_type_is_a_schema_error(kind):
    # a JSON list or object as the type is an unknown type, not a TypeError
    doc = json.loads(STAR3)
    doc["edges"][0]["potential"] = {"type": kind}
    with pytest.raises(SchemaError, match="unknown potential type"):
        parse_graph(json.dumps(doc))
