"""Metric graph data model: vertices with delta couplings, edges with potentials.

A metric graph is a combinatorial graph whose edges carry intervals
[0, L_e]; unbounded edges are half-lines truncated at a finite length for
computation.  Functions live edge-wise and are continuous at vertices.
Vertex couplings are delta type: alpha_v > 0 is attractive (it enters the
energy as -alpha_v |u(v)|^2).

The JSON wire format is documented in ``parse_graph``.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import AssumptionError, DomainError, SchemaError

INFINITE = math.inf


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroPotential:
    def values_at(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SquareWell:
    """Constant value ``depth`` on [start, start+width], zero elsewhere."""
    depth: float
    start: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise SchemaError("potential.width must be positive")

    def values_at(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.start) & (x <= self.start + self.width)
        return np.where(inside, self.depth, 0.0)


@dataclass(frozen=True)
class GaussianBump:
    """amplitude * exp(-(x-center)^2 / (2 width^2))."""
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise SchemaError("potential.width must be positive")

    def values_at(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))


@dataclass(frozen=True)
class SampledPotential:
    """Tabulated values, linearly interpolated, nearest-value beyond the table."""
    positions: tuple
    values: tuple

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            raise SchemaError("potential.x must be non-empty")
        if pos.size != len(self.values):
            raise SchemaError("potential.x and potential.w must have equal length")
        if np.any(np.diff(pos) <= 0):
            raise SchemaError("potential.x must be strictly increasing")

    def values_at(self, x):
        # np.interp clamps to the end values, which is the wanted extension
        return np.interp(np.asarray(x, dtype=float), self.positions, self.values)


Potential = ZeroPotential | SquareWell | GaussianBump | SampledPotential


# ---------------------------------------------------------------------------
# graph model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vertex:
    id: str
    alpha: float = 0.0


@dataclass(frozen=True)
class Edge:
    """Edge identified with [0, length]; ``to=None`` marks a half-line.

    x = 0 sits at ``frm``; for a finite edge x = length sits at ``to``.
    Half-lines carry a ``truncation`` length at which a homogeneous
    Dirichlet condition is imposed.
    """
    id: str
    frm: str
    to: str | None
    length: float = INFINITE
    truncation: float | None = None
    potential: Potential = field(default_factory=ZeroPotential)

    @property
    def is_external(self) -> bool:
        return math.isinf(self.length)

    @property
    def grid_length(self) -> float:
        """Length of the computational interval (truncation for half-lines)."""
        return self.truncation if self.is_external else self.length


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def is_star(self) -> bool:
        """Single vertex, every edge an external half-line attached to it."""
        return (
            len(self.vertices) == 1
            and all(e.is_external and e.frm == self.vertices[0].id for e in self.edges)
        )

    def validate(self) -> "MetricGraph":
        """Check structural invariants; raise SchemaError / AssumptionError."""
        known = {v.id for v in self.vertices}
        if len(known) != len(self.vertices):
            raise SchemaError("duplicate vertex id")
        edge_ids = [e.id for e in self.edges]
        if len(set(edge_ids)) != len(edge_ids):
            raise SchemaError("duplicate edge id")
        if not self.edges:
            raise SchemaError("graph has no edges")
        for e in self.edges:
            if e.frm not in known:
                raise SchemaError(f"edge {e.id!r}: unknown vertex {e.frm!r}")
            if e.to is not None and e.to not in known:
                raise SchemaError(f"edge {e.id!r}: unknown vertex {e.to!r}")
            if e.is_external:
                if e.to is not None:
                    raise SchemaError(
                        f"edge {e.id!r}: an infinite edge must have exactly one "
                        "graph-vertex endpoint ('to' must be null)"
                    )
                if e.truncation is None or not e.truncation > 0:
                    raise SchemaError(
                        f"edge {e.id!r}: infinite edge needs a positive truncation length"
                    )
            else:
                if not e.length > 0:
                    raise SchemaError(f"edge {e.id!r}: edge length must be positive")
                if e.to is None:
                    raise SchemaError(
                        f"edge {e.id!r}: finite edge needs both endpoints"
                    )
        if not any(e.is_external for e in self.edges):
            raise AssumptionError(
                "graph must have at least one unbounded (external) edge"
            )
        if not self._connected():
            raise AssumptionError("graph must be connected")
        return self

    def _connected(self) -> bool:
        adj: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for e in self.edges:
            if e.to is not None:
                adj[e.frm].add(e.to)
                adj[e.to].add(e.frm)
        seen = {self.vertices[0].id}
        stack = [self.vertices[0].id]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class StarGraphSpec:
    """N half-lines glued at one vertex carrying an attractive delta of
    strength gamma."""
    n_edges: int
    gamma: float
    truncation_length: float

    def __post_init__(self):
        if self.n_edges < 2:
            raise DomainError("star graph needs at least 2 half-lines (N >= 2)")
        if not self.gamma > 0:
            raise DomainError("star coupling gamma must be positive")
        if not self.truncation_length > 0:
            raise DomainError("truncation length must be positive")


def make_star(spec: StarGraphSpec) -> MetricGraph:
    """Build the star graph: one vertex 'v0' with alpha = +gamma, N half-lines."""
    v0 = Vertex(id="v0", alpha=spec.gamma)
    edges = tuple(
        Edge(
            id=f"e{i + 1}",
            frm="v0",
            to=None,
            truncation=spec.truncation_length,
        )
        for i in range(spec.n_edges)
    )
    return MetricGraph(vertices=(v0,), edges=edges).validate()


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _number(value, where: str) -> float:
    """The one reader for numeric config fields: a finite number, or
    SchemaError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return x


# wire format: type name -> the potential class, its fields the named numbers
# (except "samples", whose lists are named x and w)
_POTENTIALS = {"zero": ZeroPotential, "square_well": SquareWell, "gaussian": GaussianBump}


def _parse_potential(obj, where: str) -> Potential:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: potential must be an object")
    kind = obj.get("type")

    def num(key):
        return _number(obj[key], f"{where}.potential.{key}")

    try:
        for name, cls in _POTENTIALS.items():
            if kind == name:   # not a lookup: kind may be any JSON value
                return cls(*(num(f.name) for f in fields(cls)))
        if kind == "samples":
            if not (isinstance(obj["x"], list) and isinstance(obj["w"], list)):
                raise SchemaError(f"{where}: potential.x and potential.w must be lists")
            return SampledPotential(
                tuple(_number(x, f"{where}.potential.x") for x in obj["x"]),
                tuple(_number(w, f"{where}.potential.w") for w in obj["w"]),
            )
    except KeyError as missing:
        raise SchemaError(f"{where}: potential missing field {missing}") from None
    raise SchemaError(f"{where}: unknown potential type {kind!r}")


def _potential_to_json(p: Potential):
    for kind, cls in _POTENTIALS.items():
        if isinstance(p, cls):
            return {"type": kind, **asdict(p)}
    return {"type": "samples", "x": list(p.positions), "w": list(p.values)}


def parse_graph(config_text: str) -> MetricGraph:
    """Parse and validate a graph config document.

    Format::

        {"vertices": [{"id": str, "alpha": num}],
         "edges": [{"id": str, "from": str, "to": str|null,
                    "length": num|"inf", "truncation": num?,
                    "potential": {...}}]}

    ``"to": null`` marks an external (half-line) edge; half-lines use
    ``"length": "inf"`` and require ``"truncation"``.  Every other number
    must be finite (SchemaError otherwise), and edge ids must be unique.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("config root must be an object")
    for key in ("vertices", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise SchemaError(f"config must contain a {key!r} list")

    vertices = []
    for i, v in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(v, dict) or "id" not in v:
            raise SchemaError(f"{where}: vertex needs an 'id'")
        alpha = _number(v.get("alpha", 0.0), f"{where}.alpha")
        vertices.append(Vertex(id=str(v["id"]), alpha=alpha))

    edges = []
    for i, e in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{where}: edge must be an object")
        for req in ("id", "from", "length"):
            if req not in e:
                raise SchemaError(f"{where}: missing field {req!r}")
        if e["length"] == "inf":
            length = INFINITE
        else:
            length = _number(e["length"], f"{where}.length")
        trunc = e.get("truncation")
        edges.append(
            Edge(
                id=str(e["id"]),
                frm=str(e["from"]),
                to=None if e.get("to") is None else str(e["to"]),
                length=length,
                truncation=None if trunc is None else _number(trunc, f"{where}.truncation"),
                potential=_parse_potential(e.get("potential", {"type": "zero"}), where),
            )
        )
    return MetricGraph(vertices=tuple(vertices), edges=tuple(edges)).validate()


def serialize_graph(g: MetricGraph) -> str:
    """Inverse of parse_graph (parse(serialize(g)) reproduces g)."""
    doc = {
        "vertices": [{"id": v.id, "alpha": v.alpha} for v in g.vertices],
        "edges": [
            {
                "id": e.id,
                "from": e.frm,
                "to": e.to,
                "length": "inf" if e.is_external else e.length,
                "truncation": e.truncation,
                "potential": _potential_to_json(e.potential),
            }
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
