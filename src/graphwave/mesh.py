"""Glued per-edge grids, grid functions, norms and the energy form matrix.

Each edge gets a uniform grid whose step divides the (truncated) edge
length exactly.  Vertex nodes are shared between incident edges, so a grid
function is automatically continuous at vertices; truncation endpoints of
half-lines are eliminated (homogeneous Dirichlet).

The assembled matrix A realizes the energy form

    form[u] = sum_e int |u'|^2 + int W |u|^2  -  sum_v alpha_v |u(v)|^2

with piecewise-linear element gradients and lumped (trapezoid) mass, so
``u.conj() @ A @ u`` approximates the form to O(h^2) and the mass matrix is
the diagonal of the lumped weights ``m``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, DomainError, SchemaError
from .graphs import MetricGraph

__all__ = [
    "Discretization",
    "GraphFunction",
    "build",
    "factor",
    "mass",
    "quadratic_form",
    "g_norm_sq",
    "lp_norm",
    "grad_norm_sq",
    "h1_norm_sq",
    "h1_inner",
    "gn_ratio",
    "vertex_flux_defect",
    "save_function_csv",
    "load_function_csv",
]

# most nodes build() assembles; a step that needs more is refused before
# anything is allocated
MAX_NODES = 10**7


@dataclass(frozen=True)
class EdgeGrid:
    edge_id: str
    h: float
    x: np.ndarray        # node coordinates 0 .. L, len n_cells+1
    gidx: np.ndarray     # global index per node, -1 for eliminated Dirichlet nodes


class Discretization:
    """Immutable after build(); all operations on it are read-only."""

    def __init__(self, graph, edge_grids, vertex_index, n_nodes, m, A, K, target_h):
        self.graph: MetricGraph = graph
        self.edge_grids: tuple[EdgeGrid, ...] = edge_grids
        self.vertex_index: dict[str, int] = vertex_index
        self.n_nodes: int = n_nodes
        self.m: np.ndarray = m          # lumped mass weights, all > 0
        self.A: sp.csr_matrix = A       # full form matrix
        self.K: sp.csr_matrix = K       # stiffness (gradient) part only
        self.target_h: float = target_h
        self.h_max: float = max(eg.h for eg in edge_grids)

    def zeros(self, dtype=np.complex128) -> "GraphFunction":
        return GraphFunction(self, np.zeros(self.n_nodes, dtype=dtype))

    def constant(self, value=1.0) -> "GraphFunction":
        return GraphFunction(self, np.full(self.n_nodes, value, dtype=np.complex128))

    def from_edge_profiles(self, profile) -> "GraphFunction":
        """Sample ``profile(edge_index, x_array) -> values`` on every edge.

        Incident edges must agree at shared vertex nodes; the last write
        wins, which is consistent when the profiles are continuous.
        """
        vals = np.zeros(self.n_nodes, dtype=np.complex128)
        for k, eg in enumerate(self.edge_grids):
            keep = eg.gidx >= 0
            vals[eg.gidx[keep]] = np.asarray(profile(k, eg.x), dtype=np.complex128)[keep]
        return GraphFunction(self, vals)


@dataclass
class GraphFunction:
    """Values indexed by the discretization's global nodes."""
    disc: Discretization
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.disc.n_nodes,):
            raise DomainError(
                f"value vector has length {self.values.shape}, "
                f"expected ({self.disc.n_nodes},)"
            )

    def copy(self) -> "GraphFunction":
        return GraphFunction(self.disc, self.values.copy())


def build(g: MetricGraph, target_h: float) -> Discretization:
    """Grid + matrix assembly.  Every edge needs at least 4 cells, i.e.
    target_h <= (shortest edge)/4, and the grid may have at most MAX_NODES
    nodes."""
    min_len = min(e.grid_length for e in g.edges)
    if not target_h > 0 or target_h > min_len / 4.0 * (1.0 + 1e-12):
        raise ConfigurationError(
            f"grid step {target_h} too large: at most (shortest edge)/4 = {min_len / 4.0}"
        )
    # cell counts in floats: a tiny step gives inf here, not an OverflowError
    cells = [max(4.0, np.ceil(e.grid_length / target_h)) for e in g.edges]
    nodes = len(g.vertices) + sum(cells) - len(cells)
    if not nodes <= MAX_NODES:
        raise ConfigurationError(
            f"grid step {target_h} gives {nodes:.3g} nodes, above the limit {MAX_NODES}"
        )

    vertex_index = {v.id: i for i, v in enumerate(g.vertices)}
    next_free = len(g.vertices)
    grids = []
    for e, n_cells in zip(g.edges, map(int, cells)):
        length = e.grid_length
        h = length / n_cells
        x = np.linspace(0.0, length, n_cells + 1)
        gidx = np.empty(n_cells + 1, dtype=np.int64)
        gidx[0] = vertex_index[e.frm]
        gidx[1:-1] = np.arange(next_free, next_free + n_cells - 1)
        next_free += n_cells - 1
        gidx[-1] = -1 if e.is_external else vertex_index[e.to]
        grids.append(EdgeGrid(edge_id=e.id, h=h, x=x, gidx=gidx))
    n_nodes = next_free

    m = np.zeros(n_nodes)
    diag_k = np.zeros(n_nodes)
    diag_w = np.zeros(n_nodes)
    rows, cols, vals = [], [], []
    for e, eg in zip(g.edges, grids):
        inv = 1.0 / eg.h
        ga, gb = eg.gidx[:-1], eg.gidx[1:]
        np.add.at(diag_k, ga[ga >= 0], inv)
        np.add.at(diag_k, gb[gb >= 0], inv)
        both = (ga >= 0) & (gb >= 0)
        rows.append(ga[both])
        cols.append(gb[both])
        vals.append(np.full(both.sum(), -inv))

        w = np.full(eg.x.size, eg.h)
        w[0] = w[-1] = eg.h / 2.0
        keep = eg.gidx >= 0
        np.add.at(m, eg.gidx[keep], w[keep])
        np.add.at(diag_w, eg.gidx[keep], (e.potential.values_at(eg.x) * w)[keep])

    diag_alpha = np.zeros(n_nodes)
    for v in g.vertices:
        diag_alpha[vertex_index[v.id]] -= v.alpha

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    v = np.concatenate(vals)
    off = sp.coo_matrix(
        (np.concatenate([v, v]), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n_nodes, n_nodes),
    )
    K = (off + sp.diags(diag_k)).tocsr()
    A = (off + sp.diags(diag_k + diag_w + diag_alpha)).tocsr()
    return Discretization(g, tuple(grids), vertex_index, n_nodes, m, A, K, target_h)


def factor(d: Discretization, shift: np.ndarray):
    """Factor A + diag(shift) once; return solve(b) for that matrix.

    The one linear-solver layer: the spectrum (A - sigma M), the flow
    (M/tau + A) and the CN step all solve with the form matrix plus a
    diagonal.  A complex shift gives a complex factor; a real factor applied
    to a complex b solves the real and imaginary parts as two columns.
    Raises DomainError when the matrix is exactly singular."""
    try:
        lu = splu((d.A + sp.diags(shift)).tocsc())
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise DomainError(f"A + diag(shift) is singular: {exc}") from None
    if np.iscomplexobj(shift):
        return lu.solve

    def solve(b: np.ndarray) -> np.ndarray:
        if not np.iscomplexobj(b):
            return lu.solve(b)
        out = lu.solve(np.column_stack([b.real, b.imag]))
        return out[:, 0] + 1j * out[:, 1]

    return solve


# ---------------------------------------------------------------------------
# norms and forms
# ---------------------------------------------------------------------------

def mass(u: GraphFunction) -> float:
    """Squared L2 norm: sum_i m_i |u_i|^2."""
    return float(np.sum(u.disc.m * np.abs(u.values) ** 2))


def quadratic_form(u: GraphFunction) -> float:
    """Energy form Re(u* A u): gradient + potential - vertex terms."""
    return float(np.real(np.vdot(u.values, u.disc.A @ u.values)))


def g_norm_sq(u: GraphFunction, lambda0: float) -> float:
    """Localization norm: form[u] + 2*lambda0*||u||^2 (>= lambda0*||u||^2)."""
    return quadratic_form(u) + 2.0 * lambda0 * mass(u)


def lp_norm(u: GraphFunction, q: float) -> float:
    if q < 1:
        raise DomainError("lp_norm needs q >= 1")
    return float(np.sum(u.disc.m * np.abs(u.values) ** q) ** (1.0 / q))


def grad_norm_sq(u: GraphFunction) -> float:
    """Squared L2 norm of the element-wise derivative."""
    return float(np.real(np.vdot(u.values, u.disc.K @ u.values)))


def h1_norm_sq(u: GraphFunction) -> float:
    return grad_norm_sq(u) + mass(u)


def h1_inner(u: GraphFunction, v: GraphFunction) -> complex:
    """H1 inner product <u, v> (conjugate-linear in v)."""
    return complex(np.vdot(v.values, u.disc.K @ u.values)
                   + np.vdot(v.values, u.disc.m * u.values))


def gn_ratio(u: GraphFunction, p: float) -> float:
    """Interpolation-inequality ratio ||u||_{p+1}^{p+1} /
    (||u'||^{(p-1)/2} ||u||^{(p+3)/2}); scale and phase invariant."""
    nrm2 = mass(u)
    if nrm2 == 0.0:
        raise DomainError("ratio undefined for the zero function")
    num = lp_norm(u, p + 1.0) ** (p + 1.0)
    den = grad_norm_sq(u) ** ((p - 1.0) / 4.0) * nrm2 ** ((p + 3.0) / 4.0)
    return float(num / den)


def vertex_flux_defect(u: GraphFunction, vertex_id: str) -> complex:
    """One-sided discrete check of the delta matching condition:
    sum of outward derivatives at the vertex plus alpha_v * u(v).
    O(h) for smooth edge restrictions."""
    d = u.disc
    gi = d.vertex_index[vertex_id]
    total = 0.0 + 0.0j
    for eg in d.edge_grids:
        if eg.gidx[0] == gi:
            total += (u.values[eg.gidx[1]] - u.values[gi]) / eg.h
        if eg.gidx[-1] == gi:
            total += (u.values[eg.gidx[-2]] - u.values[gi]) / eg.h
    return complex(total + d.graph.alpha(vertex_id) * u.values[gi])


# ---------------------------------------------------------------------------
# CSV interchange: columns (edge_id, x, re, im)
# ---------------------------------------------------------------------------

def save_function_csv(u: GraphFunction, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "x", "re", "im"])
        for eg in u.disc.edge_grids:
            for xi, gi in zip(eg.x, eg.gidx):
                val = u.values[gi] if gi >= 0 else 0.0
                w.writerow([eg.edge_id, repr(float(xi)),
                            repr(float(np.real(val))), repr(float(np.imag(val)))])


def load_function_csv(d: Discretization, path) -> GraphFunction:
    """Read a (edge_id, x, re, im) table sampled on exactly this grid."""
    per_edge: dict[str, dict[float, complex]] = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot read function CSV {path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                per_edge.setdefault(row["edge_id"], {})[float(row["x"])] = (
                    float(row["re"]) + 1j * float(row["im"])
                )
            except (KeyError, TypeError, ValueError):
                raise SchemaError("function CSV needs columns edge_id,x,re,im") from None
    vals = np.zeros(d.n_nodes, dtype=np.complex128)
    for eg in d.edge_grids:
        table = per_edge.get(eg.edge_id)
        if table is None:
            raise SchemaError(f"function CSV is missing edge {eg.edge_id!r}")
        xs, ys = (np.array(col) for col in zip(*sorted(table.items())))
        keep = eg.gidx >= 0
        x = eg.x[keep]
        # the nearest tabulated x to a node is one of its two sorted neighbours
        hi = np.minimum(np.searchsorted(xs, x), len(xs) - 1)
        lo = np.maximum(hi - 1, 0)
        k = np.where(np.abs(xs[hi] - x) < np.abs(xs[lo] - x), hi, lo)
        bad = np.abs(xs[k] - x) > 1e-9 * (1.0 + np.abs(x))
        if np.any(bad):
            raise SchemaError(
                f"function CSV does not match the grid on edge {eg.edge_id!r} "
                f"near x = {x[np.argmax(bad)]}"
            )
        vals[eg.gidx[keep]] = ys[k]
    return GraphFunction(d, vals)
