"""Glued per-edge grids, grid functions, norms and the energy form.

Each edge gets a uniform grid whose step divides the (truncated) edge
length exactly.  Vertex nodes are shared between incident edges, so a grid
function is automatically continuous at vertices; truncation endpoints of
half-lines are eliminated (homogeneous Dirichlet).

The form matrix A realizes the energy form

    form[u] = sum_e int |u'|^2 + int W |u|^2  -  sum_v alpha_v |u(v)|^2

with piecewise-linear element gradients and lumped (trapezoid) mass, so
``u.conj() @ A @ u`` approximates the form to O(h^2) and the mass matrix is
the diagonal of the lumped weights ``m``.  A is held as arrays, which
``Discretization.apply`` multiplies by and ``Elimination`` solves with.
"""
from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, SchemaError, os_action
from .graphs import MetricGraph

__all__ = [
    "Discretization",
    "Elimination",
    "GraphFunction",
    "build",
    "check_grid",
    "mass",
    "rescale_to_mass",
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

# most nodes and vertices build() accepts (an Elimination's Schur complement
# is a dense V x V matrix); larger grids are refused before anything is allocated
MAX_NODES = 10**7
MAX_VERTICES = 1000


@dataclass(frozen=True)
class EdgeGrid:
    edge_id: str
    h: float
    x: np.ndarray        # node coordinates 0 .. L, len n_cells+1
    gidx: np.ndarray     # global index per node, -1 for eliminated Dirichlet nodes


class Discretization:
    """Immutable after build(); all operations on it are read-only.

    A is held as arrays: its diagonal ``_diag`` (``_diag_k``: the stiffness
    part's), the off-diagonal ``_off`` of the tridiagonal block T of the
    edge interiors (numbered edge by edge after the V vertices; -1/h inside
    an edge, 0 between edges), and the coupling ``_coef[k, j]`` (-1/h, 0 at
    a half-line's far end) of edge k's end j, vertex ``_ends[k, j]``, to its
    interior node ``V + _pos[k, j]``.  No two vertices are adjacent."""

    def __init__(self, graph, edge_grids, vertex_index, m, diag, diag_k):
        self.graph: MetricGraph = graph
        self.edge_grids: tuple[EdgeGrid, ...] = edge_grids
        self.vertex_index: dict[str, int] = vertex_index
        self.n_nodes: int = m.size
        self.m: np.ndarray = m          # lumped mass weights, all > 0
        self.h_max: float = max(eg.h for eg in edge_grids)
        V = len(vertex_index)
        inv = np.array([1.0 / eg.h for eg in edge_grids])
        sizes = [eg.gidx.size - 2 for eg in edge_grids]
        self._diag, self._diag_k = diag, diag_k
        self._off = np.repeat(-inv, sizes)[:-1]
        self._off[np.cumsum(sizes)[:-1] - 1] = 0.0
        self._ends = np.array([(eg.gidx[0], eg.gidx[-1] if eg.gidx[-1] >= 0 else eg.gidx[0])
                               for eg in edge_grids])
        self._pos = np.array([(eg.gidx[1], eg.gidx[-2]) for eg in edge_grids]) - V
        finite = np.array([eg.gidx[-1] >= 0 for eg in edge_grids])
        self._coef = np.stack([-inv, np.where(finite, -inv, 0.0)], axis=1)
        self._sizes = np.array(sizes)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u, for u of shape (n,) or (n, k), real or complex."""
        return self._times(self._diag, u)

    def apply_k(self, u: np.ndarray) -> np.ndarray:
        """K u, the stiffness (gradient) part of A alone."""
        return self._times(self._diag_k, u)

    def _times(self, diag, x):
        if x.ndim == 2:
            return np.column_stack([self._times(diag, col) for col in x.T])
        # each row sums its terms in column order, as a CSR product does
        V, off, coef, ends = len(self.vertex_index), self._off, self._coef, self._ends
        pos = V + self._pos
        y = np.empty(x.shape, np.result_type(diag, x))
        y[:V + 1] = 0.0
        np.multiply(off, x[V:-1], out=y[V + 1:])
        y[pos] += coef * x[ends]
        t = diag * x   # one scratch vector for both products
        y += t
        t = np.multiply(off, x[V + 1:], out=t[:off.size])
        y[V:-1] += t
        np.add.at(y, ends, coef * x[pos])
        return y

    # scipy.sparse CSR copies, built on first use (for tests and the
    # benchmark) and left out of pickles
    @cached_property
    def A(self):
        return self._csr(self._diag)

    @cached_property
    def K(self):
        return self._csr(self._diag_k)

    def _csr(self, diag):
        import scipy.sparse as sp

        V, n = len(self.vertex_index), self.n_nodes
        off = np.concatenate([np.zeros(V), self._off])
        B = sp.coo_matrix((self._coef.ravel(), (self._ends.ravel(), self._pos.ravel() + V)),
                          shape=(n, n))
        csr = (sp.diags([off, diag, off], [-1, 0, 1]) + B + B.T).tocsr()
        csr.eliminate_zeros()
        return csr

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("A", "K")}

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


def check_grid(n_vertices: int, edges, target_h: float) -> list[int]:
    """Cells per edge of build()'s grid, from the vertex count and the edges
    as (grid length, count) pairs; ConfigurationError, before anything is
    allocated, unless each edge has >= 4 cells (target_h <= shortest edge / 4)
    and the grid at most MAX_NODES nodes and MAX_VERTICES vertices."""
    min_len = min(length for length, _ in edges)
    if not target_h > 0 or target_h > min_len / 4.0 * (1.0 + 1e-12):
        raise ConfigurationError(
            f"grid step {target_h} too large: at most (shortest edge)/4 = {min_len / 4.0}"
        )
    # cell counts in floats: a tiny step gives inf here, not an OverflowError
    cells = [max(4.0, np.ceil(length / target_h)) for length, _ in edges]
    nodes = n_vertices + sum(count * (n - 1.0) for (_, count), n in zip(edges, cells))
    if not nodes <= MAX_NODES:
        raise ConfigurationError(
            f"grid step {target_h} gives {nodes:.3g} nodes, above the limit {MAX_NODES}"
        )
    if n_vertices > MAX_VERTICES:
        raise ConfigurationError(
            f"graph has {n_vertices} vertices, above the limit {MAX_VERTICES}"
        )
    return [int(n) for n in cells]


def build(g: MetricGraph, target_h: float) -> Discretization:
    """Grid and form assembly on a grid that check_grid accepts."""
    cells = check_grid(len(g.vertices), [(e.grid_length, 1) for e in g.edges], target_h)
    vertex_index = {v.id: i for i, v in enumerate(g.vertices)}
    n_nodes = len(g.vertices) + sum(n - 1 for n in cells)
    m, diag_k, diag_w = np.zeros(n_nodes), np.zeros(n_nodes), np.zeros(n_nodes)
    grids, next_free = [], len(g.vertices)
    for e, n_cells in zip(g.edges, cells):
        length = e.grid_length
        h = length / n_cells
        x = np.linspace(0.0, length, n_cells + 1)
        gidx = np.empty(n_cells + 1, dtype=np.int64)
        gidx[0] = vertex_index[e.frm]
        gidx[1:-1] = np.arange(next_free, next_free + n_cells - 1)
        gidx[-1] = -1 if e.is_external else vertex_index[e.to]
        grids.append(EdgeGrid(edge_id=e.id, h=h, x=x, gidx=gidx))
        # the interior is one index block; only the vertex ends accumulate,
        # edge by edge, in the order a scatter over the edges would add them
        inv, w = 1.0 / h, e.potential.values_at(x)
        inner = slice(next_free, next_free + n_cells - 1)
        next_free = inner.stop
        m[inner], diag_k[inner], diag_w[inner] = h, inv + inv, w[1:-1] * h
        for node, value in ((gidx[0], w[0]), (gidx[-1], w[-1])):
            if node >= 0:
                m[node] += h / 2.0
                diag_k[node] += inv
                diag_w[node] += value * (h / 2.0)

    diag = diag_k + diag_w
    for v in g.vertices:
        diag[vertex_index[v.id]] -= v.alpha
    return Discretization(g, tuple(grids), vertex_index, m, diag, diag_k)


@cache
def _lapack(names: tuple, dtype) -> tuple:
    """The LAPACK routines ``names`` (without their type prefix) for dtype,
    as scipy.linalg.get_lapack_funcs gives them, but from scipy's extension
    module loaded from its file: importing the scipy.linalg package would
    cost a grid command about a third of its start-up."""
    name = "scipy.linalg._flapack"
    try:
        if name not in sys.modules:
            where = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                                 "linalg", "_flapack")
            path = next(where + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                        if os.path.exists(where + suffix))
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    except (AttributeError, ImportError, OSError, StopIteration):   # a scipy laid out otherwise
        from scipy.linalg import get_lapack_funcs
        return get_lapack_funcs(names, dtype=dtype)
    prefix = {"f": "s", "d": "d", "F": "c", "D": "z"}[np.dtype(dtype).char]
    return tuple(getattr(sys.modules[name], prefix + routine) for routine in names)


class Elimination:
    """Storage for the O(n) edge/vertex elimination of A + diag(shift),
    kept across refactors: the off-diagonals cast once to the factor's
    dtype, the factor of the interior block T (see Discretization), Z with
    as many columns as the graph needs and the Schur complement's LU.
    Every solve is ``refactor`` (or ``_factor_definite``) into one, then
    ``solve_in_place``; the CN time loop calls ``factor_solve`` on one per step.

    A real shift first tries LAPACK ?pttrf (in ?ptsv), LDL^T without pivoting, which
    succeeds exactly when T is positive definite (``definite``); otherwise,
    and for a complex shift (T is then complex symmetric, not Hermitian),
    ?gttrf factors T with partial pivoting.  ?getrf factors the Schur
    complement S = A_VV + diag(s_V) - B T^{-1} B^T.  A solve back-substitutes
    x_I = T^{-1} x_I - Z x_V edge by edge, each end's x_V repeated over the
    edge's interior.  DomainError when a pivot of T or S is at or below
    n eps max|diag|: the matrix is singular to working precision."""

    def __init__(self, d: Discretization, dtype):
        self.d, self.dtype = d, np.dtype(dtype)
        self.V, n = len(d.vertex_index), d.n_nodes
        self._gttrf, self._gttrs, self._gtsv, self._getrf, self._getrs = _lapack(
            ("gttrf", "gttrs", "gtsv", "getrf", "getrs"), self.dtype)
        self._ptsv, self._pttrs = (_lapack(("ptsv", "pttrs"), float) if self.dtype == float
                                   else (None, None))
        # A's diagonal and off-diagonals cast once (read-only here), and what
        # each factor reuses: -B's coefficients, where B Z lands in S, n eps
        self._a, self._off = (v.astype(self.dtype, copy=False) for v in (d._diag, d._off))
        self._neg, self._tol = -d._coef[:, :, None], n * np.finfo(float).eps
        self._dl, self._du = np.empty_like(self._off), np.empty_like(self._off)
        self._diag, self._abs = np.empty(n, self.dtype), np.empty(n)
        # Z = T^{-1} B^T, two coefficients per interior node: column j answers
        # each edge's coupling at its j-th end; a graph of half-lines has no
        # second column (a half-line's far end couples to nothing).  Z sits
        # beside x_I in one buffer [x_V | x_I | Z], as factor_solve's ?gtsv
        # takes them; each factor restores Z to B^T, nonzero at _bt_at
        self._cols = cols = 2 if d._coef[:, 1].any() else 1
        self._buf = np.empty(n + cols * (n - self.V), self.dtype)
        self._R = self._buf[self.V:].reshape((n - self.V, cols + 1), order="F")
        self._bt_at = d._pos[:, :cols], np.arange(1, cols + 1)
        self._into_s = (d._ends[:, :, None] * self.V + d._ends[:, None, :cols]).ravel()
        self.factorizations = 0   # refactors and factor_solves into this storage

    def refactor(self, shift: np.ndarray) -> None:
        """Factor A + diag(shift) into this storage, replacing the last factor."""
        if not self._factor_definite(shift):   # ?gttrf overwrites T's off-diagonals: restore them
            np.copyto(self._dl, self._off)
            np.copyto(self._du, self._off)
            dl, dt, du, du2, ipiv, _ = self._gttrf(self._dl, self._diag[self.V:], self._du,
                                                   overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            self._T, self._trs = (dl, dt, du, du2, ipiv), self._gttrs
            self._schur(dt, self._trs(*self._T, self._R[:, 1:], overwrite_b=1)[0])

    def _factor_definite(self, shift: np.ndarray) -> bool:
        """refactor by ?ptsv (?pttrf, then ?pttrs for Z) where the shift is real and T
        positive definite; returns ``definite``.  Otherwise A + diag(shift) is loaded, B^T kept."""
        diag, self.definite = self._load(shift), False
        if self._ptsv is not None:
            np.copyto(self._dl, self._off)
            dt, e, Z, info = self._ptsv(diag[self.V:], self._dl, self._R[:, 1:], overwrite_d=1,
                                        overwrite_e=1, overwrite_b=1)
            if info == 0:
                self.definite, self._T, self._trs = True, (dt, e), self._pttrs
                self._schur(dt, Z)
            else:   # the failed ?pttrf overwrote the diagonal
                np.add(self._a, shift, out=diag)
        return self.definite

    def factor_solve(self, shift: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The solution x of (A + diag(shift)) x = w u, for w and u of shape
        (n,), in storage that the next call overwrites.  One ?gtsv, with
        ?gttrf's and ?gttrs's arithmetic, eliminates T and solves it for B^T
        and w_I u_I together.  It keeps no factor of T, so when refine is
        asked for, this refactors and solves as refactor + solve_in_place."""
        V, diag = self.V, self._load(shift)
        x = np.multiply(w, u, out=self._buf[:self.d.n_nodes])
        self.definite, self._T = False, None
        np.copyto(self._dl, self._off)
        np.copyto(self._du, self._off)
        _, dt, _, R, info = self._gtsv(self._dl, diag[V:], self._du, self._R, overwrite_dl=1,
                                       overwrite_d=1, overwrite_du=1, overwrite_b=1)
        self._schur(None if info > 0 else dt, R[:, 1:])
        if not self.refine:
            return self._eliminate(x[:, None], R[:, :1])[:, 0]
        self.refactor(shift)
        self.solve_in_place(np.multiply(w, u, out=x)[:, None])
        return x

    def _load(self, shift):
        """A + diag(shift)'s diagonal, its max modulus kept; B^T restored."""
        self.shift, self.factorizations = shift, self.factorizations + 1
        self._R[:, 1:] = 0.0
        self._R[self._bt_at] = self.d._coef[:, :self._cols]
        diag = np.add(self._a, shift, out=self._diag)
        self._big = np.abs(diag, out=self._abs).max()
        return diag

    def _schur(self, dt, Z):
        """Keep Z and factor S from it; dt, T's pivots, is None where ?gtsv met an exact zero."""
        V, diag, big = self.V, self._diag, self._big
        S = np.diag(diag[:V])    # A's vertex block is diagonal
        np.add.at(S.reshape(-1), self._into_s, (self._neg * Z[self.d._pos]).reshape(-1))
        lu, piv, _ = self._getrf(S)
        worst = 0.0 if dt is None else min(np.abs(dt, out=self._abs[V:]).min(),
                                           np.abs(lu.diagonal()).min())
        if not worst > self._tol * big:
            raise DomainError(f"A + diag(shift) is singular: pivot {worst:.3g} <= n eps max|diag|")
        # x_I = y - Z x_V cancels digits when T is nearly singular, as a shift
        # near a Dirichlet eigenvalue of an edge makes it; |Z| >> 1 shows the
        # loss, and one step of iterative refinement wins the digits back
        parts = Z.ravel(order="K").view(float)
        self.refine = bool(max(parts.max(), -parts.min()) > 10.0)
        self._Z, self._S, self._lu, self._piv = Z, S, lu, piv

    def _eliminate(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Overwrite x, of shape (n, k), with the solution, from y = T^{-1} x_I
        (solved with the kept factor of T unless given)."""
        V, d = self.V, self.d
        if y is None:   # a column of x is contiguous, so LAPACK solves it in place
            y = x[V:]
            for k in range(x.shape[1]):
                col = self._trs(*self._T, y[:, k], overwrite_b=1)[0]
                if not np.may_share_memory(col, y):
                    y[:, k] = col
        r = x[:V].copy()
        np.add.at(r, d._ends, self._neg * y[d._pos])
        x[:V] = x_v = self._getrs(self._lu, self._piv, r)[0]
        for j in range(self._cols):
            for k in range(x.shape[1]):
                z = np.repeat(x_v[d._ends[:, j], k], d._sizes)
                y[:, k] -= np.multiply(self._Z[:, j], z, out=z)
        if not np.may_share_memory(y, x):   # overwrite_b is a request, not a promise
            x[V:] = y
        return x

    def extend(self, y: np.ndarray) -> np.ndarray:
        """x = (y, -Z y), which A + diag(shift) maps to (S y, 0), for vertex values y."""
        d, x = self.d, np.empty(self.d.n_nodes, self.dtype)
        x[:self.V] = y
        np.multiply(self._Z[:, 0], np.repeat(-y[d._ends[:, 0]], d._sizes), out=x[self.V:])
        if self._cols == 2:
            z = np.repeat(y[d._ends[:, 1]], d._sizes)
            x[self.V:] -= np.multiply(self._Z[:, 1], z, out=z)
        return x

    def solve_in_place(self, x: np.ndarray) -> None:
        """Overwrite x, of shape (n, k) and the factor's dtype, with the
        solution of (A + diag(shift)) y = x.  A real factor solves a complex b
        as x = b.view(float).reshape(n, -1): its real and imaginary columns."""
        b = x.copy() if self.refine else None
        self._eliminate(x)
        if self.refine:
            x += self._eliminate(b - (self.d.apply(x) + self.shift[:, None] * x))

    def n_negative(self) -> int:
        """For a real shift, the number of negative eigenvalues of
        A + diag(shift), by Haynsworth: inertia = inertia(T) + inertia(S).
        T has none when ?pttrf factored it; otherwise a Sturm count gives
        them (?gttrf's pivots do not: dstebz over (-inf, 0]).  S's come from
        eigh, which also keeps S's lowest eigenpair as ``lowest``."""
        V, d, in_t = self.V, self.d, 0
        if not self.definite:   # abstol inf: the end points' Sturm counts, and no bisection
            (stebz,) = _lapack(("stebz",), float)
            in_t = stebz(d._diag[V:] + self.shift[V:], d._off, 1, -np.inf, 0.0, 1, 1, np.inf,
                         "E")[0]
        lam, vec = np.linalg.eigh(self._S)
        self.lowest = lam[0], vec[:, 0]
        return in_t + int(np.sum(lam < 0.0))


# ---------------------------------------------------------------------------
# norms and forms
# ---------------------------------------------------------------------------

def mass(u: GraphFunction) -> float:
    """Squared L2 norm: sum_i m_i |u_i|^2."""
    return float(np.sum(u.disc.m * np.abs(u.values) ** 2))


def rescale_to_mass(u: GraphFunction, c: float, what: str) -> GraphFunction:
    """Scale u in place by sqrt(c / mass(u)) and return it; DomainError naming
    ``what`` unless the mass is finite and nonzero and c / mass finite (a
    start whose squares overflow would be scaled to zero, or to NaN)."""
    with np.errstate(over="ignore"):   # an overflowing square is refused below
        nrm2 = mass(u)
    ratio = c / nrm2 if 0.0 < nrm2 < math.inf else math.nan
    if not ratio < math.inf:
        raise DomainError(f"{what} has mass {nrm2:.6g}, which cannot be rescaled to mass "
                          f"c={c:.6g}: it must be finite and nonzero")
    u.values *= math.sqrt(ratio)
    return u


def quadratic_form(u: GraphFunction) -> float:
    """Energy form Re(u* A u): gradient + potential - vertex terms."""
    return float(np.real(np.vdot(u.values, u.disc.apply(u.values))))


def g_norm_sq(u: GraphFunction, lambda0: float) -> float:
    """Localization norm: form[u] + 2*lambda0*||u||^2 (>= lambda0*||u||^2)."""
    return quadratic_form(u) + 2.0 * lambda0 * mass(u)


def lp_norm(u: GraphFunction, q: float) -> float:
    if not 1 <= q < math.inf:
        raise DomainError(f"lp_norm needs finite q >= 1, got {q!r}")
    return float(np.sum(u.disc.m * np.abs(u.values) ** q) ** (1.0 / q))


def grad_norm_sq(u: GraphFunction) -> float:
    """Squared L2 norm of the element-wise derivative."""
    return float(np.real(np.vdot(u.values, u.disc.apply_k(u.values))))


def h1_norm_sq(u: GraphFunction) -> float:
    return grad_norm_sq(u) + mass(u)


def h1_inner(u: GraphFunction, v: GraphFunction) -> complex:
    """H1 inner product <u, v> (conjugate-linear in v)."""
    return complex(np.vdot(v.values, u.disc.apply_k(u.values))
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
    return complex(total + d.graph.vertices[gi].alpha * u.values[gi])


# ---------------------------------------------------------------------------
# CSV interchange: columns (edge_id, x, re, im)
# ---------------------------------------------------------------------------

def save_function_csv(u: GraphFunction, path) -> None:
    """Write u as (edge_id, x, re, im) rows, edge by edge, 0 at truncation
    ends; ConfigurationError naming the path when it cannot be written."""
    with os_action(f"write function CSV {path}"), open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "x", "re", "im"])
        for eg in u.disc.edge_grids:   # plain floats, which csv prints with repr
            val = np.where(eg.gidx >= 0, u.values[eg.gidx], 0.0)
            w.writerows(zip([eg.edge_id] * eg.x.size, eg.x.tolist(), np.real(val).tolist(),
                            np.imag(val).tolist()))


def load_function_csv(d: Discretization, path) -> GraphFunction:
    """Read a (edge_id, x, re, im) table with a row at every node of this
    grid (x to 1e-9 relative), its columns found by header name; other rows,
    as a finer grid's between the nodes, are skipped.  A node without a row,
    a repeated (edge_id, x) or an edge the grid lacks is a SchemaError."""
    with os_action(f"read function CSV {path}"), open(path, newline="") as fh:
        reader = csv.reader(fh)
        col = {name: k for k, name in enumerate(next(reader, []))}
        rows = [row for row in reader if row]   # a blank line is no row
    try:
        edges, text, *parts = ([row[k] for row in rows]
                               for k in [col[name] for name in ("edge_id", "x", "re", "im")])
        x, re, im = (np.array([float(v) for v in c], dtype=float) for c in (text, *parts))
    except (IndexError, KeyError, ValueError):
        raise SchemaError("function CSV needs columns edge_id,x,re,im") from None
    finite = np.isfinite(x) & np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        k = np.argmin(finite)
        raise SchemaError(f"function CSV has a non-finite entry on edge {edges[k]!r} "
                          f"at x = {text[k]}")
    index: dict[str, int] = {}
    code = np.array([index.setdefault(e, len(index)) for e in edges], dtype=np.intp)
    order = np.lexsort((x, code))   # by edge, then x; stable, so a repeat follows its first row
    code, xs = code[order], x[order]
    repeat = order[1:][(code[1:] == code[:-1]) & (xs[1:] == xs[:-1])]   # the later rows
    if repeat.size:
        k = repeat.min()
        raise SchemaError(f"function CSV repeats edge {edges[k]!r} at x = {text[k]}")
    ys, vals = (re + 1j * im)[order], np.zeros(d.n_nodes, dtype=np.complex128)
    for eg in d.edge_grids:
        if eg.edge_id not in index:
            raise SchemaError(f"function CSV is missing edge {eg.edge_id!r}")
        first, end = np.searchsorted(code, [index[eg.edge_id], index[eg.edge_id] + 1])
        table, keep = xs[first:end], eg.gidx >= 0
        at = eg.x[keep]
        # the nearest tabulated x to a node is one of its two sorted neighbours
        hi = np.minimum(np.searchsorted(table, at), len(table) - 1)
        lo = np.maximum(hi - 1, 0)
        k = np.where(np.abs(table[hi] - at) < np.abs(table[lo] - at), hi, lo)
        bad = np.abs(table[k] - at) > 1e-9 * (1.0 + np.abs(at))
        if np.any(bad):
            raise SchemaError(f"function CSV does not match the grid on edge {eg.edge_id!r} "
                              f"near x = {at[np.argmax(bad)]}")
        vals[eg.gidx[keep]] = ys[first + k]
    unknown = sorted(index.keys() - {eg.edge_id for eg in d.edge_grids})
    if unknown:
        raise SchemaError(f"function CSV has rows for edge {unknown[0]!r}, "
                          "which the grid does not have")
    return GraphFunction(d, vals)
