"""Time integration of the focusing Schrodinger flow on the graph and the
orbital-stability experiment.

The stepper is a relaxation Crank-Nicolson scheme: an auxiliary field
tracks |u|^{p-1} at half steps,

    gam_{n+1/2} = 2 |u^n|^{p-1} - gam_{n-1/2},
    (i M/dt - A/2 + M gam_{n+1/2}/2) u^{n+1}
        = (i M/dt + A/2 - M gam_{n+1/2}/2) u^n,

so each step is one linear solve with a Hermitian-congruent Cayley
transform: the discrete mass is conserved to solver accuracy, the scheme is
second order in dt, and no nonlinear solve is needed.  Splitting methods
are unavailable here (the vertex coupling rules out edge-wise Fourier
diagonalization), which is what makes the graph-wide linear solve natural.
With L = i M/dt - A/2 + M gam/2 the right-hand side is (2i M/dt - L) u^n,
so a step computes u^{n+1} = L^{-1} (2i M/dt) u^n - u^n: one solve and no
product with A.

Both ``evolve`` and ``stability_experiment`` run the one time loop,
``_trajectory``: it checks the time grid, seeds the relaxation field, steps
under the overflow guard and yields the sampled states; each caller only
applies its own observables to those samples.  A trajectory keeps one
factor's storage, refactored in place at every step; each step allocates
its new state.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError, check_exponent
from .mesh import (
    Discretization,
    Elimination,
    GraphFunction,
    h1_inner,
    h1_norm_sq,
    mass,
    quadratic_form,
)
from .minimizers import energy

__all__ = [
    "EvolutionState",
    "EvolutionTrace",
    "StabilityTrace",
    "initial_state",
    "step",
    "evolve",
    "orbit_distance",
    "stability_experiment",
]

# a step whose sup norm exceeds this multiple of the initial one is a blow-up
_BLOW_UP_RATIO = 1e6
# most time steps an evolve or stability run may take: 100 times the longest documented run
MAX_STEPS = 10**6


@dataclass
class EvolutionState:
    t: float
    u: GraphFunction
    gamma_relax: np.ndarray    # auxiliary nonlinearity field at the last half step
    dt: float

    def __post_init__(self):
        if self.dt == 0.0:
            raise DomainError("dt must be nonzero")


def initial_state(u0: GraphFunction, dt: float, p: float | None) -> EvolutionState:
    """Seed the relaxation field with |u0|^{p-1}, so the first step
    degenerates to a midpoint linearization."""
    return EvolutionState(
        t=0.0,
        u=u0.copy(),
        gamma_relax=np.zeros(u0.values.shape) if p is None else np.abs(u0.values) ** (p - 1.0),
        dt=dt,
    )


class _Workspace:
    """One trajectory's storage: the CN factor, refactored in place at every
    step, and the step's buffers."""

    def __init__(self, d: Discretization, dt: float, p: float | None):
        self.elim = Elimination(d, np.complex128)
        self.neg_m, self.scale = -d.m, -4j * d.m / dt
        # the factored shift -m (gam + 2i/dt) keeps its imaginary part;
        # without the nonlinearity (gam = 0) it never changes: factor it once
        self.shift = -2j * d.m / dt
        if p is None:
            self.elim.refactor(self.shift)
        # |u| of the last state step returned (its sup pass writes it), which
        # the next step from that state reuses for |u|^{p-1}
        self.abs, self.abs_of = np.empty(d.n_nodes), None


def step(
    state: EvolutionState,
    d: Discretization,
    p: float | None,
    sup_guard: float | None = None,
    _work: _Workspace | None = None,
) -> EvolutionState:
    """One relaxation Crank-Nicolson step; p=None integrates the linear flow
    (_trajectory passes its one workspace as _work)."""
    u, dt = state.u.values, state.dt
    work = _Workspace(d, dt, p) if _work is None else _work
    u_next, gam = np.empty(u.size, np.complex128), np.empty(u.size)
    if p is None:
        gam.fill(0.0)
    else:
        if work.abs_of is u:
            np.copyto(gam, work.abs)
        else:
            np.abs(u, out=gam)
        gam **= p - 1.0
        gam *= 2.0
        gam -= state.gamma_relax
        np.multiply(work.neg_m, gam, out=work.shift.real)
        work.elim.refactor(work.shift)
    # Cayley form: with L = i M/dt - A/2 + M gam/2 the right side is
    # (2i M/dt - L) u, so u_next = L^{-1} (2i M/dt) u - u; the factor is of -2L
    np.multiply(work.scale, u, out=u_next)
    work.elim.solve_in_place(u_next[:, None])
    u_next -= u
    t = state.t + dt
    # one pass decides both checks (a finite state has a finite sup unless
    # |u| itself overflows)
    sup = float(np.abs(u_next, out=work.abs).max())
    work.abs_of = u_next
    if not math.isfinite(sup) and not np.all(np.isfinite(u_next)):
        raise BlowUpError(f"non-finite state at t={t}", t=t)
    if sup_guard is not None and sup > sup_guard:
        raise BlowUpError(
            f"sup norm exceeded the overflow guard at t={t}: blow-up suspected", t=t)
    return EvolutionState(t=t, u=GraphFunction(d, u_next), gamma_relax=gam, dt=dt)


@dataclass
class EvolutionTrace:
    times: list
    mass: list
    energy: list
    sup: list


def _n_steps(t_final: float, dt: float) -> int:
    """Number of steps of size dt that land on t_final; anything other than
    a positive whole number (to 1e-9 relative) is refused, never rounded,
    and more than MAX_STEPS is a ConfigurationError."""
    ratio = t_final / dt if dt else math.nan
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise DomainError(
            f"t_final={t_final!r} is not a positive whole number of steps dt={dt!r}"
        )
    if n > MAX_STEPS:
        raise ConfigurationError(
            f"t_final={t_final!r} and dt={dt!r} ask for {ratio:.3g} steps, "
            f"above the limit {MAX_STEPS}"
        )
    return n


def _trajectory(d: Discretization, p: float | None, u0: GraphFunction, dt: float,
                n_steps: int, sample_every: int):
    """The time loop: yield the state at t=0, after every sample_every-th
    step and after the last step, stopping at the overflow guard."""
    if sample_every < 1:
        raise DomainError("sample_every must be a positive integer")
    state = initial_state(u0, dt, p)
    guard = _BLOW_UP_RATIO * float(np.max(np.abs(u0.values)))
    work = _Workspace(d, dt, p)
    yield state
    for k in range(1, n_steps + 1):
        state = step(state, d, p, sup_guard=guard, _work=work)
        if k % sample_every == 0 or k == n_steps:
            yield state


def evolve(
    d: Discretization,
    p: float | None,
    u0: GraphFunction,
    dt: float,
    t_final: float,
    sample_every: int = 1,
) -> tuple[GraphFunction, EvolutionTrace]:
    """Integrate to t_final, sampling (t, mass, energy, sup) along the way.

    t_final must be a whole number of steps dt, and p in (1, MAX_EXPONENT]
    or None (DomainError otherwise)."""
    if p is not None:
        check_exponent(p, "evolve")
    trace = EvolutionTrace([], [], [], [])
    for state in _trajectory(d, p, u0, dt, _n_steps(t_final, dt), sample_every):
        trace.times.append(state.t)
        trace.mass.append(mass(state.u))
        # p=None is the linear flow, whose energy is the quadratic part alone
        trace.energy.append(0.5 * quadratic_form(state.u) if p is None
                            else energy(state.u, p).total)
        trace.sup.append(float(np.max(np.abs(state.u.values))))
    return state.u, trace


def orbit_distance(u: GraphFunction, phi_ref: GraphFunction) -> tuple[float, float]:
    """Distance in H1 from u to the phase circle of phi_ref.

    The optimal phase is exactly theta = arg <u, phi_ref>_{H1}; returns
    (min_theta ||u - e^{i theta} phi_ref||_{H1}, theta)."""
    if mass(phi_ref) == 0.0:
        raise DomainError("reference profile must be nonzero")
    theta = float(np.angle(h1_inner(u, phi_ref)))
    # the difference itself: ||u||^2 + ||phi||^2 - 2|<u, phi>| would cancel
    diff = GraphFunction(u.disc, u.values - np.exp(1j * theta) * phi_ref.values)
    return math.sqrt(h1_norm_sq(diff)), theta


@dataclass
class StabilityTrace:
    times: list
    orbit_distance: list
    mass_drift: list      # relative, starts at 0
    energy_drift: list    # relative, starts at 0


def stability_experiment(
    d: Discretization,
    p: float,
    phi_ref: GraphFunction,
    delta: float,
    t_final: float,
    dt: float,
    mode: str = "eigenfunction-bump",
    bump: GraphFunction | None = None,
    seed: int = 0,
    n_samples: int = 200,
) -> StabilityTrace:
    """Perturb a reference standing profile, evolve, and track the H1
    distance to its phase orbit together with the conservation drifts.

    Modes: "eigenfunction-bump" adds delta * ||phi||_{H1} times the provided
    H1-normalized bump (typically the linear ground state);
    "multiplicative-noise" multiplies by 1 + delta * (seeded complex noise).
    The perturbed state is rescaled back to the reference mass, so the
    comparison stays on the same sphere.  As in ``evolve``, t_final must be
    a whole number of steps dt; p must lie in (1, MAX_EXPONENT] and seed be
    a non-negative integer.  The trace samples every
    max(1, n_steps // n_samples) steps, n_samples >= 1.
    """
    check_exponent(p, "the stability experiment")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"noise seed must be a non-negative integer, got seed={seed!r}")
    if not delta >= 0:
        raise DomainError("perturbation size must be nonnegative")
    if not n_samples >= 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples!r}")
    c = mass(phi_ref)
    if mode == "eigenfunction-bump":
        if delta > 0 and bump is None:
            raise DomainError("eigenfunction-bump mode needs a bump profile")
        u0_vals = phi_ref.values.astype(np.complex128)
        if delta > 0:
            bump_vals = bump.values / math.sqrt(h1_norm_sq(bump))
            u0_vals = u0_vals + delta * math.sqrt(h1_norm_sq(phi_ref)) * bump_vals
    elif mode == "multiplicative-noise":
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(d.n_nodes) + 1j * rng.standard_normal(d.n_nodes)
        u0_vals = phi_ref.values * (1.0 + delta * noise / math.sqrt(2.0))
    else:
        raise DomainError(f"unknown perturbation mode {mode!r}")
    u0 = GraphFunction(d, u0_vals)
    u0.values *= math.sqrt(c / mass(u0))

    n_steps = _n_steps(t_final, dt)
    e0 = energy(u0, p).total
    e_scale = max(abs(e0), 1e-30)

    trace = StabilityTrace([], [], [], [])
    for state in _trajectory(d, p, u0, dt, n_steps, max(1, n_steps // n_samples)):
        u = state.u
        trace.times.append(state.t)
        trace.orbit_distance.append(orbit_distance(u, phi_ref)[0])
        # drifts are measured from the start, where they are 0 by definition
        # (the rescaled start has mass c only up to rounding)
        start = state.t == 0.0
        trace.mass_drift.append(0.0 if start else abs(mass(u) - c) / c)
        trace.energy_drift.append(0.0 if start else abs(energy(u, p).total - e0) / e_scale)
    return trace
