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

Both ``evolve`` and ``stability_experiment`` run the one time loop,
``_trajectory``: it checks the time grid, seeds the relaxation field, steps
under the overflow guard and yields the sampled states; each caller only
applies its own observables to those samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError
from .mesh import (
    Discretization,
    GraphFunction,
    factor,
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


@dataclass
class EvolutionState:
    t: float
    u: GraphFunction
    gamma_relax: np.ndarray    # auxiliary nonlinearity field at the last half step
    dt: float

    def __post_init__(self):
        if self.dt == 0.0:
            raise DomainError("dt must be nonzero")


def _nonlinearity(u_vals: np.ndarray, p: float | None) -> np.ndarray:
    if p is None:
        return np.zeros(u_vals.shape)
    return np.abs(u_vals) ** (p - 1.0)


def initial_state(u0: GraphFunction, dt: float, p: float | None) -> EvolutionState:
    """Seed the relaxation field with |u0|^{p-1}, so the first step
    degenerates to a midpoint linearization."""
    return EvolutionState(
        t=0.0,
        u=u0.copy(),
        gamma_relax=_nonlinearity(u0.values, p),
        dt=dt,
    )


def step(
    state: EvolutionState,
    d: Discretization,
    p: float | None,
    sup_guard: float | None = None,
    _solve=None,
) -> EvolutionState:
    """One relaxation Crank-Nicolson step; p=None integrates the linear flow
    (_trajectory passes its one factor of that flow's matrix as _solve)."""
    u = state.u.values
    dt = state.dt
    gam = 2.0 * _nonlinearity(u, p) - state.gamma_relax
    diag = 1j * d.m / dt + 0.5 * d.m * gam
    rhs = (diag - d.m * gam) * u + 0.5 * (d.A @ u)
    # (diag - A/2) u = rhs, scaled by -2 (exact) into the A + diag(s) form
    u_next = (_solve or factor(d, -2.0 * diag))(-2.0 * rhs)
    if not np.all(np.isfinite(u_next)):
        raise BlowUpError(f"non-finite state at t={state.t + dt}", t=state.t + dt)
    if sup_guard is not None and float(np.max(np.abs(u_next))) > sup_guard:
        raise BlowUpError(
            f"sup norm exceeded the overflow guard at t={state.t + dt}: blow-up suspected",
            t=state.t + dt,
        )
    return EvolutionState(
        t=state.t + dt,
        u=GraphFunction(d, u_next),
        gamma_relax=gam,
        dt=dt,
    )


@dataclass
class EvolutionTrace:
    times: list
    mass: list
    energy: list
    sup: list


def _n_steps(t_final: float, dt: float) -> int:
    """Number of steps of size dt that land on t_final; anything other than
    a positive whole number (to 1e-9 relative) is refused, never rounded."""
    ratio = t_final / dt if dt else math.nan
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise DomainError(
            f"t_final={t_final!r} is not a positive whole number of steps dt={dt!r}"
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
    # without the nonlinearity the CN matrix never changes: factor it once
    solve = factor(d, -2.0 * (1j * d.m / dt)) if p is None else None
    yield state
    for k in range(1, n_steps + 1):
        state = step(state, d, p, sup_guard=guard, _solve=solve)
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

    t_final must be a whole number of steps dt (DomainError otherwise)."""
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
    a whole number of steps dt.
    """
    if not delta >= 0:
        raise DomainError("perturbation size must be nonnegative")
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
