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
``_trajectory``: it steps from ``initial_state`` and yields the sampled
states; each caller only applies its own observables to those samples.
``initial_state(u0, dt, p)`` is the one way to start a trajectory: it fixes
u0's grid, dt and p, and builds the elimination's storage, which each step
factors and solves in a single LAPACK call (``Elimination.factor_solve``),
and the overflow guard.  ``step(state)`` reads them from there and hands
them on to the new state it allocates.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError, check_exponent
from .mesh import (
    Discretization,
    Elimination,
    GraphFunction,
    h1_inner,
    h1_norm_sq,
    mass,
    rescale_to_mass,
)
from .minimizers import _start_powers, energy

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


class _Workspace:
    """One trajectory: u0's grid, dt and p, the CN elimination, factored and
    solved in one call per step, the step's buffers and the overflow guard."""

    def __init__(self, u0: GraphFunction, dt: float, p: float):
        d = self.d = u0.disc
        self.dt, self.p = dt, p
        self.elim = Elimination(d, np.complex128)
        self.neg_m, self.scale = -d.m, -4j * d.m / dt
        # the factored shift -m (gam + 2i/dt) keeps its imaginary part
        self.shift = -2j * d.m / dt
        # |u| of the last state step returned (its sup pass writes it), which
        # the next step from that state reuses for |u|^{p-1}
        self.abs, self.abs_of = np.empty(d.n_nodes), None
        self.guard = _BLOW_UP_RATIO * float(np.max(np.abs(u0.values)))


@dataclass
class EvolutionState:
    """A trajectory's state, made by ``initial_state`` and ``step``."""
    values: np.ndarray         # u on the trajectory's grid
    gamma_relax: np.ndarray    # auxiliary nonlinearity field at the last half step
    steps: int                 # steps since the trajectory's start at t = 0
    traj: _Workspace = field(repr=False, compare=False)

    @property
    def u(self) -> GraphFunction:
        return GraphFunction(self.traj.d, self.values)

    @property
    def t(self) -> float:
        # a sum of steps dt would drift; 0.0 + keeps a start at dt < 0 at +0.0
        return 0.0 + self.steps * self.traj.dt


def initial_state(u0: GraphFunction, dt: float, p: float) -> EvolutionState:
    """Start a trajectory on u0's grid with step dt at exponent p, seeding the
    relaxation field with |u0|^{p-1}, so the first step degenerates to a
    midpoint linearization.  DomainError unless u0's mass, 2 max|u0|^(p-1)
    (the first step's field) and sum m|u0|^(p+1) are finite and dt nonzero."""
    gam = _start_powers(u0.values, u0.disc.m, p, "the start u0")
    if dt == 0.0:
        raise DomainError("dt must be nonzero")
    return EvolutionState(u0.values.copy(), gam, 0, _Workspace(u0, dt, p))


def step(state: EvolutionState) -> EvolutionState:
    """One relaxation Crank-Nicolson step of the state's trajectory; BlowUpError
    past its guard, _BLOW_UP_RATIO times the start's sup norm, and DomainError
    naming t, dt, p and max|u|^(p-1) where the step's matrix is singular to
    working precision.  The linear flow is the step at vanishing amplitude:
    |u|^{p-1} then falls below every diagonal entry's last digit."""
    u, traj = state.values, state.traj
    with np.errstate(over="ignore"):   # an infinite shift is refused as singular below
        gam = np.power(traj.abs if traj.abs_of is u else np.abs(u), traj.p - 1.0)
        gam *= 2.0
        gam -= state.gamma_relax
        np.multiply(traj.neg_m, gam, out=traj.shift.real)
    # Cayley form: with L = i M/dt - A/2 + M gam/2 the right side is
    # (2i M/dt - L) u, so u_next = L^{-1} (2i M/dt) u - u; the matrix is -2L
    try:
        u_next = traj.elim.factor_solve(traj.shift, traj.scale, u) - u
    except DomainError as exc:
        with np.errstate(over="ignore"):
            big = np.max(np.abs(u)) ** (traj.p - 1.0)
        raise DomainError(f"the Crank-Nicolson step from t={state.t!r} by dt={traj.dt!r} "
                          f"at p={traj.p!r}, where max|u|^(p-1) = {big:.3g}: {exc}") from None
    out = EvolutionState(u_next, gam, state.steps + 1, traj)
    sup = float(np.abs(u_next, out=traj.abs).max())
    traj.abs_of = u_next
    if not sup <= traj.guard:   # a NaN in the state fails too
        raise BlowUpError(f"sup norm {sup:.6g} at t={out.t} is past the overflow guard "
                          f"{traj.guard:.6g}: blow-up suspected", t=out.t)
    return out


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


def _trajectory(u0: GraphFunction, dt: float, p: float, n_steps: int, sample_every: int):
    """The time loop: yield the state at t=0, after every sample_every-th
    step and after the last step, stopping at the overflow guard."""
    if sample_every < 1:
        raise DomainError("sample_every must be a positive integer")
    state = initial_state(u0, dt, p)
    yield state
    for k in range(1, n_steps + 1):
        state = step(state)
        if k % sample_every == 0 or k == n_steps:
            yield state


def evolve(
    d: Discretization,
    p: float,
    u0: GraphFunction,
    dt: float,
    t_final: float,
    sample_every: int = 1,
) -> tuple[GraphFunction, EvolutionTrace]:
    """Integrate to t_final, sampling (t, mass, energy, sup) along the way.

    t_final must be a whole number of steps dt, p in (1, MAX_EXPONENT] and
    u0 a function on d (DomainError otherwise)."""
    check_exponent(p, "evolve")
    if u0.disc is not d:   # the trajectory runs on u0's grid
        raise DomainError("u0 lives on another grid than d")
    trace = EvolutionTrace([], [], [], [])
    for state in _trajectory(u0, dt, p, _n_steps(t_final, dt), sample_every):
        trace.times.append(state.t)
        trace.mass.append(mass(state.u))
        trace.energy.append(energy(state.u, p))
        trace.sup.append(float(np.max(np.abs(state.values))))
    return state.u, trace


def orbit_distance(u: GraphFunction, phi_ref: GraphFunction) -> tuple[float, float]:
    """Distance in H1 from u to the phase circle of phi_ref.

    The optimal phase is exactly theta = arg <u, phi_ref>_{H1}; returns
    (min_theta ||u - e^{i theta} phi_ref||_{H1}, theta).  DomainError unless
    phi_ref is nonzero and lives on u's grid."""
    if phi_ref.disc is not u.disc:
        raise DomainError("phi_ref lives on another grid than u")
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
    comparison stays on the same sphere; delta must be finite, and the
    perturbed state's mass finite and nonzero.  As in ``evolve``, t_final
    must be a whole number of steps dt; p must lie in (1, MAX_EXPONENT],
    seed be a non-negative integer and phi_ref and bump functions on d
    (DomainError otherwise).  The trace samples every
    max(1, n_steps // n_samples) steps, n_samples >= 1.
    """
    check_exponent(p, "the stability experiment")
    for name, fn in (("phi_ref", phi_ref), ("bump", bump)):
        if fn is not None and fn.disc is not d:
            raise DomainError(f"{name} lives on another grid than d")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"noise seed must be a non-negative integer, got seed={seed!r}")
    if not 0 <= delta < math.inf:
        raise DomainError(f"perturbation size must be nonnegative and finite, got delta={delta!r}")
    if not n_samples >= 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples!r}")
    with np.errstate(over="ignore"):   # an overflowing square is refused below
        c = mass(phi_ref)
    if not 0.0 < c < math.inf:
        raise DomainError(f"the reference profile (ref) has mass {c:.6g}: it must be finite "
                          "and nonzero")
    # a delta too large for the arithmetic below gives a non-finite start,
    # which rescale_to_mass refuses naming delta
    if mode == "eigenfunction-bump":
        if delta > 0 and bump is None:
            raise DomainError("eigenfunction-bump mode needs a bump profile")
        u0_vals = phi_ref.values.astype(np.complex128)
        if delta > 0:
            bump_vals = bump.values / math.sqrt(h1_norm_sq(bump))
            with np.errstate(over="ignore", invalid="ignore"):
                u0_vals = u0_vals + delta * math.sqrt(h1_norm_sq(phi_ref)) * bump_vals
    elif mode == "multiplicative-noise":
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(d.n_nodes) + 1j * rng.standard_normal(d.n_nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            u0_vals = phi_ref.values * (1.0 + delta * noise / math.sqrt(2.0))
    else:
        raise DomainError(f"unknown perturbation mode {mode!r}")
    u0 = rescale_to_mass(GraphFunction(d, u0_vals), c, f"the start perturbed by delta={delta!r}")

    n_steps = _n_steps(t_final, dt)
    e0 = energy(u0, p)
    e_scale = max(abs(e0), 1e-30)

    trace = StabilityTrace([], [], [], [])
    for state in _trajectory(u0, dt, p, n_steps, max(1, n_steps // n_samples)):
        u = state.u
        trace.times.append(state.t)
        trace.orbit_distance.append(orbit_distance(u, phi_ref)[0])
        # drifts are measured from the start, where they are 0 by definition
        # (the rescaled start has mass c only up to rounding)
        start = state.t == 0.0
        trace.mass_drift.append(0.0 if start else abs(mass(u) - c) / c)
        trace.energy_drift.append(0.0 if start else abs(energy(u, p) - e0) / e_scale)
    return trace
