"""Constrained energy minimization on the mass sphere, localized to the
energy ball B(r) = { form[u] + 2 lambda0 ||u||^2 <= r }.

The descent is a normalized gradient flow: one semi-implicit step

    (M/tau + A) v = M (u/tau + |u|^{p-1} u - omega_hat(u) u),
    u_next = sqrt(c) v / ||v||,

where omega_hat is the instantaneous multiplier estimate
(||u||_{p+1}^{p+1} - form[u]) / c.  Subtracting omega_hat u keeps the
sphere-tangential part of the gradient and makes the fixed points of the
iteration exactly the discrete stationary states, so the stationary
residual (the convergence metric) can actually reach the tolerance at a
fixed tau.  The (M/tau + A) factorization is computed once per call and
reused across its iterations.

The ball is monitored, never projected: leaving B(r) is evidence that the
requested mass is outside the validated window and is surfaced as a typed
error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BallExitError, ConvergenceError, DomainError, FeasibilityError
from .mesh import (
    Discretization,
    GraphFunction,
    factor,
    g_norm_sq,
    lp_norm,
    mass,
    quadratic_form,
)
from .spectrum import GroundStatePair, ground_state

__all__ = [
    "EnergyBreakdown",
    "MinimizerResult",
    "energy",
    "feasibility_bound",
    "lagrange_multiplier",
    "minimize",
    "structure_diagnostics",
    "scaling_energy_curve",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic_potential: float   # (1/2) form[u]
    nonlinear: float           # -(1/(p+1)) ||u||_{p+1}^{p+1}
    total: float


def energy(u: GraphFunction, p: float) -> EnergyBreakdown:
    if p < 1:
        raise DomainError("energy needs p >= 1")
    quad_half = 0.5 * quadratic_form(u)
    nonlin = -lp_norm(u, p + 1.0) ** (p + 1.0) / (p + 1.0)
    return EnergyBreakdown(quad_half, nonlin, quad_half + nonlin)


def feasibility_bound(lambda0: float, r: float) -> float:
    """Largest mass for which the sphere intersects the ball: r / lambda0."""
    if not r > 0 or not lambda0 > 0:
        raise DomainError("feasibility bound needs r > 0 and lambda0 > 0")
    return r / lambda0


def lagrange_multiplier(u: GraphFunction, p: float) -> float:
    """Multiplier of the stationary equation, read off by pairing it with u:
    omega = (||u||_{p+1}^{p+1} - form[u]) / ||u||^2."""
    nrm2 = mass(u)
    if nrm2 == 0.0:
        raise DomainError("multiplier undefined for the zero function")
    return (lp_norm(u, p + 1.0) ** (p + 1.0) - quadratic_form(u)) / nrm2


@dataclass
class MinimizerResult:
    phi: GraphFunction
    c: float
    r: float
    energy: float
    omega: float
    g_norm_sq: float
    iterations: int
    gradient_residual: float
    lambda0: float
    psi0: GraphFunction
    diagnostics: dict = field(default_factory=dict)
    energy_history: list = field(default_factory=list)
    max_mass_drift: float = 0.0   # worst |mass - c|/c over all iterates


def minimize(
    d: Discretization,
    p: float,
    c: float,
    r: float = 1.0,
    *,
    tau: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 50000,
    init: GraphFunction | None = None,
    ground: GroundStatePair | None = None,
) -> MinimizerResult:
    """Descend the energy on the mass-c sphere inside the ball B(r).

    Default start is sqrt(c) psi0 (which sits in the ball whenever the
    problem is feasible); every iterate is renormalized to mass c exactly
    and monitored against the ball.  Converges when the stationary residual
    || Au/m - |u|^{p-1} u + omega_hat u ||_{L2} / sqrt(c) <= tol.

    Raises DomainError (p < 5, c <= 0, tau not in (0, inf), tol <= 0; NaN
    fails every check), FeasibilityError (c > r/lambda0), BallExitError
    (iterate left B(r)), or ConvergenceError (iteration cap).
    """
    if not p >= 5:
        raise DomainError("local minimization is set up for p >= 5")
    if not c > 0:
        raise DomainError("mass c must be positive")
    if tau is None:
        tau = d.h_max
    if not 0 < tau < math.inf:
        raise DomainError(f"flow step tau must be positive and finite, got {tau!r}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if ground is None:
        ground = ground_state(d, tol=1e-10)
    lam0 = ground.lambda0
    c_max = feasibility_bound(lam0, r)
    if c > c_max:
        raise FeasibilityError(
            f"mass c={c:.6g} exceeds the feasibility bound r/lambda0={c_max:.6g}: "
            "the sphere does not meet the ball"
        )
    solve = factor(d, d.m / tau)
    m = d.m

    if init is None:
        u = ground.psi0.values.astype(np.complex128) * math.sqrt(c)
    else:
        u = init.values.astype(np.complex128).copy()
        if mass(GraphFunction(d, u)) == 0.0:
            raise DomainError("init function must be nonzero")
    u *= math.sqrt(c / float(np.sum(m * np.abs(u) ** 2)))

    residual = np.inf
    res_history: list[float] = []
    energy_history: list[float] = []
    max_mass_drift = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        Au = d.A @ u
        abs_u = np.abs(u)
        g = abs_u ** (p - 1.0) * u
        form = float(np.real(np.vdot(u, Au)))
        power = float(np.sum(m * abs_u ** (p + 1.0)))
        omega_hat = (power - form) / c
        energy_history.append(0.5 * form - power / (p + 1.0))
        max_mass_drift = max(max_mass_drift, abs(float(np.sum(m * abs_u**2)) - c) / c)

        g_sq = form + 2.0 * lam0 * c
        if g_sq > r:
            raise BallExitError(
                f"iterate {it} left the energy ball: ||u||_G^2 = {g_sq:.6g} > r = {r:.6g} "
                "(mass too large for this ball)",
                iteration=it,
                g_norm_sq=g_sq,
                r=r,
            )
        rvec = Au / m - g + omega_hat * u
        residual = math.sqrt(float(np.sum(m * np.abs(rvec) ** 2)) / c)
        res_history.append(residual)
        if not np.isfinite(residual):
            raise ConvergenceError(
                f"flow diverged at iteration {it}", residual=residual, history=res_history
            )
        if residual <= tol:
            break
        rhs = m * (u / tau + g - omega_hat * u)
        v = solve(rhs)
        u = v * math.sqrt(c / float(np.sum(m * np.abs(v) ** 2)))
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations (residual {residual:.3e})",
            residual=residual,
            history=res_history,
        )

    phi = GraphFunction(d, u)
    result = MinimizerResult(
        phi=phi,
        c=c,
        r=r,
        energy=energy(phi, p).total,
        omega=lagrange_multiplier(phi, p),
        g_norm_sq=g_norm_sq(phi, lam0),
        iterations=it,
        gradient_residual=residual,
        lambda0=lam0,
        psi0=ground.psi0,
        energy_history=energy_history,
        max_mass_drift=max_mass_drift,
    )
    result.diagnostics = structure_diagnostics(result)
    return result


def structure_diagnostics(res: MinimizerResult, interior_slack: float = 0.05) -> dict:
    """Structural checks on a minimizer: constant phase, strict positivity of
    the gauged profile, strict energy bound E < -lambda0 c / 2, and ball
    interiority ||phi||_G^2 <= r c (1 + slack).

    Reported, never thrown."""
    phi = res.phi.values
    psi0 = res.psi0.values.real
    m = res.phi.disc.m
    overlap = complex(np.sum(m * phi * psi0))
    theta = float(np.angle(overlap))
    gauged = np.exp(-1j * theta) * phi
    sup = float(np.max(np.abs(phi)))
    max_imag = float(np.max(np.abs(gauged.imag))) if sup > 0 else 0.0
    linear_level = -0.5 * res.lambda0 * res.c
    return {
        "theta_hat": theta,
        "phase_constant_ok": bool(max_imag <= 1e-8 * sup),
        "max_imag_over_sup": max_imag / sup if sup > 0 else 0.0,
        "positivity_ok": bool(np.min(gauged.real) > 0.0),
        "energy_below_linear_ok": bool(res.energy < linear_level),
        "energy_margin": float(linear_level - res.energy),
        "ball_interior_ok": bool(res.g_norm_sq <= res.r * res.c * (1.0 + interior_slack)),
    }


def scaling_energy_curve(d: Discretization, p: float, u: GraphFunction, lambdas) -> list:
    """Energy along the mass-preserving concentration family
    u_lam(x) = sqrt(lam) u(lam x) on a star graph, lam >= 1.

    Resamples by linear interpolation (zero beyond the truncation, where the
    profile must already have decayed); each u_lam keeps the mass of u up to
    quadrature error.  Returns [(lam, E(u_lam)), ...].
    """
    if not d.graph.is_star():
        raise DomainError("the concentration family is defined on star graphs")
    lambdas = list(lambdas)
    if any(lam < 1.0 for lam in lambdas):
        raise DomainError("lam >= 1 required so the support stays inside the truncation")
    out = []
    for lam in lambdas:
        def profile(k, x, lam=lam):
            eg = d.edge_grids[k]
            vals = np.where(eg.gidx >= 0, u.values[eg.gidx], 0.0)
            re = np.interp(lam * x, eg.x, vals.real, right=0.0)
            im = np.interp(lam * x, eg.x, vals.imag, right=0.0)
            return math.sqrt(lam) * (re + 1j * im)

        u_lam = d.from_edge_profiles(profile)
        out.append((float(lam), energy(u_lam, p).total))
    return out
