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
fixed tau.  One (M/tau + A) factorization, made at the flow's first
step, serves all its iterations.

The flow is only the globalization.  Each time its residual first drops
below a new power of ten (from 1e-1 on), bordered Newton steps on the
stationary equation try to finish the solve in a few factorizations of
J = A + diag(omega m - p m |u|^{p-1}).  A Newton attempt either reaches the
tolerance through steps that each stay in the ball, lower the residual
(all but the first) and do not raise the energy, or it is discarded and
the flow goes on.

The ball is monitored, never projected: leaving B(r) is evidence that the
requested mass is outside the validated window and is surfaced as a typed
error.  Typed outcomes (ball exit, iteration cap) come from the flow alone.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BallExitError,
    ConvergenceError,
    DomainError,
    FeasibilityError,
    GraphWaveError,
    check_exponent,
)
from .mesh import (
    Discretization,
    Elimination,
    GraphFunction,
    lp_norm,
    mass,
    quadratic_form,
    rescale_to_mass,
)
from .spectrum import GroundStatePair, ground_state

__all__ = [
    "MinimizerResult",
    "energy",
    "feasibility_bound",
    "lagrange_multiplier",
    "check_arguments",
    "minimize",
    "structure_diagnostics",
    "scaling_energy_curve",
]

# most steps one Newton attempt takes (the 3-star minimizers for p = 5..7
# and h = 0.1, 0.02 need 3 to 8 from a flow residual below 1e-1)
_NEWTON_STEPS = 10


def energy(u: GraphFunction, p: float) -> float:
    """E(u) = (1/2) form[u] - ||u||_{p+1}^{p+1} / (p+1)."""
    if not 1 <= p < math.inf:
        raise DomainError(f"energy needs finite p >= 1, got {p!r}")
    return 0.5 * quadratic_form(u) - lp_norm(u, p + 1.0) ** (p + 1.0) / (p + 1.0)


def _start_powers(u: np.ndarray, m: np.ndarray, p: float, what: str) -> np.ndarray:
    """|u0|^(p-1) of a start u0, refused without a warning as DomainError naming ``what`` unless
    its mass, 2 max|u0|^(p-1) (a CN step's first field) and sum m|u0|^(p+1) are finite."""
    with np.errstate(over="ignore"):
        a = np.abs(u)
        ma2, gam = m * a * a, a ** (p - 1.0)
        sums = float(ma2.sum()), 2.0 * float(gam.max()), float(np.vdot(gam, ma2))
    if not all(map(math.isfinite, sums)):
        raise DomainError(f"{what} has mass {sums[0]:.6g}, 2 max|u0|^(p-1) = {sums[1]:.6g} and "
                          f"sum m|u0|^(p+1) = {sums[2]:.6g}: all must be finite")
    return gam


def feasibility_bound(lambda0: float, r: float) -> float:
    """Largest mass for which the sphere intersects the ball: r / lambda0."""
    if not (0 < r < math.inf and 0 < lambda0 < math.inf):
        raise DomainError("feasibility bound needs finite r > 0 and lambda0 > 0")
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
    newton_steps: int = 0         # accepted Newton steps that finished the solve


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
    and monitored against the ball.  The descent runs in the start's dtype,
    real from the default start and complex from a complex init; phi is
    complex128 either way.  Converges when the stationary residual
    || Au/m - |u|^{p-1} u + omega_hat u ||_{L2} / sqrt(c) <= tol.

    Raises DomainError (init or ground not on d, p not in [5, MAX_EXPONENT],
    c <= 0, r, tau or tol not in (0, inf), a tau for which max m/tau overflows,
    max_iter not an integer >= 1, a start that mesh.rescale_to_mass cannot
    scale to mass c or whose 2 max|u|^(p-1) or sum m|u|^(p+1) overflows; NaN
    fails every check), FeasibilityError (c > r/lambda0), BallExitError
    (iterate left B(r)), or ConvergenceError (iteration cap).
    """
    check_arguments(p, c, r, tau, tol, max_iter)
    for name, fn in (("init", init), ("ground", ground and ground.psi0)):
        if fn is not None and fn.disc is not d:
            raise DomainError(f"{name} lives on another grid than d")
    if tau is None:
        tau = d.h_max
    elif not float(d.m.max()) / tau < math.inf:
        raise DomainError(f"flow step tau={tau!r} is too small for this grid: max m/tau overflows")
    if ground is None:
        ground = ground_state(d, tol=1e-10)
    lam0 = ground.lambda0
    c_max = feasibility_bound(lam0, r)
    if c > c_max:
        raise FeasibilityError(
            f"mass c={c:.6g} exceeds the feasibility bound r/lambda0={c_max:.6g}: "
            "the sphere does not meet the ball"
        )
    # the default start is real, and the descent runs in its dtype; no name
    # outlives the start: an array kept through the descent grows its peak memory
    u = (ground.psi0.values * math.sqrt(c) if init is None
         else init.values.astype(np.result_type(init.values, float)))
    u = rescale_to_mass(GraphFunction(d, u), c,
                        "the default start" if init is None else "init").values
    _start_powers(u, d.m, p, f"the start u0 for mass c={c!r} and p={p!r}")
    try:
        u, it, s, newton_steps = _descend(d, p, c, r, tau, tol, max_iter, lam0, u)
    except GraphWaveError as exc:
        # the traceback would hold _descend's frame, and with it the
        # factorization and the iterates, for as long as the error is kept
        raise exc.with_traceback(None)

    result = MinimizerResult(
        phi=GraphFunction(d, u.astype(np.complex128, copy=False)),
        c=c,
        r=r,
        energy=s.energy,
        omega=s.omega_hat,
        g_norm_sq=s.g_sq,
        iterations=it,
        gradient_residual=s.residual,
        lambda0=lam0,
        psi0=ground.psi0,
        newton_steps=newton_steps,
    )
    result.diagnostics = structure_diagnostics(result)
    return result


def check_arguments(p: float, c: float, r: float, tau: float | None, tol: float,
                    max_iter: int) -> None:
    """minimize's argument checks, which need no grid (tau None stands for
    the default, the grid step); NaN fails each.  Raises DomainError."""
    check_exponent(p, "local minimization", lowest=5.0)
    if not c > 0:
        raise DomainError("mass c must be positive")
    if not 0 < r < math.inf:
        raise DomainError(f"ball radius r must be positive and finite, got {r!r}")
    if tau is not None and not 0 < tau < math.inf:
        raise DomainError(f"flow step tau must be positive and finite, got {tau!r}")
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise DomainError(f"iteration cap max_iter must be an integer >= 1, got {max_iter!r}")


class _Iterate(NamedTuple):
    """What the flow and the Newton polish measure at one iterate u."""
    abs_pow: np.ndarray     # |u|^{p-1}
    nonlin: np.ndarray      # |u|^{p-1} u
    rvec: np.ndarray        # stationary residual Au/m - |u|^{p-1} u + omega_hat u
    omega_hat: float        # (||u||_{p+1}^{p+1} - form[u]) / c
    energy: float
    g_sq: float             # ||u||_G^2 = form[u] + 2 lambda0 c
    residual: float         # ||rvec||_{L2} / sqrt(c)


def _measure(d, p, c, lam0, u) -> _Iterate:
    # in place where it can be: a fresh vector costs page faults on large grids
    m = d.m
    rvec = d.apply(u)
    form = float(np.real(np.vdot(u, rvec)))
    abs_pow = np.abs(u)
    abs_pow **= p - 1.0
    nonlin = abs_pow * u
    scratch = m * u
    power = float(np.real(np.vdot(nonlin, scratch)))   # sum m |u|^{p+1}
    omega_hat = (power - form) / c
    rvec /= m
    rvec -= nonlin
    rvec += np.multiply(u, omega_hat, out=scratch)
    residual = math.sqrt(float(np.real(np.vdot(rvec, np.multiply(m, rvec, out=scratch)))) / c)
    return _Iterate(
        abs_pow=abs_pow,
        nonlin=nonlin,
        rvec=rvec,
        omega_hat=omega_hat,
        energy=0.5 * form - power / (p + 1.0),
        g_sq=form + 2.0 * lam0 * c,
        residual=residual,
    )


def _descend(d, p, c, r, tau, tol, max_iter, lam0, u):
    """The normalized flow from u, polished by _newton each time its
    residual first drops below a new power of ten.  Only the flow raises:
    the ball exit and the iteration cap are decided by its iterates.

    Returns (u, flow iterations, the _Iterate measured at u, accepted
    Newton steps)."""
    m = d.m
    solve = None
    res_history: list[float] = []
    next_polish = 0.1
    for it in range(1, max_iter + 1):
        s = _measure(d, p, c, lam0, u)
        residual = s.residual
        if s.g_sq > r:
            raise BallExitError(
                f"iterate {it} left the energy ball: ||u||_G^2 = {s.g_sq:.6g} > r = {r:.6g} "
                "(mass too large for this ball)",
                iteration=it,
                g_norm_sq=s.g_sq,
                r=r,
            )
        res_history.append(residual)
        if not np.isfinite(residual):
            raise ConvergenceError(
                f"flow diverged at iteration {it}", residual=residual, history=res_history
            )
        if residual <= tol:
            return u, it, s, 0
        if residual < next_polish:
            while next_polish > residual:
                next_polish /= 10.0
            polished = _newton(d, p, c, r, lam0, tol, u, s)
            if polished is not None:
                u, s, steps = polished
                return u, it, s, steps
        if solve is None:   # factored only once the flow takes a step
            solve = Elimination(d, float)
            solve.refactor(m / tau)
        v = m * (u / tau + s.nonlin - s.omega_hat * u)
        solve.solve_in_place(v.view(float).reshape(d.n_nodes, -1))   # a complex v as 2 columns
        u = v * math.sqrt(c / float(np.real(np.vdot(v, m * v))))
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
        history=res_history,
    )


def _newton(d, p, c, r, lam0, tol, u, s):
    """Bordered Newton steps (Keller) on F(v, omega) = A v + omega m v -
    m |v|^{p-1} v = 0 with sum m v^2 = c, from the flow iterate u and its
    measurement s, both gauged to a real v.

    Each step refactors J = A + diag(omega_hat m - p m |v|^{p-1}) into the
    attempt's one real factor, solves J a = -F and J b = m v in one
    two-column buffer, and moves v by a - domega b, with domega fixing
    the mass to first order; v is then renormalized to mass c.  A step is
    kept only if it is finite, stays in B(r), lowers the residual (the
    first step of the attempt need not) and does not raise the energy by
    more than 1e-12 |E|.  Returns (u, its measurement, the number of
    accepted steps) once the residual is <= tol and J has exactly
    one negative eigenvalue there, as at a minimizer on the mass sphere, or
    None: at a saddle (Morse index above 1), after a rejected step, a
    singular J, _NEWTON_STEPS steps, or when u has no constant phase to
    gauge away.  Never raises."""
    m = d.m
    k = int(np.argmax(np.abs(u)))
    phase = u[k] / abs(u[k])
    v, nonlin, rvec = (x * np.conj(phase) for x in (u, s.nonlin, s.rvec))
    if np.iscomplexobj(v):
        if np.max(np.abs(v.imag)) > 1e-8 * abs(u[k]):
            return None
        v, nonlin, rvec = v.real, nonlin.real, rvec.real
    s = s._replace(nonlin=nonlin, rvec=rvec)
    rhs = np.empty((d.n_nodes, 2), order="F")   # -m rvec and m v, solved in place
    solve, steps, neg_m = Elimination(d, float), 0, -m
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS + 1):
            shift = s.abs_pow * -p
            shift += s.omega_hat
            shift *= m
            try:
                solve.refactor(shift)
            except DomainError:
                return None
            if s.residual <= tol:
                return (phase * v, s, steps) if solve.n_negative() == 1 else None
            mv = m * v
            np.multiply(neg_m, s.rvec, out=rhs[:, 0])
            rhs[:, 1] = mv
            solve.solve_in_place(rhs)
            a, b = rhs.T
            domega = (mv @ a + (mv @ v - c) / 2.0) / (mv @ b)
            w = v + a
            w -= np.multiply(b, domega, out=b)
            w *= np.sqrt(c / (np.multiply(m, w, out=mv) @ w))
            t = _measure(d, p, c, lam0, w)
            # the first step may raise the residual: from a loose flow iterate
            # it can lower the energy a long way and still land near the state
            if not (math.isfinite(t.residual) and t.g_sq <= r
                    and (t.residual < s.residual or not steps)
                    and t.energy <= s.energy + 1e-12 * abs(s.energy)):
                return None
            v, s = w, t
            steps += 1
    return None


def structure_diagnostics(res: MinimizerResult) -> dict:
    """Structural checks on a minimizer: constant phase, strict positivity of
    the gauged profile, strict energy bound E < -lambda0 c / 2, and
    membership of the ball minimize monitors, ||phi||_G^2 <= r.

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
        "ball_interior_ok": bool(res.g_norm_sq <= res.r),
    }


def scaling_energy_curve(d: Discretization, p: float, u: GraphFunction, lambdas) -> list:
    """Energy along the mass-preserving concentration family
    u_lam(x) = sqrt(lam) u(lam x) on a star graph, lam >= 1.

    Resamples by linear interpolation (zero beyond the truncation, where the
    profile must already have decayed); each u_lam keeps the mass of u up to
    quadrature error.  Returns [(lam, E(u_lam)), ...]; u must be a function
    on d (DomainError otherwise).
    """
    if not d.graph.is_star():
        raise DomainError("the concentration family is defined on star graphs")
    if u.disc is not d:
        raise DomainError("u lives on another grid than d")
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
        out.append((float(lam), energy(u_lam, p)))
    return out
