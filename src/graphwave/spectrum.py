"""Bottom of the spectrum of the energy form: lambda0 and the positive
normalized eigenfunction, and, only when asked, the distance to the
second eigenvalue.

Solves A psi = mu M psi (M = diagonal lumped mass) by shift-and-invert:
factor (A - sigma M) with mesh.factor's O(n) edge/vertex elimination, so a
factorization costs about as much as a few solves.  ground_state runs a
power iteration that re-factors with sigma moved just below the current
Rayleigh quotient; spectral_gap runs Lanczos on one fixed shift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError
from .mesh import Discretization, GraphFunction, factor

__all__ = ["GroundStatePair", "ground_state", "spectral_gap", "spectral_gap_report"]

# most power iterations ground_state takes
_MAX_ITER = 20000


@dataclass
class GroundStatePair:
    lambda0: float            # -lambda0 = smallest eigenvalue of the form
    psi0: GraphFunction       # mass-normalized, sign-fixed positive
    iterations: int
    residual: float
    tol: float                # residual the solve stopped at (see ground_state)


def _shift_invert_smallest(d, sigma, tol, floor):
    """Power iteration on (A - sigma M)^{-1} M from the constant vector,
    converging to the smallest eigenvalue when sigma is below the spectrum
    (the constant vector meets the positive ground state).

    Stops at residual <= tol once the sign of mu is certain: a Rayleigh
    quotient mu < 0 bounds the smallest eigenvalue from above, while mu >= 0
    needs the eigenvalue within ||M^{-1/2} r|| of mu to be positive, or the
    residual at the round-off floor.  Returns (mu, vector, iterations,
    residual).
    """
    m = d.m
    solve = factor(d, -sigma * m)
    v = np.ones(d.n_nodes)
    v /= np.sqrt((m * v) @ v)
    res = np.inf
    refactors = 0
    for it in range(1, _MAX_ITER + 1):
        w = solve(m * v)
        w /= np.sqrt((m * w) @ w)
        Aw = d.apply(w)
        mu = (w @ Aw)
        rvec = Aw - mu * (m * w)
        res = float(np.linalg.norm(rvec) / np.linalg.norm(m * w))
        v = w
        if res <= tol and (mu < 0 or res <= floor or np.sqrt(np.sum(rvec**2 / m)) < mu):
            return mu, v, it, res
        # move the shift just below the Rayleigh quotient once the iterate
        # clearly tracks the eigenpair nearest the current shift
        if refactors < 6 and res <= 0.1 * abs(mu - sigma):
            new_sigma = mu - (3.0 * res + 0.02 * (abs(mu) + 1.0))
            if new_sigma > sigma + 0.05 * abs(mu - sigma):
                sigma = new_sigma
                solve = factor(d, -sigma * m)
                refactors += 1
    raise ConvergenceError(
        f"eigenvalue iteration did not reach tol={tol} in {_MAX_ITER} iterations",
        residual=res,
    )


def ground_state(d: Discretization, tol: float = 1e-10) -> GroundStatePair:
    """Smallest eigenpair of the form, returned as (lambda0, psi0).

    tol is an absolute bound on the eigen-residual ||A v - mu M v|| / ||M v||.
    Round-off puts a floor of about eps * max|diag A| / min m under that
    residual (eps * 4/h^2 on a uniform grid), so the solve stops at
    max(tol, 2 eps max|diag A| / min m); pair.tol is the value used.

    Raises DomainError unless 0 < tol < inf, and AssumptionError when the
    ground energy is not negative (no bound state: the model requires
    lambda0 > 0); that verdict is drawn only where the residual proves it,
    at any tol.
    """
    if not 0 < tol < np.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    floor = float(2.0 * np.finfo(float).eps * np.max(np.abs(d._diag)) / np.min(d.m))
    tol = max(tol, floor)
    # start one below Gershgorin's bound for M^{-1} A: every off-diagonal of
    # A is -1/h or 0, so no eigenvalue lies below min_i (A 1)_i / m_i
    sigma = float(np.min(d.apply(np.ones(d.n_nodes)) / d.m)) - 1.0
    mu0, v0, it0, res0 = _shift_invert_smallest(d, sigma, tol, floor)
    if mu0 >= 0:
        raise AssumptionError(
            "no negative ground energy: the bottom of the spectrum is "
            f"{mu0:.3e} >= 0, so there is no bound state"
        )
    # deterministic sign: make the largest-magnitude entry positive
    v0 = v0 * np.sign(v0[np.argmax(np.abs(v0))])
    return GroundStatePair(lambda0=float(-mu0), psi0=GraphFunction(d, v0),
                           iterations=it0, residual=float(res0), tol=tol)


def spectral_gap(pair: GroundStatePair) -> tuple[float, int]:
    """Second eigenvalue minus the smallest; returns (gap, solves).

    Lanczos (ARPACK) on the shift-and-invert operator of mesh.factor, with
    the shift just above -lambda0 so that the two eigenvalues nearest it are
    the two smallest, and Ritz values converged to sqrt(pair.tol) relative.
    A power iteration deflated by psi0 is no substitute: when its start
    barely meets the second eigenvector and the shift moves, it settles on
    the third eigenvalue.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    d, mu0 = pair.psi0.disc, -pair.lambda0
    sigma = mu0 + 1e-6 * (abs(mu0) + 1.0)
    solve, solves = factor(d, -sigma * d.m), []

    def apply(b):
        solves.append(1)
        return solve(b)

    try:
        mu = eigsh(d.A, k=2, M=sp.diags(d.m), sigma=sigma, which="LM",
                   OPinv=LinearOperator(d.A.shape, matvec=apply, dtype=float),
                   v0=np.random.default_rng(0).standard_normal(d.n_nodes),
                   tol=np.sqrt(pair.tol), maxiter=1000, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"spectral gap: {exc}") from None
    return float(np.max(mu) - mu0), len(solves)


def spectral_gap_report(pair: GroundStatePair, gap: float | None = None) -> dict:
    """Isolation diagnostic.  Truncating half-lines turns the continuous
    spectrum into densely spaced discrete points near 0, so isolation means
    a gap comparable to lambda0, not to the solver tolerance; a gap below
    10*tol cannot be distinguished from a degenerate pair at all.  The gap
    is computed by spectral_gap unless given."""
    if gap is None:
        gap, _ = spectral_gap(pair)
    certified = gap >= 10.0 * pair.tol
    return {
        "lambda0": pair.lambda0,
        "gap": gap,
        "gap_over_lambda0": gap / pair.lambda0,
        "tol": pair.tol,
        "isolation_certified": certified,
        "note": (
            "ok"
            if certified
            else "isolation not numerically certified: gap below 10*tol"
        ),
    }
