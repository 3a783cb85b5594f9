"""Bottom of the spectrum of the energy form: lambda0 and the positive
normalized eigenfunction, and, only when asked, the distance to the
second eigenvalue.

Solves A psi = mu M psi (M = diagonal lumped mass) by shift-and-invert:
factor (A - sigma M) with mesh.factor's O(n) edge/vertex elimination, so a
factorization costs about as much as a few solves.  ground_state runs a
power iteration that re-factors at a Rayleigh shift after each iterate:
the current Rayleigh quotient less twice the residual bound, taken only
where the factor's inertia proves A - sigma M positive definite, so sigma
stays below the spectrum and closes in on its bottom within about ten
iterations.  spectral_gap runs Lanczos on one fixed shift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError
from .mesh import Discretization, Elimination, GraphFunction, factor

__all__ = ["GroundStatePair", "ground_state", "spectral_gap", "spectral_gap_report"]

# most power iterations ground_state takes, and most Lanczos steps spectral_gap takes
_MAX_ITER = 20000
_MAX_LANCZOS = 300
# relative margin of ground_state's Rayleigh shifts below mu - 2 eta: far
# above mu's round-off, and A - sigma M's pivots stay clear of the
# singularity check at 96k nodes (iteration counts match from 1e-4 to 1e-10)
_DELTA = 1e-6


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

    After each iterate w (M-normalized, Rayleigh quotient mu, residual
    eta = ||M^{-1/2} (A w - mu M w)||) it proposes the shift
    mu - 2 eta - _DELTA (|mu| + 1), which lies below the spectrum once the
    eigenvalue within eta of mu is the smallest one.  Refactoring there
    proves or refutes that (Sylvester): the shift is taken only when T's
    LDL^T succeeds and S has no eigenvalue <= 0, so A - sigma M stays
    positive definite and the iteration cannot pass the bottom of the
    spectrum.  A refuted proposal keeps the current factor.

    Stops at residual <= tol once the sign of mu is certain: a Rayleigh
    quotient mu < 0 bounds the smallest eigenvalue from above, while mu >= 0
    needs the eigenvalue within eta of mu to be positive, or the residual at
    the round-off floor.  Returns (mu, vector, iterations, residual).
    An iterate whose M-norm is 0 or not finite (squares of a grid step
    such as 1e-100 underflow) raises DomainError naming the grid step.
    """
    m = d.m
    solve, trial = factor(d, -sigma * m), Elimination(d, float)
    v = np.ones(d.n_nodes)
    v /= np.sqrt((m * v) @ v)
    res = np.inf
    for it in range(1, _MAX_ITER + 1):
        w = solve(m * v)
        norm = np.sqrt((m * w) @ w)
        if not 0 < norm < np.inf:
            raise DomainError(
                f"the eigen-iterate's M-norm is {norm} at iteration {it}: float "
                f"arithmetic cannot resolve the grid step h={d.h_max:g}")
        w /= norm
        Aw = d.apply(w)
        mu = (w @ Aw)
        rvec = Aw - mu * (m * w)
        res = float(np.linalg.norm(rvec) / np.linalg.norm(m * w))
        eta = np.sqrt(np.sum(rvec**2 / m))
        v = w
        if res <= tol and (mu < 0 or res <= floor or eta < mu):
            return mu, v, it, res
        proposal = mu - 2.0 * eta - _DELTA * (abs(mu) + 1.0)
        if proposal > sigma:
            try:
                trial.refactor(-proposal * m)
                below = trial.definite and trial.n_negative() == 0
            except DomainError:   # singular: not provably below the spectrum
                below = False
            if below:
                solve, trial, sigma = trial, solve, proposal
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

    Lanczos on x -> (A - sigma M)^{-1} M x, one mesh.factor solve per step,
    in the M inner product where that operator is symmetric, with the shift
    just above -lambda0 so that its two eigenvalues theta of largest
    magnitude are the two smallest mu = sigma + 1/theta.  The basis is
    reorthogonalized fully, twice per step (Paige 1972; Parlett, The
    Symmetric Eigenvalue Problem).  The solve stops by ARPACK's rule,
    beta_k |s_{k,i}| <= sqrt(pair.tol) |theta_i| for both Ritz pairs, first
    checked at step 20, the length of ARPACK's first factorization for two
    values.  It raises ConvergenceError after _MAX_LANCZOS steps: the basis
    holds up to _MAX_LANCZOS n 8 bytes (58 MB at 24k nodes).
    A power iteration deflated by psi0 is no substitute: when its start
    barely meets the second eigenvector and the shift moves, it settles on
    the third eigenvalue.
    """
    d, m, mu0 = pair.psi0.disc, pair.psi0.disc.m, -pair.lambda0
    sigma = mu0 + 1e-6 * (abs(mu0) + 1.0)
    solve = factor(d, -sigma * m)
    Q = np.empty((min(_MAX_LANCZOS, d.n_nodes), d.n_nodes))
    alpha, beta = np.zeros((2, len(Q)))   # T's diagonal and off-diagonal
    w = np.random.default_rng(0).standard_normal(d.n_nodes)
    b = np.sqrt((m * w) @ w)
    for k in range(len(Q)):
        Q[k] = w / b
        w = solve(m * Q[k])
        for _ in range(2):   # full reorthogonalization, twice
            c = Q[:k + 1] @ (m * w)
            w -= c @ Q[:k + 1]
            alpha[k] += c[k]
        b = np.sqrt((m * w) @ w)
        if k + 1 >= min(20, len(Q)):
            off = beta[:k]
            theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(off, 1) + np.diag(off, -1))
            wanted = np.argsort(np.abs(theta))[-2:]
            bound = np.max(b * np.abs(s[-1, wanted]) / np.abs(theta[wanted]))
            if bound <= np.sqrt(pair.tol):
                return float(np.max(sigma + 1.0 / theta[wanted]) - mu0), k + 1
        beta[k] = b
    raise ConvergenceError(f"spectral gap: Lanczos did not converge in {len(Q)} steps",
                           residual=float(bound))


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
