"""Bottom of the spectrum of the energy form: lambda0 and the positive
normalized eigenfunction, and, only when asked, the distance to the
second eigenvalue.

Solves A psi = mu M psi (M = diagonal lumped mass) with mesh.factor's O(n)
edge/vertex elimination of A - sigma M.  ground_state runs Newton on the
vertex secular equation: the lowest eigenvalue of the V x V Schur
complement S(sigma) vanishes at the bottom of the spectrum.  Each step is
one refactor; below 0 the steps are taken in kappa = sqrt(-sigma), in which
a half-line's share of S is nearly linear, and the factor's inertia tells
on which side of the root each lands.  Inverse iteration on the last
factor then polishes the eigenvector.  Where an edge's own spectrum lies
below 0, or the polish finds another eigenvalue, power iterations from
below at shifts that the inertia certifies find it.
spectral_gap runs Lanczos on one fixed shift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError
from .mesh import Discretization, Elimination, GraphFunction, factor

__all__ = ["GroundStatePair", "ground_state", "spectral_gap", "spectral_gap_report"]

# most iterations ground_state takes, and most Lanczos steps spectral_gap takes
_MAX_ITER = 20000
_MAX_LANCZOS = 300
# relative margin of ground_state's shifts below mu - 2 eta, and its least relative
# Newton step: far above mu's round-off, and clear of the singularity check
_DELTA = 1e-6


@dataclass
class GroundStatePair:
    lambda0: float            # -lambda0 = smallest eigenvalue of the form
    psi0: GraphFunction       # mass-normalized, sign-fixed positive
    iterations: int           # Newton steps plus solves
    residual: float
    tol: float                # residual the solve stopped at (see ground_state)
    factorizations: int = 0   # of A - sigma M, counted on each Elimination


def _shift_invert_smallest(d, tol, floor):
    """The smallest eigenvalue mu0 of A psi = mu M psi, as (mu, vector,
    iterations, residual, factorizations), iterations counting Newton steps
    and solves.  Newton steps on mu_min(S(sigma)) = 0 from sigma = 0 are
    taken while their factor keeps T definite, and end below
    _DELTA (|sigma| + 1); solves on the last factor then polish
    x = (y, -Z y), for S's lowest eigenpair (mu_S, y).  The first step is
    the Rayleigh quotient of x, sigma + mu_S / ||x||_M^2; from sigma < 0 the
    step is Newton's in kappa = sqrt(-sigma),
    kappa - mu_S / (2 kappa ||x||_M^2), which can overshoot the root, and a
    step from the left aims _DELTA (|sigma| + 1) / 2 short of it, so that its
    factor stays nonsingular.  Where T
    is indefinite at 0 or A singular, solves start from the constant vector
    below Gershgorin's bound min_i (A 1)_i / m_i, and after an iterate of
    Rayleigh quotient mu and eta = ||M^{-1/2} (A w - mu M w)|| take the
    shift mu - 2 eta - _DELTA (|mu| + 1) where its inertia proves it below
    the spectrum, or right of mu0 with T definite, where Newton takes over.
    Solves stop at residual <= tol once mu's sign is certain (mu < 0, the
    eigenvalue within eta of mu positive, or the residual at the floor) and,
    on a factor right of mu0, once mu lies below it with no other eigenvalue
    there; else they restart from below, without Newton.  No negative
    eigenvalue at 0 raises AssumptionError after a first iterate passes the
    M-norm check, which raises DomainError naming the grid step.
    """
    m, ones = d.m, np.ones(d.n_nodes)
    cur, spare = Elimination(d, float), Elimination(d, float)

    def trial(sigma):   # A - sigma M factored into spare: its inertia, None if singular
        try:
            # with T indefinite, so is A - sigma M (interlacing), and no step is taken
            # from it: 1 stands for "at least one", without ?gttrf or a Sturm count
            if not spare._factor_definite(-sigma * m):
                return 1
        except DomainError:
            return None
        return spare.n_negative()

    under = trial(0.0)   # eigenvalues below sigma
    unbound, newton, switch, res = under == 0, bool(under) and spare.definite, True, np.inf
    cur, spare, sigma = (spare, cur, 0.0) if unbound or newton else (cur, spare, None)
    v = start = ones / np.sqrt((m * ones) @ ones)
    for it in range(1, _MAX_ITER + 1):
        if sigma is None:   # solves from the constant vector, below the spectrum
            sigma, under, v = float(np.min(d.apply(ones) / m)) - 1.0, 0, start
            cur.refactor(-sigma * m)
        if newton:
            x = cur.extend(cur.lowest[1])
            norm2 = (m * x) @ x
            step = cur.lowest[0] / norm2
            if sigma < 0:
                kappa = np.sqrt(-sigma)
                step = -(kappa - cur.lowest[0] / (2.0 * kappa * norm2)) ** 2 - sigma
            least = _DELTA * (abs(sigma) + 1.0)
            if step > least:   # from the left: short of the root, where A - sigma M is singular
                step -= least / 2.0
            neg = trial(sigma + step) if abs(step) > least else None
            newton = neg is not None and spare.definite
            if newton:
                cur, spare, sigma, under = spare, cur, sigma + step, neg
            else:   # the polish starts from x
                v = x / np.sqrt(norm2)
            continue
        w = m * v
        cur.solve_in_place(w[:, None])
        mw = m * w
        norm = np.sqrt(mw @ w)
        if not 0 < norm < np.inf:
            raise DomainError(
                f"the eigen-iterate's M-norm is {norm} at iteration {it}: float "
                f"arithmetic cannot resolve the grid step h={d.h_max:g}")
        if unbound:
            raise AssumptionError("no negative ground energy: A's inertia shows no bound state")
        w /= norm
        mw /= norm
        Aw = d.apply(w)
        mu = (w @ Aw)
        rvec = Aw
        rvec -= mu * mw
        res = float(np.linalg.norm(rvec) / np.linalg.norm(mw))
        eta = np.sqrt(rvec @ np.divide(rvec, m, out=mw))
        v = w
        done = res <= tol and (mu < 0 or res <= floor or eta < mu)
        proposal = mu - 2.0 * eta - _DELTA * (abs(mu) + 1.0)
        if under > 1 or (under and (proposal > sigma or (done and mu >= sigma))):
            sigma, switch = None, False   # not mu0: a stalled step, or mu0's next within _DELTA
        elif done:
            return mu, v, it, res, cur.factorizations + spare.factorizations
        elif proposal > sigma:
            neg = trial(proposal)
            if neg == 0 or (switch and neg and spare.definite):
                cur, spare, sigma, under, newton = spare, cur, proposal, neg, neg > 0
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
    lambda0 > 0); that verdict is drawn only where the inertia of A or the
    residual proves it, at any tol, or where the bottom of the spectrum lies
    within the round-off bound 2 eps max|diag A| / min m of 0, where its
    sign means nothing.
    """
    if not 0 < tol < np.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    floor = float(2.0 * np.finfo(float).eps * np.max(np.abs(d._diag)) / np.min(d.m))
    tol = max(tol, floor)
    mu0, v0, it0, res0, factorizations = _shift_invert_smallest(d, tol, floor)
    if not mu0 < -floor:
        raise AssumptionError(
            f"no negative ground energy: the bottom of the spectrum is {mu0:.3e}, not below "
            f"the round-off bound -{floor:.1e}, so there is no bound state"
        )
    # deterministic sign: make the largest-magnitude entry positive
    v0 = v0 * np.sign(v0[np.argmax(np.abs(v0))])
    return GroundStatePair(lambda0=float(-mu0), psi0=GraphFunction(d, v0),
                           iterations=it0, residual=float(res0), tol=tol,
                           factorizations=factorizations)


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
    # the start: splitmix64 (Steele, Lea & Flood 2014) of 1 .. n, uniform in [-1/2, 1/2).
    # Fixed, like a seeded draw, but no numpy.random; no symmetry of the graph repeats it
    w = np.arange(1, d.n_nodes + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        w = (w ^ (w >> np.uint64(shift))) * np.uint64(mult)
    w = (w ^ (w >> np.uint64(31))) / 2.0**64 - 0.5
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


def spectral_gap_report(pair: GroundStatePair, gap: float) -> dict:
    """Isolation diagnostic for the gap spectral_gap(pair) returned.
    Truncating half-lines turns the continuous spectrum into densely spaced
    discrete points near 0, so isolation means a gap comparable to lambda0,
    not to the solver tolerance; a gap below 10*tol cannot be distinguished
    from a degenerate pair at all."""
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
