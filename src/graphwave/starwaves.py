"""Exact standing-wave profiles on the star graph with an attractive delta
vertex: the validation oracle for the discrete machinery.

For N half-lines with vertex strength gamma > 0 and power p, the stationary
states at frequency omega come in branches j = 0 .. floor((N-1)/2): a sech
power profile shifted along each half-line.  With the profile's inner scale
k = (p-1) sqrt(omega) / 2, the shift is

    s_j = atanh(gamma / ((N - 2j) sqrt(omega))) / k,   omega > gamma^2/(N-2j)^2,

which is exactly what the vertex matching condition
sum of outward derivatives = -gamma u(v) forces:
(N - 2j) sqrt(omega) tanh(k s_j) = gamma.  j edges carry the profile pulled
outward (bump at distance s_j), the rest pushed in (monotone tail).
The squared L2 mass of the j = 0 branch as a function of omega is available
in closed form up to a one-dimensional integral (h_integral, a fixed
Gauss-Legendre rule, so this module loads no scipy); it is the curve used
to match a target mass to a frequency.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mesh import Discretization, GraphFunction

__all__ = [
    "ClosedFormWave",
    "profile_f",
    "evaluate_wave",
    "h_integral",
    "mass_curve",
    "solve_omega_for_mass",
    "monotone_window",
]


def profile_f(x, p: float, omega: float):
    """Sech power profile [ (p+1) omega / 2 * sech^2( (p-1) sqrt(omega)/2 x ) ]^{1/(p-1)}.

    Even in x, maximal at 0, decaying like exp(-sqrt(omega) |x|).
    """
    if not omega > 0 or not p > 1:
        raise DomainError("profile needs omega > 0 and p > 1")
    x = np.asarray(x, dtype=float)
    k = 0.5 * (p - 1.0) * math.sqrt(omega)
    # overflow-safe sech via exp(-|z|)
    z = np.abs(k * x)
    sech = 2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))
    amp = (0.5 * (p + 1.0) * omega) ** (1.0 / (p - 1.0))
    return amp * sech ** (2.0 / (p - 1.0))


@dataclass(frozen=True)
class ClosedFormWave:
    """Branch-j standing wave on the N-edge star.

    ``a_j`` is the dimensionless offset atanh(gamma/((N-2j) sqrt(omega)));
    ``shift`` is the same offset in x units, a_j / k with
    k = (p-1) sqrt(omega) / 2, which is what makes the profile satisfy the
    delta matching condition at the vertex.
    """
    n_edges: int
    gamma: float
    p: float
    omega: float
    j: int = 0
    a_j: float = field(init=False)
    shift: float = field(init=False)

    def __post_init__(self):
        if self.n_edges < 2:
            raise DomainError("star wave needs N >= 2")
        if not self.gamma > 0:
            raise DomainError("vertex strength gamma must be positive")
        if self.j < 0 or self.j > (self.n_edges - 1) // 2:
            raise DomainError(f"branch index j={self.j} outside 0..(N-1)//2")
        thr = self.threshold(self.n_edges, self.gamma, self.j)
        if not self.omega > thr:
            raise DomainError(
                f"omega={self.omega} below existence threshold {thr} for branch j={self.j}"
            )
        a = math.atanh(self.gamma / ((self.n_edges - 2 * self.j) * math.sqrt(self.omega)))
        k = 0.5 * (self.p - 1.0) * math.sqrt(self.omega)
        object.__setattr__(self, "a_j", a)
        object.__setattr__(self, "shift", a / k)

    @staticmethod
    def threshold(n_edges: int, gamma: float, j: int = 0) -> float:
        return gamma**2 / (n_edges - 2 * j) ** 2

    def edge_values(self, k: int, x) -> np.ndarray:
        """Profile on edge k (0-based): the first j edges carry the bump
        pulled outward, the rest the monotone tail."""
        s = -self.shift if k < self.j else self.shift
        return profile_f(np.asarray(x) + s, self.p, self.omega)


def evaluate_wave(wave: ClosedFormWave, d: Discretization) -> GraphFunction:
    """Sample the wave on a star discretization with matching edge count.

    Continuous at the vertex by symmetry of the profile; satisfies the
    discrete stationarity residual at O(h^2).
    """
    if not d.graph.is_star() or len(d.graph.edges) != wave.n_edges:
        raise DomainError(
            f"discretization is not a star graph with {wave.n_edges} edges"
        )
    return d.from_edge_profiles(lambda k, x: wave.edge_values(k, x))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(64)
    return 0.5 * (x + 1.0), 0.5 * w


def h_integral(x: float, p: float) -> float:
    """integral_x^1 (1 - t^2)^{(3-p)/(p-1)} dt for 0 <= x < 1, p >= 5.

    Substituting 1 - t = s^q, q = (p-1)/2, cancels the endpoint singularity:
    the integral is q int_0^{(1-x)^{1/q}} (2 - s^q)^{(3-p)/(p-1)} ds, whose
    integrand lies in [1/2, 1] and is smooth but for an s^q term at 0.  A
    64-point Gauss-Legendre rule evaluates it to an absolute error below
    1e-13 (at most 8.4e-14 against the incomplete beta function evaluated
    to 40 digits, for p in [5, 15] and x in [0, 0.99999]).
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("h integral needs 0 <= x < 1")
    if not p >= 5:
        raise DomainError("h integral is used for p >= 5")
    nodes, weights = _gauss_legendre()
    q = 0.5 * (p - 1.0)
    b = (1.0 - x) ** (1.0 / q)
    return float(q * b * (weights @ (2.0 - (b * nodes) ** q) ** ((3.0 - p) / (p - 1.0))))


def mass_curve(n_edges: int, gamma: float, p: float, omega: float) -> float:
    """Squared mass of the ground-branch wave as a function of omega."""
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    if not omega > thr:
        raise DomainError(f"omega={omega} at or below the existence threshold {thr}")
    pref = (2.0 * n_edges / (p - 1.0)) * (0.5 * (p + 1.0)) ** (2.0 / (p - 1.0))
    return (
        pref
        * omega ** ((5.0 - p) / (2.0 * (p - 1.0)))
        * h_integral(gamma / (n_edges * math.sqrt(omega)), p)
    )


def solve_omega_for_mass(
    n_edges: int, gamma: float, p: float, c: float, bracket: tuple[float, float]
) -> float:
    """Invert the mass curve: the omega in ``bracket`` with mass c.

    The bracket must lie in the increasing part of the curve (checked by
    sampling) and straddle c.  Root resolved to relative tolerance 1e-10.
    """
    from scipy.optimize import brentq  # imported here: slow to load, rarely needed

    lo, hi = bracket
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    if not thr < lo < hi:
        raise DomainError("bracket must satisfy threshold < lo < hi")
    samples = np.array(
        [mass_curve(n_edges, gamma, p, w) for w in np.geomspace(lo, hi, 24)]
    )
    if np.any(np.diff(samples) <= 0):
        raise DomainError(
            "mass curve is not increasing on the bracket: outside the monotone window"
        )
    if not samples[0] < c < samples[-1]:
        raise DomainError(
            f"bracket does not straddle the target mass: R({lo})={samples[0]:.6g}, "
            f"R({hi})={samples[-1]:.6g}, c={c:.6g}"
        )
    return float(
        brentq(
            lambda w: mass_curve(n_edges, gamma, p, w) - c,
            lo,
            hi,
            xtol=1e-14,
            rtol=1e-12,
        )
    )


def monotone_window(n_edges: int, gamma: float, p: float) -> tuple[float, float]:
    """Empirical window (threshold, omega_hi) on which the mass curve
    increases: sample 80 log-spaced points from just above the threshold to
    400 times it and take the largest prefix with positive successive
    differences."""
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    grid = np.geomspace(thr * (1.0 + 1e-3), 400.0 * thr, 80)
    vals = np.array([mass_curve(n_edges, gamma, p, w) for w in grid])
    hi = grid[-1]
    for i in range(len(grid) - 1):
        if vals[i + 1] <= vals[i]:
            hi = grid[i]
            break
    if hi <= grid[0]:
        raise DomainError("no increasing prefix found: window detection failed")
    return float(thr), float(hi)
