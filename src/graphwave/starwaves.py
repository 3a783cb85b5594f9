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
Gauss-Legendre rule).  solve_omega_for_mass inverts it, matching a target
mass to a frequency, by Illinois regula falsi to a bracket of
1e-14 + 1e-12 omega, and monotone_window finds its maximum by golden-section
search to 1.5e-8 relative, so this module loads no scipy.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, DomainError, check_exponent

if TYPE_CHECKING:   # mass-curve runs without the grid modules
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
    check_exponent(p, "the profile")
    if not 0 < omega < math.inf:
        raise DomainError(f"profile needs finite omega > 0, got omega={omega!r}")
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
        thr = self.threshold(self.n_edges, self.gamma, self.j)
        check_exponent(self.p, "the star wave")
        if not thr < self.omega < math.inf:
            raise DomainError(f"omega={self.omega} not finite or below existence "
                              f"threshold {thr} for branch j={self.j}")
        a = math.atanh(self.gamma / ((self.n_edges - 2 * self.j) * math.sqrt(self.omega)))
        k = 0.5 * (self.p - 1.0) * math.sqrt(self.omega)
        object.__setattr__(self, "a_j", a)
        object.__setattr__(self, "shift", a / k)

    @staticmethod
    def threshold(n_edges: int, gamma: float, j: int = 0) -> float:
        """gamma^2 / (N - 2j)^2, below which branch j does not exist; refuses
        N < 2, j outside 0..(N-1)//2, gamma not finite and positive, and a
        threshold that overflows or underflows below the smallest normal
        float (a subnormal one has too few digits to sample above it)."""
        if n_edges < 2:
            raise DomainError(f"star wave needs N >= 2, got N={n_edges}")
        if not 0 <= j <= (n_edges - 1) // 2:
            raise DomainError(f"branch index j={j} outside 0..(N-1)//2")
        if not 0 < gamma < math.inf:
            raise DomainError(f"vertex strength gamma must be positive and finite, got {gamma!r}")
        try:
            thr = gamma**2 / (n_edges - 2 * j) ** 2
        except OverflowError:   # a square beyond the float range
            thr = math.inf
        if not sys.float_info.min <= thr < math.inf:
            raise DomainError(f"threshold gamma^2/(N-2j)^2 = {thr} for gamma={gamma!r} and "
                              f"N={n_edges} is not a finite positive normal number")
        return thr

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
    if not 5 <= p < math.inf:
        raise DomainError(f"h integral is used for finite p >= 5, got p={p!r}")
    nodes, weights = _gauss_legendre()
    q = 0.5 * (p - 1.0)
    b = (1.0 - x) ** (1.0 / q)
    return float(q * b * (weights @ (2.0 - (b * nodes) ** q) ** ((3.0 - p) / (p - 1.0))))


def mass_curve(n_edges: int, gamma: float, p: float, omega: float) -> float:
    """Squared mass of the ground-branch wave as a function of omega."""
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    if not omega > thr:
        raise DomainError(f"omega={omega} at or below the existence threshold {thr}")
    check_exponent(p, "the mass curve", lowest=5.0)
    pref = (2.0 * n_edges / (p - 1.0)) * (0.5 * (p + 1.0)) ** (2.0 / (p - 1.0))
    return (
        pref
        * omega ** ((5.0 - p) / (2.0 * (p - 1.0)))
        * h_integral(gamma / (n_edges * math.sqrt(omega)), p)
    )


# the root search stops where scipy's brentq does at xtol=1e-14, rtol=1e-12,
# and gives up after _MAX_ROOT_STEPS secant steps (6 to 8 are taken)
_XTOL, _RTOL, _MAX_ROOT_STEPS = 1e-14, 1e-12, 100
# golden-section search for the mass curve's maximum: stop at a bracket of
# sqrt(eps) relative width, below which the curve is flat to round-off
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)
_ARGMAX_XTOL = 1.5e-8


def solve_omega_for_mass(
    n_edges: int, gamma: float, p: float, c: float, bracket: tuple[float, float]
) -> float:
    """Invert the mass curve: the omega in ``bracket`` with mass c.

    The bracket must lie in the increasing part of the curve, checked on 24
    geometric samples, and straddle c.  The root is searched in the one
    sample cell that holds c by regula falsi with the Illinois rule (Dowell
    & Jarratt, BIT 11, 1971), which keeps the root bracketed and halves the
    weight of an end's value each time that end is kept again.  It stops
    once the bracket is narrower than 1e-14 + 1e-12 omega, as scipy's brentq
    does at xtol=1e-14, rtol=1e-12, and returns the secant point of that
    bracket's ends; after 100 steps it raises ConvergenceError, never
    returning an unconverged root.
    """
    lo, hi = bracket
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    if not thr < lo < hi:
        raise DomainError("bracket must satisfy threshold < lo < hi")
    grid = np.geomspace(lo, hi, 24)
    samples = np.array([mass_curve(n_edges, gamma, p, w) for w in grid])
    if np.any(np.diff(samples) <= 0):
        raise DomainError(
            "mass curve is not increasing on the bracket: outside the monotone window"
        )
    if not samples[0] < c < samples[-1]:
        raise DomainError(
            f"bracket does not straddle the target mass: R({lo})={samples[0]:.6g}, "
            f"R({hi})={samples[-1]:.6g}, c={c:.6g}"
        )
    i = int(np.searchsorted(samples, c)) - 1   # samples[i] < c <= samples[i + 1]
    a, b = float(grid[i]), float(grid[i + 1])
    fa, fb = samples[i] - c, samples[i + 1] - c
    wa = 1.0   # Illinois weight on fa, halved each time a is kept again
    for _ in range(_MAX_ROOT_STEPS):
        x = b - fb * (b - a) / (fb - wa * fa)
        fx = mass_curve(n_edges, gamma, p, x) - c
        if (fx < 0) == (fb < 0):   # x falls on b's side: a is kept
            wa *= 0.5
        else:
            a, fa, wa = b, fb, 1.0
        b, fb = x, fx
        if fx == 0 or abs(b - a) < _XTOL + _RTOL * abs(b):
            return float(b - fb * (b - a) / (fb - fa))   # unweighted secant, inside [a, b]
    raise ConvergenceError(
        f"mass-to-frequency search did not bracket the root of c={c!r} to "
        f"{_RTOL:g} relative in {_MAX_ROOT_STEPS} steps", residual=abs(fb))


def monotone_window(n_edges: int, gamma: float, p: float) -> tuple[float, float]:
    """Window (threshold, omega_hi) on which the mass curve increases.

    Samples 80 log-spaced points from just above the threshold to 400 times
    it.  When the samples never decrease, omega_hi is the last one.
    Otherwise the first decrease brackets the curve's maximum between the
    samples either side of the peak sample, and a golden-section search on
    mass_curve narrows that bracket to 1.5e-8 relative width; omega_hi is
    its best point.  The curve is flat to round-off over about 1e-7 of
    omega around its maximum, which bounds how well omega_hi is defined.
    """
    thr = ClosedFormWave.threshold(n_edges, gamma, 0)
    grid = np.geomspace(thr * (1.0 + 1e-3), 400.0 * thr, 80)
    vals = np.array([mass_curve(n_edges, gamma, p, w) for w in grid])
    falls = np.flatnonzero(np.diff(vals) <= 0)
    if not len(falls):
        return float(thr), float(grid[-1])
    if falls[0] == 0:
        raise DomainError("no increasing prefix found: window detection failed")
    a, b = float(grid[falls[0] - 1]), float(grid[falls[0] + 1])
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = (mass_curve(n_edges, gamma, p, x) for x in (x1, x2))
    while b - a > _ARGMAX_XTOL * b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = mass_curve(n_edges, gamma, p, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = mass_curve(n_edges, gamma, p, x1)
    return float(thr), x1 if f1 >= f2 else x2
