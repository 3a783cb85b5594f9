"""Linear ground state on a star graph.

Three half-lines glued at a vertex with an attractive delta of strength
gamma carry exactly one bound state, with energy -(gamma/N)^2.  This script
assembles the energy form on successively finer grids and watches the
computed ground energy converge at second order, then prints the gap
diagnostic that separates the bound state from the (truncated) continuum.
"""
import numpy as np

from graphwave import (StarGraphSpec, build, ground_state, make_star, spectral_gap,
                       spectral_gap_report)

N, GAMMA, LENGTH = 3, 1.0, 40.0
EXACT = (GAMMA / N) ** 2

graph = make_star(StarGraphSpec(N, GAMMA, LENGTH))
print(f"star graph: {N} half-lines, gamma={GAMMA}, truncated at {LENGTH}")
print(f"exact ground energy: -(gamma/N)^2 = -{EXACT:.10f}\n")

print(f"{'h':>8} {'lambda0':>14} {'error':>11} {'ratio':>7}")
prev = None
for h in (0.08, 0.04, 0.02, 0.01):
    pair = ground_state(build(graph, h))
    err = abs(pair.lambda0 - EXACT)
    ratio = f"{prev / err:7.2f}" if prev else "      -"
    print(f"{h:8.3f} {pair.lambda0:14.10f} {err:11.3e} {ratio}")
    prev = err

# the eigenfunction is strictly positive and mass-normalized
psi0 = pair.psi0
print(f"\nmin psi0 = {float(np.min(psi0.values.real)):.2e} (> 0)")

# truncation turns the continuum into discrete points near zero, so the
# meaningful isolation measure is the gap relative to lambda0; ground_state
# does not compute it, spectral_gap does (Lanczos on the shift-inverted form)
gap, solves = spectral_gap(pair)
report = spectral_gap_report(pair, gap)
print(f"gap = {gap:.5f}  (gap/lambda0 = {report['gap_over_lambda0']:.2f}, {solves} solves)")
print(f"isolation certified: {report['isolation_certified']}")
