"""Energy minimization on the mass sphere, localized to an energy ball.

Above the critical power the energy is unbounded below on the full mass
sphere (see demo 04), so the minimization is restricted to the ball
B(r) = { form[u] + 2 lambda0 ||u||^2 <= r }, which is compatible with the
sphere exactly when c <= r / lambda0.  The normalized gradient flow
descends the energy, renormalizing the mass after every step, and bordered
Newton steps finish the solve once the flow is close ("iters" counts flow
iterations, "newton" the Newton steps).

The run prints the multiplier omega of each minimizer: it always sits
strictly above lambda0 and slides down to lambda0 as the mass shrinks.
On the star graph the minimizer must agree with the exact standing wave up
to a constant phase, which the last block verifies.
"""
import math

import numpy as np

from graphwave import (
    ClosedFormWave,
    GraphFunction,
    StarGraphSpec,
    build,
    evaluate_wave,
    ground_state,
    h1_norm_sq,
    make_star,
    minimize,
    solve_omega_for_mass,
)

P = 6.0
d = build(make_star(StarGraphSpec(3, 1.0, 40.0)), 0.01)
gs = ground_state(d)
print(f"lambda0 = {gs.lambda0:.8f}, feasibility bound r/lambda0 = {1.0 / gs.lambda0:.3f}\n")

print(f"{'c':>7} {'omega':>11} {'omega-l0':>10} {'energy':>11} {'E+l0*c/2':>10} {'iters':>6} "
      f"{'newton':>6}")
for c in (2.4, 1.6, 1.0, 0.6):
    res = minimize(d, P, c, 1.0, tau=1.0, tol=1e-9, ground=gs)
    print(f"{c:7.2f} {res.omega:11.7f} {res.omega - gs.lambda0:10.3e} "
          f"{res.energy:11.6f} {res.energy + gs.lambda0 * c / 2:10.2e} {res.iterations:6d} "
          f"{res.newton_steps:6d}")

# oracle comparison at c = 1.6: gauge-align, then measure the H1 distance
c = 1.6
res = minimize(d, P, c, 1.0, tau=1.0, tol=1e-9, ground=gs)
omega_c = solve_omega_for_mass(3, 1.0, P, c, (0.115, 1.2))
ref = evaluate_wave(ClosedFormWave(3, 1.0, P, omega_c, 0), d)
theta = res.diagnostics["theta_hat"]
diff = GraphFunction(d, np.exp(-1j * theta) * res.phi.values - ref.values)
rel = math.sqrt(h1_norm_sq(diff) / h1_norm_sq(ref))
print(f"\nminimizer vs closed form at c={c}: omega={res.omega:.8f} vs {omega_c:.8f}, "
      f"relative H1 distance {rel:.2e}")
print("structure:", {k: v for k, v in res.diagnostics.items()
                     if k.endswith("_ok")})
