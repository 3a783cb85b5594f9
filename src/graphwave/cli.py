"""Batch command-line front end: graph configs in, JSON on stdout, CSV
artifacts plus a reproducibility manifest in the output directory.

Exit codes: 0 success; 1 domain/feasibility/model errors; 2 solver
non-convergence (with the solver's residual per iteration, when it kept
one, in convergence_history.csv); 64 usage errors (argparse-level problems).
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BallExitError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    FeasibilityError,
    GraphWaveError,
    os_action,
)

# numpy, the library modules and the process pool are imported where used,
# so that --version, a usage error and mass-curve start without most of them

SCHEMA_VERSION = 1
# namespace entries that are not run parameters: where the output goes, the
# seed (recorded on its own), and argparse's own bookkeeping
_NOT_PARAMETERS = ("out", "seed", "command", "func")
# most worker processes `sweep --jobs` may start
MAX_JOBS = 64
# most points a `mass-curve` or `sweep` range may ask for
MAX_POINTS = 10**5


class _Parser(argparse.ArgumentParser):
    """argparse with the documented 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))


def _write_csv(path: Path, columns: dict) -> None:
    """A CSV of the named columns, as plain Python scalars (floats print with repr)."""
    import numpy as np
    with os_action(f"write {path}"), open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(zip(*(np.asarray(col).tolist() for col in columns.values())))


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' pool, its module imported only when a sweep starts one."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _prepare(args):
    """Create the output directory, parse the graph (if the command takes
    one) and write the manifest; parameters are every parsed option except
    those in _NOT_PARAMETERS.  Graph-less commands hash their parameters in
    place of the graph config."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    out = Path(args.out)
    with os_action(f"create output directory {out}"):
        out.mkdir(parents=True, exist_ok=True)
    if getattr(args, "dump_psi0", None) and not (out / args.dump_psi0).parent.is_dir():
        raise ConfigurationError(f"cannot write {out / args.dump_psi0}: no such directory")
    graph_path = getattr(args, "graph", None)
    if graph_path is not None:
        with os_action(f"read graph config {graph_path}"):
            text = Path(graph_path).read_text()
        from .graphs import parse_graph
        g = parse_graph(text)
    else:
        text = json.dumps(params, sort_keys=True, default=float)
        g = None
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": params,
        "graph_config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "tool_version": __version__,
        "seed": args.seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with os_action(f"write {out / 'manifest.json'}"), open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return out, g


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args, out, g) -> dict:
    from . import mesh, spectrum
    d = mesh.build(g, args.h)
    pair = spectrum.ground_state(d, tol=args.tol)
    gap, gap_iterations = spectrum.spectral_gap(pair)
    report = spectrum.spectral_gap_report(pair, gap)
    if args.dump_psi0:
        mesh.save_function_csv(pair.psi0, out / args.dump_psi0)
    return {
        "lambda0": pair.lambda0,
        "gap": gap,
        "residual": pair.residual,
        "iterations": pair.iterations + gap_iterations,
        "factorizations": pair.factorizations,
        "isolation_certified": report["isolation_certified"],
        "n_nodes": d.n_nodes,
    }


def _cmd_minimize(args, out, g) -> dict:
    from . import mesh, minimizers
    d = mesh.build(g, args.h)
    init = mesh.load_function_csv(d, args.init) if args.init else None
    res = minimizers.minimize(
        d, args.p, args.c, args.r,
        tau=args.tau, tol=args.tol, max_iter=args.max_iter, init=init,
    )
    mesh.save_function_csv(res.phi, out / "minimizer.csv")
    return {k: getattr(res, k) for k in (
        "energy", "omega", "lambda0", "c", "r", "g_norm_sq", "iterations", "newton_steps",
        "gradient_residual", "diagnostics")}


def _cmd_closed_form(args, out, _) -> dict:
    from . import mesh, minimizers, starwaves
    from .graphs import StarGraphSpec, make_star
    wave = starwaves.ClosedFormWave(args.N, args.gamma, args.p, args.omega, args.j)
    spec = StarGraphSpec(args.N, args.gamma, args.length)
    # refuse an oversized grid before make_star allocates the N edges
    mesh.check_grid(1, [(spec.truncation_length, spec.n_edges)], args.h)
    d = mesh.build(make_star(spec), args.h)
    u = starwaves.evaluate_wave(wave, d)
    mass, energy = mesh.mass(u), minimizers.energy(u, args.p).total
    if not (math.isfinite(mass) and math.isfinite(energy)):
        raise DomainError(f"omega={args.omega} gives a mass {mass} and energy {energy} "
                          "that are not both finite")
    mesh.save_function_csv(u, out / "profile.csv")
    return {
        "a_j": wave.a_j,
        "shift": wave.shift,
        "mass": mass,
        "energy": energy,
        "omega": args.omega,
        "threshold": starwaves.ClosedFormWave.threshold(args.N, args.gamma, args.j),
    }


def _cmd_mass_curve(args, out, _) -> dict:
    from . import starwaves
    omegas = _geometric_grid(args.omega_range, "--omega-range").tolist()
    masses = [starwaves.mass_curve(args.N, args.gamma, args.p, w) for w in omegas]
    _write_csv(out / "mass_curve.csv", {"omega": omegas, "mass": masses})
    window = starwaves.monotone_window(args.N, args.gamma, args.p)
    return {
        "n_points": len(omegas),
        "monotone_window": {"threshold": window[0], "omega_hi": window[1]},
    }


def _cmd_evolve(args, out, g) -> dict:
    import numpy as np
    from . import evolution, mesh
    d = mesh.build(g, args.h)
    u0 = mesh.load_function_csv(d, args.init)
    _, trace = evolution.evolve(d, args.p, u0, args.dt, args.T, sample_every=args.sample_every)
    _write_csv(out / "trace.csv", {"t": trace.times, "mass": trace.mass,
                                   "energy": trace.energy, "sup_norm": trace.sup})
    m = np.array(trace.mass)
    e = np.array(trace.energy)
    return {
        "t_final": trace.times[-1],
        "mass_drift_rel": float(np.max(np.abs(m - m[0])) / m[0]),
        "energy_drift_rel": float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-30)),
        "n_samples": len(trace.times),
    }


def _cmd_stability(args, out, g) -> dict:
    import numpy as np
    from . import evolution, mesh, spectrum
    d = mesh.build(g, args.h)
    phi_ref = mesh.load_function_csv(d, args.ref)
    bump = None
    if args.mode == "eigenfunction-bump":
        bump = spectrum.ground_state(d).psi0
    trace = evolution.stability_experiment(
        d, args.p, phi_ref, delta=args.delta, t_final=args.T, dt=args.dt,
        mode=args.mode, bump=bump, seed=args.seed,
    )
    _write_csv(out / "stability.csv", {
        "t": trace.times, "orbit_distance": trace.orbit_distance,
        "mass_drift": trace.mass_drift, "energy_drift": trace.energy_drift})
    return {
        "sup_orbit_distance": float(np.max(trace.orbit_distance)),
        "ref_h1_norm": math.sqrt(mesh.h1_norm_sq(phi_ref)),
        "delta": args.delta,
        "t_final": trace.times[-1],
    }


def _cmd_validate(args, out, g) -> dict:
    import numpy as np
    from . import mesh, spectrum, starwaves
    d = mesh.build(g, args.h)
    pair = spectrum.ground_state(d)
    lam0 = pair.lambda0
    checks = []

    def check(name, value, threshold, ok):
        checks.append(
            {"name": name, "value": float(value), "threshold": float(threshold), "pass": bool(ok)}
        )

    check("lambda0_positive", lam0, 0.0, lam0 > 0)
    check("psi0_strictly_positive", float(np.min(pair.psi0.values.real)), 0.0,
          float(np.min(pair.psi0.values.real)) > 0)
    m_err = abs(mesh.mass(pair.psi0) - 1.0)
    check("psi0_unit_mass", m_err, 1e-10, m_err <= 1e-10)
    ray_err = abs(mesh.quadratic_form(pair.psi0) + lam0)
    check("rayleigh_identity", ray_err, 10 * pair.tol, ray_err <= 10 * pair.tol)

    zero_pot = all(
        float(np.max(np.abs(e.potential.values_at(eg.x)))) == 0.0
        for e, eg in zip(g.edges, d.edge_grids)
    )
    if g.is_star() and zero_pot:
        n = len(g.edges)
        gamma = g.vertices[0].alpha
        lam_exact = starwaves.ClosedFormWave.threshold(n, gamma)
        tol_lam = 100.0 * d.h_max**2 * lam_exact
        check("lambda0_star_value", abs(lam0 - lam_exact), tol_lam,
              abs(lam0 - lam_exact) <= tol_lam)
        omega = 2.25 * lam_exact
        wave = starwaves.ClosedFormWave(n, gamma, args.p, omega, 0)

        def residual(dd):
            u = starwaves.evaluate_wave(wave, dd)
            v = u.values.real
            rr = dd.apply(v) + omega * dd.m * v - dd.m * np.abs(v) ** (args.p - 1) * v
            return float(np.max(np.abs(rr)) / np.max(np.abs(v)))

        r1 = residual(d)
        r2 = residual(mesh.build(g, args.h / 2))
        check("stationarity_order_h2", r1 / r2, 3.0, r1 / r2 >= 3.0)
        curve_mass = starwaves.mass_curve(n, gamma, args.p, omega)
        mass_err = abs(mesh.mass(starwaves.evaluate_wave(wave, d)) - curve_mass)
        # trapezoid quadrature error scales like h^2; 1e-4 floor at fine h
        tol_mass = max(1e-4, 0.15 * d.h_max**2 * curve_mass)
        check("mass_curve_consistency", mass_err, tol_mass, mass_err <= tol_mass)
        if args.p == 5:
            h0_err = abs(starwaves.h_integral(0.0, 5.0) - math.pi / 2)
            check("h_integral_identity", h0_err, 1e-10, h0_err <= 1e-10)

    all_pass = all(c["pass"] for c in checks)
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        sys.stderr.write(
            f"{c['name']:<{width}}  value={c['value']:< .3e}  "
            f"threshold={c['threshold']:< .3e}  {'PASS' if c['pass'] else 'FAIL'}\n"
        )
    return {"checks": checks, "all_pass": all_pass}


def _sweep_point(task):
    """Run one minimize for the sweep; a failure that depends on the point's
    mass becomes a row."""
    from . import minimizers
    d, ground, p, c, r, tau, tol, max_iter = task
    try:
        res = minimizers.minimize(
            d, p, c, r, tau=tau, tol=tol, max_iter=max_iter, ground=ground
        )
    except (FeasibilityError, BallExitError, ConvergenceError) as exc:
        return {"c": c, "omega": float("nan"), "energy": float("nan"),
                "g_norm_sq": float("nan"), "iterations": 0,
                "structure_ok": "False", "status": type(exc).__name__}
    structure_ok = all(
        res.diagnostics[k]
        for k in ("phase_constant_ok", "positivity_ok",
                  "energy_below_linear_ok", "ball_interior_ok")
    )
    return {
        "c": c, "omega": res.omega, "energy": res.energy,
        "g_norm_sq": res.g_norm_sq, "iterations": res.iterations,
        "structure_ok": str(structure_ok), "status": "ok",
    }


def _cmd_sweep(args, out, g) -> dict:
    from . import mesh, minimizers, spectrum
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ConfigurationError(f"--jobs must be between 1 and {MAX_JOBS}, got {args.jobs}")
    cs = _geometric_grid(args.c_grid, "--c-grid")
    # an argument error is common to every point: refuse it before any solve
    minimizers.check_arguments(args.p, args.c_grid[0], args.r, args.tau, args.tol, args.max_iter)
    # one grid and one ground state, shared by every point (pickled to workers)
    d = mesh.build(g, args.h)
    ground = spectrum.ground_state(d)
    tasks = [
        (d, ground, args.p, float(c), args.r, args.tau, args.tol, args.max_iter)
        for c in cs
    ]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    columns = ["c", "omega", "energy", "g_norm_sq", "iterations", "structure_ok", "status"]
    _write_csv(out / "sweep.csv", {k: [r[k] for r in results] for k in columns})
    n_ok = sum(1 for r in results if r["status"] == "ok")
    return {
        "lambda0": ground.lambda0,
        "n_points": len(results),
        "n_ok": n_ok,
        "n_failed": len(results) - n_ok,
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _geometric_grid(triplet, option: str):
    lo, hi, n = triplet   # the count is checked before anything is allocated
    if n > MAX_POINTS:
        raise ConfigurationError(f"{option} asks for {n} points, above the limit {MAX_POINTS}")
    import numpy as np
    return np.geomspace(lo, hi, n)


def _range_triplet(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi < math.inf and n >= 1):
        raise argparse.ArgumentTypeError("need 0 < lo < hi < inf and n >= 1")
    return lo, hi, n


def build_parser() -> _Parser:
    parser = _Parser(prog="graphwave", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, graph=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if graph:
            sp.add_argument("graph", help="graph config JSON file")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed for perturbations")
        return sp

    sp = command("spectrum", _cmd_spectrum, "linear ground state and spectral gap")
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--dump-psi0", default=None, metavar="FILE.csv")

    sp = command("minimize", _cmd_minimize, "constrained energy minimizer on the mass sphere")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=50000)
    sp.add_argument("--init", default=None, metavar="FILE.csv")

    sp = command("closed-form", _cmd_closed_form,
                 "exact star-graph standing wave profile", graph=False)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--length", type=float, default=40.0)

    sp = command("mass-curve", _cmd_mass_curve, "mass of the ground branch vs omega", graph=False)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--omega-range", type=_range_triplet, required=True, metavar="lo:hi:n")

    sp = command("evolve", _cmd_evolve, "time-integrate the focusing flow")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--h", type=float, default=0.02)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--init", required=True, metavar="FILE.csv")
    sp.add_argument("--sample-every", type=int, default=10)

    sp = command("stability", _cmd_stability, "orbital stability experiment")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--h", type=float, default=0.02)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--ref", required=True, metavar="FILE.csv")
    sp.add_argument("--mode", choices=["eigenfunction-bump", "multiplicative-noise"],
                    default="eigenfunction-bump")

    sp = command("validate", _cmd_validate, "run the oracle checks and print a pass/fail table")
    sp.add_argument("--p", type=float, default=5.0)
    sp.add_argument("--h", type=float, default=0.01)

    sp = command("sweep", _cmd_sweep, "minimize over a geometric mass grid")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--c-grid", type=_range_triplet, required=True, metavar="lo:hi:n")
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=50000)
    sp.add_argument("--jobs", type=int, default=1)

    return parser


def dispatch(argv) -> int:
    """Parse argv, prepare the output directory and manifest, run the
    subcommand and print its payload, mapping errors to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dt", "unset") is None:
        args.dt = args.h / 2.0
    try:
        try:
            payload = args.func(args, *_prepare(args))
        except ConvergenceError as exc:   # a history it cannot write is a ConfigurationError
            if exc.history:   # one residual per iteration, for diagnosing the run
                _write_csv(Path(args.out) / "convergence_history.csv",
                           {"iteration": range(1, len(exc.history) + 1), "residual": exc.history})
            raise
    except ConvergenceError as exc:
        _emit({"error": str(exc), "error_type": "ConvergenceError", "residual": exc.residual})
        return 2
    except GraphWaveError as exc:
        _emit({"error": str(exc), "error_type": type(exc).__name__})
        return 1
    _emit(payload)
    # only validate reports a verdict; a failed check exits 1
    return 0 if payload.get("all_pass", True) else 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
