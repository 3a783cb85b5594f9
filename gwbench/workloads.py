"""The four workloads: set-up, the fixed op list of one pass, and the oracles.

An op is one closed-loop request: ``run`` makes the timed library calls and
returns their raw result, ``summarize`` reduces that result to a few numbers
right after the op (outside its timer), and ``check`` compares a summary with
the oracle once the timed region is over.  Ops of one pass share ``state``
(a build feeds the next ground state, a ground state the next minimize).

Tolerances come from ``calibrate.py`` run on the unmodified library; each
constant below names the quantity it bounds and the largest normalised value
measured there.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import graphwave as gw
import inputs as gen

# Each tolerance is about twice the largest normalised error calibrate.py
# measured over many seeds, on quantities whose order under h -> h/2 it also
# measured (2.00 for every discretisation error below, 2.06 for the phase).
# The *_REL constants and MASS_DRIFT_MAX bound round-off, not discretisation.
#
# |lambda0 - gamma^2/N^2| <= STAR_LAMBDA_K * lambda0^2 * h^2  (measured 0.250)
STAR_LAMBDA_K = 0.5
# |lambda0 - eigsh| <= EIGSH_REL * lambda0, same matrices  (measured 1.7e-10)
EIGSH_REL = 1e-9
# |omega - omega that generated c| <= MIN_OMEGA_K * omega^2 * h^2 for a
# converged minimizer  (measured 5.83, at the top of the mass-sweep range)
MIN_OMEGA_K = 12.0
# max | |u(T)| - |u(0)| | / max |u(0)| <= MODULUS_K * omega * h^2 for the
# evolved exact wave, dt <= h/2  (measured 1.41)
MODULUS_K = 3.0
# |arg <u(T), e^{i omega T} u(0)>| <= PHASE_K * omega^2 * h^2 * T for the
# evolved exact wave  (measured 4.04)
PHASE_K = 8.0
# |mass(sampled wave) - mass_curve| <= CF_MASS_K * h^2 * omega * mass
# (trapezoid quadrature; measured 0.128)
CF_MASS_K = 0.25
# the mass curve's root is resolved by brentq to rtol 1e-12
OMEGA_ROUNDTRIP_REL = 1e-9
# acceptance 09: conservation of the discrete mass  (measured 4e-15)
MASS_DRIFT_MAX = 1e-10
# acceptance 10, eigenfunction bump: orbit distance within 5 delta ||phi||_H1
# (measured 0.31 delta ||phi||_H1)
ORBIT_FACTOR = 5.0
# seeded node-wise noise has H1 size ~delta/h, so its orbit distance is
# bounded by its initial distance d0, recomputed by the oracle from the seed:
# the output's d0 must match it to D0_REL, and the sup over the run must stay
# within ORBIT_NOISE_FACTOR * d0  (measured 1.0 d0: the sup is at t = 0)
D0_REL = 1e-9
ORBIT_NOISE_FACTOR = 2.0

# calibrate.py sets this to a dict to collect, per tolerance, every
# |value - reference| / tolerance the oracles compute
MEASURED: dict | None = None

STRUCTURE_KEYS = ("phase_constant_ok", "positivity_ok", "energy_below_linear_ok",
                  "ball_interior_ok")


@dataclass
class Op:
    name: str
    kind: str                                   # groups ops into end-to-end metrics
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    check: Callable[[dict], list]               # failure messages; empty means correct


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list = field(default_factory=list)
    steps_per_pass: int = 0                     # CN steps made by one pass
    references: Callable[[], None] = lambda: None   # oracle set-up after the timed region


def _close(value, ref, tol, what, bound=None):
    """Failure message unless |value - ref| <= tol; ``bound`` names the
    tolerance for calibrate.py (None for exact comparisons)."""
    if MEASURED is not None and bound:
        MEASURED.setdefault(bound, []).append(abs(value - ref) / tol)
    if not abs(value - ref) <= tol:
        return [f"{what}: {value!r} vs {ref!r} (tolerance {tol:.3g})"]
    return []


def _structure(diag: dict, what: str) -> list:
    bad = [k for k in STRUCTURE_KEYS if not diag.get(k)]
    return [f"{what}: structure diagnostics false: {bad}"] if bad else []


def _minimizer_summary(res) -> dict:
    return {"omega": res.omega, "iterations": res.iterations, "g_norm_sq": res.g_norm_sq,
            "residual": res.gradient_residual, "diagnostics": dict(res.diagnostics)}


def _check_minimizer(s, omega_gen, h, what):
    return (_close(s["omega"], omega_gen, MIN_OMEGA_K * omega_gen**2 * h**2, f"{what} omega",
                   "MIN_OMEGA_K")
            + _structure(s["diagnostics"], what))


def expected_grid(graph_text: str, h: float) -> tuple:
    """Node count and largest cell of the glued grid: one node per vertex plus
    the interior nodes of every edge, each edge cut into max(4, ceil(L/h))
    equal cells (truncation ends dropped)."""
    doc = json.loads(graph_text)
    lengths = [e["truncation"] if e["length"] == "inf" else float(e["length"])
               for e in doc["edges"]]
    cells = [max(4, math.ceil(L / h)) for L in lengths]
    return (len(doc["vertices"]) + sum(n - 1 for n in cells),
            max(L / n for L, n in zip(lengths, cells)))


def _lower_bound(d) -> float:
    """A shift below the whole spectrum: each vertex term obeys
    |u(v)|^2 <= ||u||_M^2 / m_v and the potential is bounded below."""
    w_min = min(0.0, *(float(np.min(e.potential.values_at(eg.x)))
                       for e, eg in zip(d.graph.edges, d.edge_grids)))
    return w_min - sum(max(v.alpha, 0.0) / d.m[d.vertex_index[v.id]]
                       for v in d.graph.vertices) - 1.0


def eigsh_lambda0(d) -> float:
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    mu = eigsh(d.A.tocsc(), k=1, M=sp.diags(d.m).tocsc(), sigma=_lower_bound(d),
               which="LM", return_eigenvectors=False)
    return -float(mu[0])


# ---------------------------------------------------------------------------
# ground-states
# ---------------------------------------------------------------------------

def ground_states(inputs: dict) -> Workload:
    w = Workload("ground-states", inputs)
    state: dict = {}
    refs: dict = {}

    def references():
        for e in inputs["graphs"]:
            if e["kind"] != "star":
                refs[e["name"]] = eigsh_lambda0(gw.build(gw.parse_graph(e["graph"]), e["h"]))

    w.references = references

    for e in inputs["graphs"]:
        name = e["name"]
        n_nodes, h_max = expected_grid(e["graph"], e["h"])

        def do_build(e=e):
            state[e["name"]] = {"d": gw.build(gw.parse_graph(e["graph"]), e["h"])}
            return state[e["name"]]["d"]

        def check_build(s, e=e, n_nodes=n_nodes, h_max=h_max):
            return (_close(s["n_nodes"], n_nodes, 0, f"{e['name']} node count")
                    + _close(s["h_max"], h_max, 1e-12 * h_max, f"{e['name']} largest cell"))

        def do_ground(e=e):
            st = state[e["name"]]
            st["gs"] = gw.ground_state(st["d"])
            return st["gs"]

        def check_ground(s, e=e, h_max=h_max):
            if e["kind"] == "star":
                lam = e["lambda0_exact"]
                return _close(s["lambda0"], lam, STAR_LAMBDA_K * lam**2 * h_max**2,
                              f"{e['name']} lambda0 vs gamma^2/N^2", "STAR_LAMBDA_K")
            ref = refs[e["name"]]
            return _close(s["lambda0"], ref, EIGSH_REL * ref, f"{e['name']} lambda0 vs eigsh",
                          "EIGSH_REL")

        w.ops.append(Op(f"build:{name}", "build", do_build,
                        lambda d: {"n_nodes": d.n_nodes, "h_max": d.h_max}, check_build))
        w.ops.append(Op(f"ground_state:{name}", "ground_state", do_ground,
                        lambda gs: {"lambda0": gs.lambda0, "iterations": gs.iterations},
                        check_ground))
        if e["kind"] != "star":
            continue
        def omega_for_mass(e=e):
            # a bracket inside the monotone window around omega/lambda0 in [1.3, 2.2]
            lam = e["lambda0_exact"]
            return gw.solve_omega_for_mass(e["N"], e["gamma"], e["p"], e["c"],
                                           (1.2 * lam, 2.4 * lam))

        w.ops.append(Op(
            f"omega_for_mass:{name}", "starwaves", omega_for_mass,
            lambda om: {"omega": om},
            lambda s, e=e: _close(s["omega"], e["omega"], OMEGA_ROUNDTRIP_REL * e["omega"],
                                  f"{e['name']} omega from mass", "OMEGA_ROUNDTRIP_REL")))
        w.ops.append(Op(
            f"minimize:{name}", "minimize",
            lambda e=e: gw.minimize(state[e["name"]]["d"], e["p"], e["c"], e["r"],
                                    tau=e["tau"], ground=state[e["name"]]["gs"]),
            _minimizer_summary,
            lambda s, e=e, h_max=h_max: _check_minimizer(s, e["omega"], h_max,
                                                         f"{e['name']} minimizer")))
    return w


# ---------------------------------------------------------------------------
# mass-sweep
# ---------------------------------------------------------------------------

def mass_sweep(inputs: dict) -> Workload:
    w = Workload("mass-sweep", inputs)
    d = gw.build(gw.parse_graph(inputs["graph"]), inputs["h"])
    state: dict = {}
    n, gamma, p, r = inputs["N"], inputs["gamma"], inputs["p"], inputs["r"]
    thr = gamma**2 / n**2

    def do_ground():
        state["gs"] = gw.ground_state(d)
        return state["gs"]

    w.ops.append(Op("ground_state", "ground_state", do_ground,
                    lambda gs: {"lambda0": gs.lambda0, "iterations": gs.iterations},
                    lambda s: _close(s["lambda0"], thr, STAR_LAMBDA_K * thr**2 * d.h_max**2,
                                     "lambda0 vs gamma^2/N^2", "STAR_LAMBDA_K")))
    for i, (omega, c) in enumerate(zip(inputs["omegas"], inputs["masses"])):
        w.ops.append(Op(
            f"omega_for_mass:{i}", "starwaves",
            lambda c=c: gw.solve_omega_for_mass(n, gamma, p, c, (1.05 * thr, 6.0 * thr)),
            lambda om: {"omega": om},
            lambda s, om=omega, i=i: _close(s["omega"], om, OMEGA_ROUNDTRIP_REL * om,
                                            f"mass {i} omega from mass",
                                            "OMEGA_ROUNDTRIP_REL")))
        w.ops.append(Op(
            f"minimize:{i}", "minimize",
            lambda c=c: gw.minimize(d, p, c, r, ground=state["gs"]),
            _minimizer_summary,
            lambda s, om=omega, i=i: _check_minimizer(s, om, d.h_max, f"mass {i} minimizer")))

    def gate_feasibility():
        lam0 = state["gs"].lambda0
        try:
            gw.minimize(d, inputs["near_bound"]["p"], inputs["feasibility_factor"] * r / lam0,
                        r, ground=state["gs"])
        except gw.FeasibilityError as exc:
            return exc
        return None

    def gate_near_bound():
        nb = inputs["near_bound"]
        try:
            return gw.minimize(d, nb["p"], nb["factor"] * r / state["gs"].lambda0, r,
                               ground=state["gs"], max_iter=nb["max_iter"])
        except (gw.BallExitError, gw.ConvergenceError) as exc:
            return exc

    def near_bound_summary(res):
        if isinstance(res, Exception):
            return {"outcome": type(res).__name__}
        return {"outcome": "converged", "g_norm_sq": res.g_norm_sq}

    def near_bound_check(s):
        if s["outcome"] in ("BallExitError", "ConvergenceError"):
            return []
        if s["outcome"] == "converged" and s["g_norm_sq"] <= r:
            return []
        return [f"near-bound p=7 gate: silent wrong answer {s}"]

    w.ops.append(Op("gate:feasibility", "gate", gate_feasibility,
                    lambda exc: {"outcome": type(exc).__name__ if exc else "accepted"},
                    lambda s: [] if s["outcome"] == "FeasibilityError"
                    else [f"c = 1.01 r/lambda0 not refused: {s}"]))
    w.ops.append(Op("gate:near-bound", "gate", gate_near_bound, near_bound_summary,
                    near_bound_check))
    return w


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def noise_d0(phi, delta: float, seed: int) -> float:
    """H1 distance from phi's seeded multiplicative-noise perturbation,
    rescaled to phi's mass as ``stability_experiment`` documents, to phi's
    phase circle; computed from the grid matrices."""
    d = phi.disc
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(d.n_nodes) + 1j * rng.standard_normal(d.n_nodes)
    v = phi.values * (1.0 + delta * noise / math.sqrt(2.0))
    v = v * math.sqrt(np.sum(d.m * np.abs(phi.values) ** 2) / np.sum(d.m * np.abs(v) ** 2))

    def h1(a, b):
        return complex(np.vdot(b, d.K @ a) + np.vdot(b, d.m * a))

    return math.sqrt(h1(v, v).real + h1(phi.values, phi.values).real
                     - 2.0 * abs(h1(v, phi.values)))


def evolve(inputs: dict) -> Workload:
    w = Workload("evolve", inputs)
    g = gw.parse_graph(inputs["graph"])
    wave_in = inputs["wave"]
    omega = wave_in["omega"]
    wave = gw.ClosedFormWave(inputs["N"], inputs["gamma"], wave_in["p"], omega)
    st = inputs["stability"]
    d_st = gw.build(g, st["h"])
    gs = gw.ground_state(d_st)
    c_ref = gw.mass_curve(inputs["N"], inputs["gamma"], st["p"], st["omega"])
    ref = gw.minimize(d_st, st["p"], c_ref, st["r"], tau=st["tau"], ground=gs).phi
    ref_h1 = math.sqrt(gw.h1_norm_sq(ref))
    refs: dict = {}

    def references():
        refs["d0"] = noise_d0(ref, st["delta"], st["noise_seed"])

    w.references = references

    for run in inputs["runs"]:
        d = gw.build(g, run["h"])
        t_final = run["n_steps"] * run["dt"]

        def do_evolve(d=d, run=run, t_final=t_final):
            u0 = gw.evaluate_wave(wave, d)
            u, trace = gw.evolve(d, wave_in["p"], u0, run["dt"], t_final,
                                 sample_every=max(1, run["n_steps"] // 10))
            return u0, u, trace

        def evolve_summary(result, t_final=t_final):
            # the exact wave only turns its phase: u(T) = e^{i omega T} u(0)
            u0, u, trace = result
            m = np.asarray(trace.mass)
            a0 = np.abs(u0.values)
            turn = np.vdot(u0.values, u0.disc.m * u.values) * np.exp(-1j * omega * t_final)
            return {"mass_drift": float(np.max(np.abs(m - m[0])) / m[0]),
                    "modulus_error": float(np.max(np.abs(np.abs(u.values) - a0)) / np.max(a0)),
                    "phase_error": abs(float(np.angle(turn))),
                    "t_final": trace.times[-1]}

        def evolve_check(s, d=d, run=run, t_final=t_final):
            name = run["name"]
            return (_close(s["mass_drift"], 0.0, MASS_DRIFT_MAX, f"{name} mass drift",
                           "MASS_DRIFT_MAX")
                    + _close(s["modulus_error"], 0.0, MODULUS_K * omega * d.h_max**2,
                             f"{name} |u(T)| - |u(0)|", "MODULUS_K")
                    + _close(s["phase_error"], 0.0, PHASE_K * omega**2 * d.h_max**2 * t_final,
                             f"{name} phase of u(T) vs omega T", "PHASE_K")
                    + _close(s["t_final"], t_final, 1e-9, f"{name} final time"))

        w.ops.append(Op(run["name"], "evolve", do_evolve, evolve_summary, evolve_check))
        w.steps_per_pass += run["n_steps"]

    def check_bump(s):
        return (_close(s["mass_drift"], 0.0, MASS_DRIFT_MAX, "stability bump mass drift",
                       "MASS_DRIFT_MAX")
                + _close(s["max_distance"], 0.0, ORBIT_FACTOR * st["delta"] * ref_h1,
                         "stability bump orbit distance", "ORBIT_FACTOR"))

    def check_noise(s):
        d0 = refs["d0"]
        return (_close(s["mass_drift"], 0.0, MASS_DRIFT_MAX, "stability noise mass drift",
                       "MASS_DRIFT_MAX")
                + _close(s["d0"], d0, D0_REL * d0, "stability noise initial distance", "D0_REL")
                + _close(s["max_distance"], 0.0, ORBIT_NOISE_FACTOR * d0,
                         "stability noise orbit distance", "ORBIT_NOISE_FACTOR"))

    for mode, check in (("eigenfunction-bump", check_bump),
                        ("multiplicative-noise", check_noise)):
        def do_stability(mode=mode):
            return gw.stability_experiment(d_st, st["p"], ref, st["delta"],
                                           st["n_steps"] * st["dt"], st["dt"], mode=mode,
                                           bump=gs.psi0, seed=st["noise_seed"],
                                           n_samples=st["n_samples"])

        w.ops.append(Op(
            f"stability:{mode}", "evolve", do_stability,
            lambda tr: {"d0": tr.orbit_distance[0], "max_distance": max(tr.orbit_distance),
                        "mass_drift": max(tr.mass_drift)},
            check))
        w.steps_per_pass += st["n_steps"]
    return w


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# CSV files whose bytes must repeat when the command runs twice
REPEATS = {"minimize-repeat": ("runs/min/minimizer.csv", "runs/min2/minimizer.csv"),
           "closed-form-repeat": ("runs/cf/profile.csv", "runs/cf2/profile.csv")}


def cli_batch(inputs: dict, work_dir: Path, in_process: bool = False) -> Workload:
    """The README commands, each one op.  ``in_process`` runs them through
    ``graphwave.cli.dispatch`` in this interpreter instead of a subprocess."""
    w = Workload("cli-batch", inputs)
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "star3.json").write_text(inputs["graph"])
    env = dict(os.environ, PYTHONPATH=str(Path(gw.__file__).resolve().parent.parent))
    gamma, lam = inputs["gamma"], inputs["lambda0_exact"]
    h = inputs["fine_h"]
    refs: dict = {}

    def references():
        # `stability --ref` perturbs the p=6 minimizer at omega_min, whose
        # H1 norm on the coarse grid is that of the exact wave to O(h^2)
        d = gw.build(gw.parse_graph(inputs["graph"]), inputs["coarse_h"])
        wave = gw.ClosedFormWave(3, gamma, 6.0, inputs["omega_min"])
        refs["ref_h1"] = math.sqrt(gw.h1_norm_sq(gw.evaluate_wave(wave, d)))

    w.references = references

    def subprocess_run(argv):
        proc = subprocess.run([sys.executable, "-m", "graphwave.cli", *argv], cwd=work_dir,
                              env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def dispatch_run(argv):
        from graphwave import cli

        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work_dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.dispatch(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    runner = dispatch_run if in_process else subprocess_run

    def summarize(result, name):
        code, stdout = result
        s = {"exit": code, "stdout": stdout.strip()[:200] if name == "version" else None}
        try:
            s["payload"] = json.loads(stdout) if name != "version" else None
        except json.JSONDecodeError:
            s["payload"] = "not json"
        if name in REPEATS:
            s["sha"] = [_sha(work_dir / p) for p in REPEATS[name]]
        return s

    def payload_checks(name, pl) -> list:
        if name == "spectrum":
            return (_close(pl["lambda0"], lam, STAR_LAMBDA_K * lam**2 * h**2, "spectrum lambda0",
                           "STAR_LAMBDA_K")
                    + ([] if (work_dir / "runs/spec/psi0.csv").exists() else ["psi0.csv missing"]))
        if name.startswith("minimize") and name != "minimize-infeasible":
            return (_close(pl["omega"], inputs["omega_min"],
                           MIN_OMEGA_K * inputs["omega_min"]**2 * h**2, f"{name} omega",
                           "MIN_OMEGA_K")
                    + _structure(pl["diagnostics"], name))
        if name.startswith("closed-form"):
            om = inputs["omega_cf"]
            ref = gw.mass_curve(3, gamma, 5.0, om)
            return _close(pl["mass"], ref, CF_MASS_K * inputs["coarse_h"]**2 * om * ref,
                          f"{name} mass", "CF_MASS_K")
        if name == "mass-curve":
            return (_close(pl["n_points"], 40, 0, "mass-curve points")
                    + _close(pl["monotone_window"]["threshold"], lam, 1e-12 * lam, "threshold"))
        if name == "evolve":
            return _close(pl["mass_drift_rel"], 0.0, MASS_DRIFT_MAX, "evolve mass drift",
                          "MASS_DRIFT_MAX")
        if name == "stability":
            return _close(pl["sup_orbit_distance"], 0.0,
                          ORBIT_FACTOR * inputs["stability_delta"] * refs["ref_h1"],
                          "stability distance", "ORBIT_FACTOR")
        if name == "validate":
            return [] if pl["all_pass"] else [f"validate failed: {pl['checks']}"]
        if name == "sweep":
            return [] if pl["n_ok"] == pl["n_points"] == 6 else [f"sweep not all ok: {pl}"]
        if name == "minimize-infeasible":
            return [] if pl.get("error_type") == "FeasibilityError" else [f"not refused: {pl}"]
        return []

    def check(s, cmd):
        name = cmd["name"]
        if s["exit"] != cmd["exit"]:
            return [f"{name}: exit {s['exit']}, expected {cmd['exit']}"]
        if name == "version":
            return [] if s["stdout"].startswith("graphwave ") else [f"version: {s['stdout']!r}"]
        if name == "bad-flag":
            return []
        if not isinstance(s["payload"], dict):
            return [f"{name}: stdout is not one JSON object"]
        fails = payload_checks(name, s["payload"])
        if name in REPEATS and (s["sha"][0] is None or s["sha"][0] != s["sha"][1]):
            fails.append(f"{name}: CSV bytes differ between identical runs")
        return fails

    for cmd in inputs["commands"]:
        w.ops.append(Op(
            cmd["name"], "cli_startup" if cmd["name"] == "version" else "cli",
            lambda argv=cmd["argv"]: runner(argv),
            lambda res, name=cmd["name"]: summarize(res, name),
            lambda s, cmd=cmd: check(s, cmd)))
    return w


# the one list of workloads: name -> (input generator, builder from inputs
# and a scratch directory)
WORKLOADS = {
    "ground-states": (gen.ground_states, lambda data, _work: ground_states(data)),
    "mass-sweep": (gen.mass_sweep, lambda data, _work: mass_sweep(data)),
    "evolve": (gen.evolve, lambda data, _work: evolve(data)),
    "cli-batch": (gen.cli_batch, cli_batch),
}


def generate(name: str, seed: int, scale: float = 1.0) -> dict:
    return WORKLOADS[name][0](seed, scale)


def make(name: str, data: dict, work_dir: Path) -> Workload:
    return WORKLOADS[name][1](data, work_dir)
