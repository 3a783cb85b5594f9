"""Seeded input generation for the benchmark workloads.

Every generator is a pure function of ``(seed, scale)`` that returns plain
JSON-able data: graph configs as JSON text, grid steps, powers, masses,
frequencies and command lines.  The library only ever sees these values, so
``inputs_hash`` identifies exactly what a run computed on.  ``scale`` shrinks
the node-count targets and step counts for the self-test; the benchmark
itself always uses ``scale=1``.

Random values are drawn in strata (one draw inside each of k equal slices of
a range) so that two seeds give different inputs but about the same total
amount of work.
"""
from __future__ import annotations

import hashlib
import json
import math
import zlib

import numpy as np

# node-count targets of the ground-states family, labelled as in the docs
SIZES = (("1.2k", 1200), ("6k", 6000), ("24k", 24000))

# the fixed 3-star of the README and the acceptance suite
STAR3 = {"N": 3, "gamma": 1.0, "truncation": 40.0}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _r(x: float) -> float:
    """Round to 6 significant digits so inputs print and hash stably."""
    return float(f"{x:.6g}")


def _strata(rng, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    return [_r(lo + (i + rng.uniform(0.05, 0.95)) * width) for i in range(k)]


def graph_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def star_doc(n_edges: int, gamma: float, truncation: float) -> dict:
    return {
        "vertices": [{"id": "v0", "alpha": gamma}],
        "edges": [
            {"id": f"e{i + 1}", "from": "v0", "to": None, "length": "inf",
             "truncation": truncation}
            for i in range(n_edges)
        ],
    }


def _half_line(eid: str, vertex: str, truncation: float) -> dict:
    return {"id": eid, "from": vertex, "to": None, "length": "inf",
            "truncation": truncation}


def tree_doc(rng) -> dict:
    """Four vertices in a tree; edge f1 carries an attractive square well,
    half-lines hang off the two leaves."""
    alphas = [_r(rng.uniform(0.3, 0.9)) for _ in range(4)]
    lengths = [_r(rng.uniform(2.0, 4.0)) for _ in range(3)]
    well_width = _r(rng.uniform(0.4, 0.8) * lengths[0])
    well = {"type": "square_well", "depth": _r(-rng.uniform(0.5, 1.5)),
            "start": _r(rng.uniform(0.05, 0.15) * lengths[0]), "width": well_width}
    return {
        "vertices": [{"id": f"t{i}", "alpha": a} for i, a in enumerate(alphas)],
        "edges": [
            {"id": "f1", "from": "t0", "to": "t1", "length": lengths[0], "potential": well},
            {"id": "f2", "from": "t0", "to": "t2", "length": lengths[1]},
            {"id": "f3", "from": "t1", "to": "t3", "length": lengths[2]},
            _half_line("h1", "t2", 40.0),
            _half_line("h2", "t3", 40.0),
        ],
    }


def cycle_doc(rng) -> dict:
    """A triangle of finite edges with one attractive vertex and half-lines
    at two of its vertices (one delta keeps a single, well separated bound
    state, so the eigen iteration count does not jump between seeds)."""
    alphas = [_r(rng.uniform(0.8, 1.4)), 0.0, 0.0]
    edges = [
        {"id": f"c{i}", "from": f"w{i}", "to": f"w{(i + 1) % 3}",
         "length": _r(rng.uniform(1.5, 4.0))}
        for i in range(3)
    ]
    edges += [_half_line("h1", "w0", 40.0), _half_line("h2", "w1", 40.0)]
    return {"vertices": [{"id": f"w{i}", "alpha": a} for i, a in enumerate(alphas)],
            "edges": edges}


def _grid_length_sum(doc: dict) -> float:
    return sum(e["truncation"] if e["length"] == "inf" else e["length"] for e in doc["edges"])


def _star_minimizer_mass(n_edges, gamma, omega) -> float:
    from graphwave.starwaves import mass_curve

    return mass_curve(n_edges, gamma, 6.0, omega)


def ground_states(seed: int, scale: float = 1.0) -> dict:
    """Star, tree and cycle at each node-count target; stars carry a p=6
    minimize at tau=1 whose mass comes from the mass curve."""
    rng = _rng("ground-states", seed)
    graphs = []
    for label, target in SIZES:
        target = max(1000, int(target * scale))
        # lambda0 = gamma^2/N^2 in [0.1, 0.16] keeps the truncation at 40
        # long enough (tail below e^-12) and the eigen iteration count steady
        n_edges = int(rng.integers(3, 6))
        gamma = _r(n_edges * math.sqrt(rng.uniform(0.1, 0.16)))
        lam0 = gamma**2 / n_edges**2
        star = star_doc(n_edges, gamma, 40.0)
        # omega/threshold in [1.3, 2.2]: inside the monotone window (about
        # 11x the threshold for p=6) with c*lambda0 well below the r=1 gate
        omega = _r(lam0 * rng.uniform(1.3, 2.2))
        for kind, doc in (("star", star), ("tree", tree_doc(rng)), ("cycle", cycle_doc(rng))):
            entry = {"name": f"{kind}-{label}", "kind": kind, "graph": graph_text(doc),
                     "h": _r(_grid_length_sum(doc) / target)}
            if kind == "star":
                entry.update(N=n_edges, gamma=gamma, lambda0_exact=lam0, p=6.0, r=1.0,
                             tau=1.0, omega=omega,
                             c=_star_minimizer_mass(n_edges, gamma, omega))
            graphs.append(entry)
    return {"workload": "ground-states", "seed": seed, "graphs": graphs}


def mass_sweep(seed: int, scale: float = 1.0) -> dict:
    """The 3-star at h=0.02, p=6, default tau, one mass per omega stratum of
    [0.15, 0.5], then the two acceptance-11 gates."""
    rng = _rng("mass-sweep", seed)
    s = STAR3
    h = 0.02 if scale >= 1 else 0.1
    omegas = _strata(rng, 0.15, 0.5, 3 if scale >= 1 else 2)
    return {
        "workload": "mass-sweep", "seed": seed,
        "graph": graph_text(star_doc(s["N"], s["gamma"], s["truncation"])),
        "N": s["N"], "gamma": s["gamma"], "h": h, "p": 6.0, "r": 1.0,
        "omegas": omegas,
        "masses": [_star_minimizer_mass(s["N"], s["gamma"], w) for w in omegas],
        # c = 1.01 r/lambda0 must raise FeasibilityError; p=7 at 0.98 r/lambda0
        # must end typed (ball exit or non-convergence) or converge inside B(r)
        "feasibility_factor": 1.01,
        "near_bound": {"p": 7.0, "factor": 0.98, "max_iter": 20000},
    }


def evolve(seed: int, scale: float = 1.0) -> dict:
    """Exact p=5 wave evolved on the 6k and 1.2k grids, and the p=6 stability
    experiment in both perturbation modes."""
    rng = _rng("evolve", seed)
    s = STAR3
    steps = 1.0 if scale >= 1 else 0.1
    return {
        "workload": "evolve", "seed": seed,
        "graph": graph_text(star_doc(s["N"], s["gamma"], s["truncation"])),
        "N": s["N"], "gamma": s["gamma"],
        "wave": {"p": 5.0, "omega": _r(rng.uniform(0.6, 1.2))},
        "runs": [
            {"name": "evolve-6k", "h": 0.02, "dt": 0.01, "n_steps": int(300 * steps)},
            {"name": "evolve-1.2k", "h": 0.1, "dt": 0.005, "n_steps": int(1000 * steps)},
        ],
        "stability": {
            "p": 6.0, "h": 0.02, "tau": 1.0, "r": 1.0,
            "omega": _r(rng.uniform(0.15, 0.3)),
            "delta": 0.01, "dt": 0.01, "n_steps": int(200 * steps), "n_samples": 50,
            "noise_seed": int(rng.integers(0, 2**31 - 1)),
        },
    }


def cli_batch(seed: int, scale: float = 1.0) -> dict:
    """The README command list on a generated star3.json.

    Paths are relative to the run's work directory; every CSV consumer reads
    a file written on a grid that contains its own grid (h divides evenly).
    """
    rng = _rng("cli-batch", seed)
    gamma = _r(rng.uniform(0.8, 1.25))
    lam0 = gamma**2 / 9.0
    truncation = 40.0
    coarse = 0.04 if scale >= 1 else 0.2
    fine = 0.02 if scale >= 1 else 0.1
    omega_min = _r(lam0 * rng.uniform(1.3, 3.0))
    c_min = _star_minimizer_mass(3, gamma, omega_min)
    omega_cf = _r(rng.uniform(0.6, 1.2))
    c_lo, c_hi = (_r(_star_minimizer_mass(3, gamma, lam0 * f)) for f in (1.3, 3.0))
    delta = 0.01
    cmds = [
        ("version", ["--version"], 0),
        ("spectrum", ["spectrum", "star3.json", "--h", fine, "--dump-psi0", "psi0.csv",
                      "--out", "runs/spec"], 0),
        ("minimize", ["minimize", "star3.json", "--p", 6, "--c", c_min, "--r", 1,
                      "--h", fine, "--tau", 1, "--out", "runs/min"], 0),
        ("minimize-repeat", ["minimize", "star3.json", "--p", 6, "--c", c_min, "--r", 1,
                             "--h", fine, "--tau", 1, "--out", "runs/min2"], 0),
        ("closed-form", ["closed-form", "--N", 3, "--gamma", gamma, "--p", 5,
                         "--omega", omega_cf, "--h", coarse, "--length", truncation,
                         "--out", "runs/cf"], 0),
        ("closed-form-repeat", ["closed-form", "--N", 3, "--gamma", gamma, "--p", 5,
                                "--omega", omega_cf, "--h", coarse, "--length", truncation,
                                "--out", "runs/cf2"], 0),
        ("mass-curve", ["mass-curve", "--N", 3, "--gamma", gamma, "--p", 6, "--omega-range",
                        f"{_r(1.1 * lam0)}:{_r(10 * lam0)}:40", "--out", "runs/mc"], 0),
        ("evolve", ["evolve", "star3.json", "--p", 5, "--h", coarse, "--dt", 0.01,
                    "--T", 2 if scale >= 1 else 0.2, "--init", "runs/cf/profile.csv",
                    "--out", "runs/ev"], 0),
        ("stability", ["stability", "star3.json", "--p", 6, "--h", coarse, "--dt", 0.02,
                       "--T", 4 if scale >= 1 else 0.4, "--delta", delta,
                       "--ref", "runs/min/minimizer.csv", "--out", "runs/st"], 0),
        ("validate", ["validate", "star3.json", "--p", 5, "--h", fine, "--out", "runs/val"], 0),
        ("sweep", ["sweep", "star3.json", "--p", 6, "--c-grid", f"{c_lo}:{c_hi}:6",
                   "--tau", 1, "--h", fine, "--jobs", 2, "--out", "runs/sw"], 0),
        # c = 1.5 r/lambda0: the feasibility gate must refuse it with exit 1
        ("minimize-infeasible", ["minimize", "star3.json", "--p", 6, "--c", _r(1.5 / lam0),
                                 "--h", fine, "--tau", 1, "--out", "runs/bad"], 1),
        ("bad-flag", ["spectrum", "star3.json", "--no-such-flag"], 64),
    ]
    return {
        "workload": "cli-batch", "seed": seed,
        "graph": graph_text(star_doc(3, gamma, truncation)),
        "N": 3, "gamma": gamma, "lambda0_exact": lam0,
        "omega_min": omega_min, "omega_cf": omega_cf, "fine_h": fine, "coarse_h": coarse,
        "stability_delta": delta,
        "commands": [{"name": n, "argv": [str(a) for a in argv], "exit": code}
                     for n, argv, code in cmds],
    }


def inputs_hash(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
