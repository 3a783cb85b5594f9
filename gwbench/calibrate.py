"""Measure the oracle tolerances of ``workloads.py`` on the library as it is.

    python3 gwbench/calibrate.py

Runs one pass of every workload for many seeds through the benchmark's own
op lists and oracles (``workloads.make``, ``run.Loop``, ``run.check_outputs``)
and prints, per tolerance and workload, the largest |value - reference| /
tolerance the oracles computed; ``margin`` is its inverse, about 2 by the
rule the tolerances follow.  Extra solves at h and h/2 measure the
convergence order of each discretisation error.  A tolerance is set from
these numbers, never widened until a run passes.  Takes about 25 minutes on
two cores.
"""
from __future__ import annotations

import math
import shutil
import statistics
import sys

import run  # pins BLAS threads before numpy is imported

workloads = run._import_library()
import graphwave as gw  # noqa: E402

SEEDS = 30          # ground-states and cli-batch
SWEEP_SEEDS = 6     # mass-sweep: about 7 s a pass
EVOLVE_SEEDS = 15   # evolve: about 7 s a pass plus its set-up
ORDER_SEEDS = 3     # seeds with extra solves at h and h/2


def measure(name: str, n_seeds: int) -> tuple:
    """One pass of the workload per seed, checked by its oracles; returns the
    normalised errors per tolerance and the failed op count."""
    workloads.MEASURED = {}
    failed, messages = 0, []
    work = run.ROOT / ".gwbench_work" / "calibrate"
    try:
        for seed in range(n_seeds):
            shutil.rmtree(work, ignore_errors=True)
            wl = workloads.make(name, workloads.generate(name, seed), work)
            loop = run.Loop(wl.ops)
            loop.run_pass()
            wl.references()
            failed += run.check_outputs([loop], messages)
    finally:
        run.remove_work_dir(work)
    for msg in messages:
        print(f"FAILED {name}: {msg}")
    measured, workloads.MEASURED = workloads.MEASURED, None
    return measured, failed


def order(errors: list) -> float:
    return math.log2(errors[0] / errors[1])


def pass_summaries(name: str, data: dict, only=None) -> dict:
    """Op name -> summary of one pass of the workload built from ``data``,
    over the ops named in ``only`` (all when None)."""
    wl = workloads.make(name, data, None)
    loop = run.Loop([op for op in wl.ops if only is None or op.name in only])
    loop.run_pass()
    return {op: s[0] for op, s in loop.summaries.items()}


def orders() -> dict:
    """Convergence order of each discretisation error under h -> h/2."""
    out: dict = {k: [] for k in ("STAR_LAMBDA_K", "MIN_OMEGA_K", "CF_MASS_K", "MODULUS_K",
                                 "PHASE_K")}
    for seed in range(ORDER_SEEDS):
        data = workloads.generate("ground-states", seed)
        stars = [e for e in data["graphs"] if e["kind"] == "star" and e["name"] != "star-24k"]
        data["graphs"] = [dict(e, name=f"{e['name']}@{k}", h=e["h"] / k)
                          for e in stars for k in (1, 2)]
        gs = pass_summaries("ground-states", data)
        for e in stars:
            out["STAR_LAMBDA_K"].append(order(
                [abs(gs[f"ground_state:{e['name']}@{k}"]["lambda0"] - e["lambda0_exact"])
                 for k in (1, 2)]))
            out["MIN_OMEGA_K"].append(order(
                [abs(gs[f"minimize:{e['name']}@{k}"]["omega"] - e["omega"]) for k in (1, 2)]))

        cli = workloads.generate("cli-batch", seed)
        g = gw.parse_graph(cli["graph"])
        om = cli["omega_cf"]
        wave = gw.ClosedFormWave(3, cli["gamma"], 5.0, om)
        ref = gw.mass_curve(3, cli["gamma"], 5.0, om)
        out["CF_MASS_K"].append(order(
            [abs(gw.mass(gw.evaluate_wave(wave, gw.build(g, cli["coarse_h"] / k))) - ref)
             for k in (1, 2)]))

        data = workloads.generate("evolve", seed)
        coarse = next(r for r in data["runs"] if r["h"] >= 0.1)
        data["runs"] = [dict(coarse, name=f"{coarse['name']}@{k}", h=coarse["h"] / k,
                             dt=coarse["dt"] / k, n_steps=coarse["n_steps"] * k)
                        for k in (1, 2)]
        ev = pass_summaries("evolve", data, {r["name"] for r in data["runs"]})
        for field, bound in (("modulus_error", "MODULUS_K"), ("phase_error", "PHASE_K")):
            out[bound].append(order([ev[f"{coarse['name']}@{k}"][field] for k in (1, 2)]))
    return out


def main() -> int:
    print(f"library: {run.SRC / 'graphwave'}")
    conv = orders()
    failed = 0
    rows = []
    for name, n_seeds in (("ground-states", SEEDS), ("mass-sweep", SWEEP_SEEDS),
                          ("evolve", EVOLVE_SEEDS), ("cli-batch", SEEDS)):
        measured, n_failed = measure(name, n_seeds)
        failed += n_failed
        rows += [(bound, name, ratios) for bound, ratios in measured.items()]
    print(f"{'tolerance':<20} {'workload':<14} {'n':>4} {'max error/tol':>14} "
          f"{'margin':>8} {'order':>6}")
    for bound, name, ratios in sorted(rows):
        worst = max(ratios)
        o = f"{statistics.median(conv[bound]):6.2f}" if conv.get(bound) else "     -"
        margin = f"{1 / worst:8.1f}" if worst else "     inf"
        print(f"{bound:<20} {name:<14} {len(ratios):>4d} {worst:>14.3g} {margin} {o}")
    print(f"failed ops: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
