"""Run one graphwave benchmark workload and print its metrics.

    python3 gwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is one closed loop in this
process: the workload's ops run one at a time, pass after pass, until
``--seconds`` have elapsed (at least one whole pass).  Every op's output is
checked against its oracle after the timed region.  The last line of stdout
is the result object; the line before it is a report with the environment,
the inputs hash, per-op timings and oracle failures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  See
``gwbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:          # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 3

# end-to-end metrics of the result line: name -> unit
END_TO_END = {"time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics of the traced result line: name -> (layer, statistic, unit)
PER_LAYER = {
    "evolution.step.calls": ("evolution.step", "calls", "count"),
    "evolution.step.self_s": ("evolution.step", "self_s", "s"),
    "evolution.step.s_per_call": ("evolution.step", "s_per_call", "s"),
    "evolution.evolve.self_s": ("evolution.evolve", "self_s", "s"),
    "evolution.stability_experiment.self_s": ("evolution.stability_experiment", "self_s", "s"),
    "evolution.orbit_distance.self_s": ("evolution.orbit_distance", "self_s", "s"),
    "minimizers.minimize.calls": ("minimizers.minimize", "calls", "count"),
    "minimizers.minimize.self_s": ("minimizers.minimize", "self_s", "s"),
    "minimizers.minimize.iterations": ("minimizers.minimize", "iterations", "count"),
    "minimizers.minimize.s_per_iter": ("minimizers.minimize", "s_per_iter", "s"),
    "minimizers.minimize.typed_errors": ("minimizers.minimize", "typed_errors", "count"),
    "minimizers.diagnostics.self_s": ("minimizers.diagnostics", "self_s", "s"),
    "spectrum.ground_state.calls": ("spectrum.ground_state", "calls", "count"),
    "spectrum.ground_state.self_s": ("spectrum.ground_state", "self_s", "s"),
    "spectrum.ground_state.iterations": ("spectrum.ground_state", "iterations", "count"),
    "spectrum.ground_state.s_per_iter": ("spectrum.ground_state", "s_per_iter", "s"),
    "mesh.build.calls": ("mesh.build", "calls", "count"),
    "mesh.build.self_s": ("mesh.build", "self_s", "s"),
    "mesh.build.n_nodes": ("mesh.build", "n_nodes", "count"),
    "mesh.build.nnz": ("mesh.build", "nnz", "count"),
    "mesh.norms.calls": ("mesh.norms", "calls", "count"),
    "mesh.norms.self_s": ("mesh.norms", "self_s", "s"),
    "mesh.csv_read.self_s": ("mesh.csv_read", "self_s", "s"),
    "mesh.csv_read.bytes": ("mesh.csv_read", "bytes", "B"),
    "mesh.csv_write.self_s": ("mesh.csv_write", "self_s", "s"),
    "mesh.csv_write.bytes": ("mesh.csv_write", "bytes", "B"),
    "graphs.parse_graph.calls": ("graphs.parse_graph", "calls", "count"),
    "graphs.parse_graph.self_s": ("graphs.parse_graph", "self_s", "s"),
    "starwaves.mass_curve.calls": ("starwaves.mass_curve", "calls", "count"),
    "starwaves.mass_curve.self_s": ("starwaves.mass_curve", "self_s", "s"),
    "starwaves.solve_omega_for_mass.self_s": ("starwaves.solve_omega_for_mass", "self_s", "s"),
    "starwaves.evaluate_wave.self_s": ("starwaves.evaluate_wave", "self_s", "s"),
    "cli.dispatch.calls": ("cli.dispatch", "calls", "count"),
    "cli.dispatch.self_s": ("cli.dispatch", "self_s", "s"),
    "cli.subprocess_overhead_s": (None, "subprocess_overhead_s", "s"),
    "trace.overhead_ratio": (None, "overhead_ratio", "ratio"),
}


def _import_library():
    if not (SRC / "graphwave" / "__init__.py").is_file():
        sys.stderr.write(f"gwbench: no graphwave sources under {SRC}; "
                         "run from the root of a graphwave checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def timing(samples: list) -> dict:
    """Median, the highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it (None below 20 samples), and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_pct": None, "tail": None}
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            out["tail_pct"] = q
            out["tail"] = xs[max(0, math.ceil(q / 100.0 * n) - 1)]
            break
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any process it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, work_dir: Path, scale: float = 1.0):
    """Generate the inputs and build the workload (its set-up solves included)."""
    workloads = _import_library()
    import inputs

    data = workloads.generate(workload, seed, scale)
    return workloads.make(workload, data, work_dir), inputs.inputs_hash(data)


def remove_work_dir(path: Path) -> None:
    """Remove a scratch directory, and its parent once no other run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter until the first op can run."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return samples


class Loop:
    """Durations and output summaries of every op run, keyed by op name."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = {op.name: [] for op in ops}
        self.summaries = {op.name: [] for op in ops}
        self.passes = 0

    def run_op(self, op) -> None:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op failure is recorded, the loop goes on
            self.samples[op.name].append(time.perf_counter() - t0)
            self.summaries[op.name].append({"error": f"{type(exc).__name__}: {exc}"})
            return
        self.samples[op.name].append(time.perf_counter() - t0)
        self.summaries[op.name].append(op.summarize(result))

    def run_pass(self) -> None:
        for op in self.ops:
            self.run_op(op)
        self.passes += 1

    def run_for(self, seconds: float) -> None:
        """Whole first pass, then ops until the deadline."""
        deadline = time.perf_counter() + seconds
        self.run_pass()
        while time.perf_counter() < deadline:
            for op in self.ops:
                if time.perf_counter() >= deadline:
                    return
                self.run_op(op)
            self.passes += 1

    def medians(self) -> dict:
        return {name: statistics.median(xs) for name, xs in self.samples.items() if xs}

    def time_to_solution(self) -> float:
        return sum(self.medians().values())

    def attempted(self) -> int:
        return sum(len(v) for v in self.summaries.values())


def check_outputs(loops, failures: list) -> int:
    """Apply every op's oracle to every output it produced; return the count
    of failed ops and append up to 20 messages to ``failures``."""
    failed = 0
    for loop in loops:
        for op in loop.ops:
            for s in loop.summaries[op.name]:
                msgs = [f"{op.name}: {s['error']}"] if "error" in s else op.check(s)
                if msgs:
                    failed += 1
                    failures.extend(msgs[: max(0, 20 - len(failures))])
    return failed


def pooled(loop: Loop, kind: str) -> list:
    return [x for op in loop.ops if op.kind == kind for x in loop.samples[op.name]]


def end_to_end(wl, loop: Loop, setup_samples: list) -> dict:
    """Every end-to-end metric that applies to this workload, with timings."""
    tts = loop.time_to_solution()
    full = {"setup_s": ("s", timing(setup_samples)),
            "time_to_solution_s": ("s", {"value": tts, "passes": loop.passes})}
    for metric, kind in (("ground_state_s", "ground_state"), ("minimize_s", "minimize"),
                         ("cli_startup_s", "cli_startup"), ("cli_command_s", "cli")):
        xs = pooled(loop, kind)
        if xs:
            full[metric] = ("s", timing(xs))
    if wl.steps_per_pass:
        evolve_s = sum(statistics.median(loop.samples[op.name])
                       for op in loop.ops if op.kind == "evolve")
        full["cn_steps_per_s"] = ("1/s", {"value": wl.steps_per_pass / evolve_s,
                                          "steps_per_pass": wl.steps_per_pass})
    return {k: {"unit": unit, **t} for k, (unit, t) in full.items()}


def run_untraced(args, wl, work_dir: Path) -> tuple:
    setup_samples = measure_setup(args)
    loop = Loop(wl.ops)
    loop.run_for(args.seconds)
    full = end_to_end(wl, loop, setup_samples)
    metrics = {
        "time_to_solution_s": full["time_to_solution_s"]["value"],
        "setup_s": full["setup_s"]["median"],
        "peak_rss_mb": peak_rss_mb(),
    }
    full["peak_rss_mb"] = {"unit": "MB", "value": metrics["peak_rss_mb"]}
    per_op = {name: timing(xs) for name, xs in loop.samples.items() if xs}
    for name, summaries in loop.summaries.items():
        if summaries and "iterations" in summaries[0]:
            per_op[name]["iterations"] = summaries[0]["iterations"]
    return [loop], metrics, {"end_to_end": full, "ops": per_op}


def run_traced(args, wl, work_dir: Path) -> tuple:
    """Alternate untraced and traced passes; per-layer figures are per
    traced pass.  cli-batch compares its subprocess pass with the same
    commands run in-process through ``graphwave.cli.dispatch``."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain = Loop(wl.ops)
    in_process = inproc_wl = None
    if wl.name == "cli-batch":
        inproc_wl = workloads.cli_batch(wl.inputs, work_dir, in_process=True)
        in_process = Loop(inproc_wl.ops)
    traced = Loop(in_process.ops if in_process else wl.ops)
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.run_pass()
        if in_process:
            in_process.run_pass()
        with tracer:
            traced.run_pass()
        if time.perf_counter() >= deadline:
            break
    totals = tracer.layer_totals()
    stats = {}
    if in_process:
        inproc_wl.references()
        untraced_inproc = in_process.medians()
        stats["subprocess_overhead_s"] = sum(
            m - untraced_inproc[name] for name, m in plain.medians().items())
    else:
        stats["subprocess_overhead_s"] = 0.0
    traced_tts = traced.time_to_solution() + stats["subprocess_overhead_s"]
    stats["overhead_ratio"] = traced_tts / plain.time_to_solution()
    metrics = {}
    for name, (layer, stat, _unit) in PER_LAYER.items():
        if layer is None:
            metrics[name] = stats[stat]
            continue
        row = totals[layer]
        if stat == "s_per_call":
            metrics[name] = row["self_s"] / row["calls"] if row["calls"] else 0.0
        elif stat == "s_per_iter":
            its = row.get("iterations", 0)
            metrics[name] = row["self_s"] / its if its else 0.0
        else:
            metrics[name] = row.get(stat, 0) / traced.passes
    self_sum = sum(row["self_s"] for row in totals.values()) / traced.passes
    report = {
        "traced_passes": traced.passes,
        "untraced_time_to_solution_s": plain.time_to_solution(),
        "traced_time_to_solution_s": traced_tts,
        "self_time_sum_s": self_sum,
        # matches trace.overhead_ratio when the spans cover the whole pass
        "self_time_sum_over_untraced": (self_sum + stats["subprocess_overhead_s"])
        / plain.time_to_solution(),
        "layers": {k: {kk: vv / traced.passes for kk, vv in v.items()}
                   for k, v in totals.items()},
    }
    loops = [plain, traced] + ([in_process] if in_process else [])
    return loops, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in _import_library().WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    work_dir = ROOT / ".gwbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, inputs_hash = setup(args.workload, args.seed, work_dir, args.scale)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        run = run_traced if args.trace else run_untraced
        loops, metrics, detail = run(args, wl, work_dir)
        wl.references()
        failures: list = []
        failed = check_outputs(loops, failures)
    finally:
        remove_work_dir(work_dir)

    attempted = sum(loop.attempted() for loop in loops)
    units = {k: v[2] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": inputs_hash, "environment": environment(),
        "load": "closed loop, one client, one op at a time",
        "ops_failed_ratio": failed / attempted, "oracle_failures": failures, **detail,
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
