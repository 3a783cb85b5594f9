"""Self-test of the benchmark at toy sizes (about two minutes on two cores).

    python3 gwbench/selftest.py

Checks that
  * the metric names and units run.py prints match BENCHMARK.json, in both
    trace modes, every workload there exists here, and a traced toy run of
    every workload is correct;
  * the same seed gives byte-identical inputs and another seed other ones;
  * one toy pass of every workload passes its oracles, and every op's
    oracle rejects each output field it reads when that one field alone
    is corrupted;
  * without the library sources the benchmark exits non-zero and prints
    no result.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy is imported

workloads = run._import_library()
import inputs  # noqa: E402

TOY = 0.05
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    raise SystemExit(1)


def corrupt(value):
    """One number, flag or string of an op summary, changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.5 + 1
    return "corrupted"


class Reads(dict):
    """A summary that records the path of every key a check reads."""

    def __init__(self, data: dict, log: set, path: tuple = ()):
        super().__init__({k: Reads(v, log, path + (k,)) if isinstance(v, dict) else v
                          for k, v in data.items()})
        self.log, self.path = log, path

    def __getitem__(self, key):
        self.log.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(self.path + (key,))
        return super().get(key, default)


def leaves(value, path=()):
    """Paths to every number, flag and string in a summary."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, path + (i,))
    elif value is not None:
        yield path


def with_corrupted(value, path):
    if not path:
        return corrupt(value)
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: with_corrupted(v, rest) if k == head else v for k, v in value.items()}
    return [with_corrupted(v, rest) if i == head else v for i, v in enumerate(value)]


def fields_not_rejected(check, summary: dict) -> list:
    """Paths of fields the check reads but accepts when that field alone is
    corrupted; reading a list counts as reading every item."""
    log: set = set()
    check(Reads(summary, log))

    def read(path):
        value = summary
        for n, key in enumerate(path, 1):
            value = value[key]
            if path[:n] in log and (n == len(path) or isinstance(value, list)):
                return True
        return False

    return [path for path in leaves(summary)
            if read(path) and not check(with_corrupted(summary, path))]


def result_line(argv: list, cwd=run.ROOT) -> tuple:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check_names() -> None:
    if SPEC["command"] != ["python3", "gwbench/run.py"] or SPEC["paths"] != ["gwbench"]:
        fail("BENCHMARK.json command or paths changed")
    if [w["name"] for w in SPEC["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    want = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    runs = [("evolve", 0)] + [(name, 1) for name in workloads.WORKLOADS]
    for name, trace in runs:
        code, res, err = result_line(["gwbench/run.py", "--workload", name, "--seed", "1",
                                      "--seconds", "0", "--trace", str(trace),
                                      "--scale", str(TOY)])
        if code != 0 or res is None:
            fail(f"toy {name} run with --trace {trace} exited {code}: {err[-500:]}")
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(res)}")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want[trace]:
            fail(f"--trace {trace} prints {got}, BENCHMARK.json has {want[trace]}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            fail(f"toy {name} run with --trace {trace} not correct: {res}")
    print("ok   printed metric names and units match BENCHMARK.json; traced toy runs are correct")


def check_inputs() -> None:
    for name in workloads.WORKLOADS:
        a, b, other = (workloads.generate(name, s) for s in (7, 7, 8))
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            fail(f"{name}: seed 7 gave two different inputs")
        if inputs.inputs_hash(a) == inputs.inputs_hash(other):
            fail(f"{name}: seeds 7 and 8 gave the same inputs")
    gs7, gs8 = (workloads.generate("ground-states", s) for s in (7, 8))
    if [g["graph"] for g in gs7["graphs"]] == [g["graph"] for g in gs8["graphs"]]:
        fail("ground-states: another seed gave the same graphs")
    if workloads.generate("mass-sweep", 7)["masses"] == workloads.generate("mass-sweep", 8)["masses"]:
        fail("mass-sweep: another seed gave the same masses")
    print("ok   inputs are seed-deterministic and differ between seeds")


def check_oracles() -> None:
    work = run.ROOT / ".gwbench_work" / "selftest"
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, workloads.generate(name, 3, TOY), work / name)
            loop = run.Loop(wl.ops)
            loop.run_pass()
            wl.references()
            for op in wl.ops:
                (summary,) = loop.summaries[op.name]
                if "error" in summary:
                    fail(f"{name}/{op.name} raised {summary['error']}")
                msgs = op.check(summary)
                if msgs:
                    fail(f"{name}/{op.name} failed its oracle: {msgs}")
                accepted = fields_not_rejected(op.check, summary)
                if accepted:
                    fail(f"{name}/{op.name}: oracle accepts corrupted fields {accepted}")
            print(f"ok   {name}: {len(wl.ops)} ops pass their oracles and reject each "
                  "corrupted field they read")
    finally:
        run.remove_work_dir(work)


def check_without_library() -> None:
    bare = run.ROOT / ".gwbench_work" / "bare"
    try:
        shutil.copytree(run.BENCH_DIR, bare / "gwbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, res, _ = result_line(["gwbench/run.py", "--workload", "evolve", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        run.remove_work_dir(bare)
    if code == 0 or res is not None:
        fail(f"without src/ the benchmark exited {code} and printed {res}")
    print("ok   without the library it exits non-zero and prints no result")


def main() -> int:
    check_inputs()
    check_without_library()
    check_names()
    check_oracles()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
