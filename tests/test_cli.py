import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphwave
from graphwave import cli, evolution, graphs, mesh, minimizers, spectrum
from graphwave.cli import build_parser, dispatch
from graphwave.graphs import StarGraphSpec, make_star, serialize_graph

pytestmark = pytest.mark.usefixtures("monkeypatch")


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star3.json"
    path.write_text(serialize_graph(make_star(StarGraphSpec(3, 1.0, 30.0))))
    return path


def run(capsys, argv):
    argv = [str(a) for a in argv]
    code = dispatch(argv)
    out = capsys.readouterr().out
    assert_manifest_records_options(argv)
    return code, json.loads(out)


def assert_manifest_records_options(argv):
    """manifest.json's parameters are every parsed option except --out and --seed."""
    parsed = vars(build_parser().parse_args(argv))
    manifest = json.loads((Path(parsed["out"]) / "manifest.json").read_text())
    expected = {k: v for k, v in parsed.items() if k not in ("out", "seed", "command", "func")}
    assert manifest["parameters"] == json.loads(json.dumps(expected))


def test_spectrum_command(tmp_path, capsys, star_file):
    out = tmp_path / "run"
    code, payload = run(
        capsys,
        ["spectrum", star_file, "--h", "0.05", "--out", out, "--dump-psi0", "psi0.csv"],
    )
    assert code == 0
    assert payload["schema_version"] == 1
    assert abs(payload["lambda0"] - 1.0 / 9.0) < 1e-3
    assert (out / "psi0.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["schema_version"] == 1
    assert manifest["tool_version"]
    assert "seed" in manifest and "created_utc" in manifest
    assert len(manifest["graph_config_sha256"]) == 64
    assert sum(1 for p in out.iterdir() if p.name == "manifest.json") == 1


def test_minimize_feasibility_exit_code(tmp_path, capsys, star_file):
    code, payload = run(
        capsys,
        ["minimize", star_file, "--p", "6", "--c", "100", "--r", "1",
         "--h", "0.05", "--out", tmp_path / "bad"],
    )
    assert code == 1
    assert payload["error_type"] == "FeasibilityError"
    assert "r/lambda0" in payload["error"]


def test_minimize_nonconvergence_exit_code(tmp_path, capsys, star_file):
    code, payload = run(
        capsys,
        ["minimize", star_file, "--p", "6", "--c", "1.5", "--h", "0.05",
         "--tau", "1.0", "--tol", "1e-15", "--max-iter", "5",
         "--out", tmp_path / "cap"],
    )
    assert code == 2
    assert payload["error_type"] == "ConvergenceError"


def test_usage_error_exit_code(star_file):
    with pytest.raises(SystemExit) as exc:
        dispatch(["minimize", str(star_file), "--frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        dispatch(["sweep", str(star_file), "--p", "6", "--c-grid", "1:2:0"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        dispatch(["mass-curve", "--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "1:2"])
    assert exc.value.code == 64


def test_closed_form_and_mass_curve(tmp_path, capsys):
    out = tmp_path / "cf"
    code, payload = run(
        capsys,
        ["closed-form", "--N", "3", "--gamma", "1", "--p", "5", "--omega", "1",
         "--h", "0.05", "--length", "30", "--out", out],
    )
    assert code == 0
    assert payload["a_j"] == pytest.approx(0.34657359027997264)
    assert (out / "profile.csv").exists()

    out2 = tmp_path / "mc"
    code, payload = run(
        capsys,
        ["mass-curve", "--N", "3", "--gamma", "1", "--p", "6",
         "--omega-range", "0.12:1.2:9", "--out", out2],
    )
    assert code == 0
    rows = (out2 / "mass_curve.csv").read_text().strip().splitlines()
    assert len(rows) == 10  # header + 9 points
    masses = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert payload["monotone_window"]["omega_hi"] > 1.2


def test_minimize_then_evolve_and_stability(tmp_path, capsys, star_file):
    out_min = tmp_path / "min"
    code, payload = run(
        capsys,
        ["minimize", star_file, "--p", "6", "--c", "1.5", "--h", "0.05",
         "--tau", "1.0", "--out", out_min],
    )
    assert code == 0
    assert payload["diagnostics"]["positivity_ok"] is True
    assert payload["omega"] > payload["lambda0"]

    out_ev = tmp_path / "ev"
    code, payload = run(
        capsys,
        ["evolve", star_file, "--p", "6", "--h", "0.05", "--dt", "0.01",
         "--T", "0.5", "--init", out_min / "minimizer.csv", "--out", out_ev],
    )
    assert code == 0
    assert payload["mass_drift_rel"] < 1e-10
    header = (out_ev / "trace.csv").read_text().splitlines()[0]
    assert header == "t,mass,energy,sup_norm"

    out_st = tmp_path / "st"
    code, payload = run(
        capsys,
        ["stability", star_file, "--p", "6", "--h", "0.05", "--dt", "0.01",
         "--T", "0.5", "--delta", "0.01", "--ref", out_min / "minimizer.csv",
         "--out", out_st],
    )
    assert code == 0
    assert payload["sup_orbit_distance"] < 5e-2 * payload["ref_h1_norm"]
    header = (out_st / "stability.csv").read_text().splitlines()[0]
    assert header == "t,orbit_distance,mass_drift,energy_drift"


def test_validate_command(tmp_path, capsys, star_file):
    code, payload = run(
        capsys, ["validate", star_file, "--p", "5", "--h", "0.05", "--out", tmp_path / "v"]
    )
    assert code == 0
    assert payload["all_pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"lambda0_star_value", "stationarity_order_h2", "h_integral_identity"} <= names


def test_sweep_deterministic_and_parallel(tmp_path, capsys, star_file):
    argv = ["sweep", star_file, "--p", "6", "--c-grid", "1.0:2.5:3",
            "--h", "0.05", "--tau", "1.0"]
    code, _ = run(capsys, argv + ["--out", tmp_path / "a"])
    assert code == 0
    code, _ = run(capsys, argv + ["--out", tmp_path / "b"])
    assert code == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()
    code, _ = run(capsys, argv + ["--jobs", "2", "--out", tmp_path / "c"])
    assert code == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "c" / "sweep.csv"
    ).read_bytes()
    rows = (tmp_path / "a" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith(",ok") for r in rows)
    omegas = [float(r.split(",")[1]) for r in rows]
    assert omegas[0] < omegas[1] < omegas[2]
    # every minimizer sits strictly below the linear energy level
    lam0 = 1.0 / 9.0
    for r in rows:
        c, energy = float(r.split(",")[0]), float(r.split(",")[2])
        assert energy < -lam0 * c / 2.0


def test_sweep_records_per_point_failures(tmp_path, capsys, star_file):
    code, payload = run(
        capsys,
        ["sweep", star_file, "--p", "6", "--c-grid", "2.0:20.0:3",
         "--h", "0.05", "--tau", "1.0", "--out", tmp_path / "sw"],
    )
    assert code == 0
    assert payload["n_failed"] >= 1
    rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert any("FeasibilityError" in r for r in rows)
    assert any(r.endswith(",ok") for r in rows)


@pytest.mark.parametrize(
    "section, index, key, value",
    [
        ("vertices", 0, "alpha", "abc"),
        ("vertices", 0, "alpha", math.nan),
        ("edges", 0, "truncation", "x"),
        ("edges", 0, "truncation", math.inf),
        ("edges", 0, "length", "x"),
        ("edges", 0, "potential",
         {"type": "gaussian", "amplitude": math.nan, "center": 1.0, "width": 1.0}),
        ("edges", 0, "potential", {"type": "samples", "x": 1.0, "w": 2.0}),
        ("edges", 1, "id", "e1"),   # duplicate edge id
        ("edges", 0, "from", "nowhere"),
        ("edges", 0, "to", "nowhere"),
        ("edges", 0, "to", "v0"),   # a half-line with a second end
        ("edges", 0, "length", 2.0),   # a finite edge without one
        ("edges", 0, "potential", "zero"),
        ("edges", 0, "potential", {"type": "gaussian", "amplitude": 1.0}),
        ("edges", 0, "potential", {"type": "square_well", "depth": 1.0, "start": 0.0,
                                   "width": 0.0}),
        ("edges", 0, "potential", {"type": "gaussian", "amplitude": 1.0, "center": 0.0,
                                   "width": -1.0}),
        ("edges", 0, "potential", {"type": "samples", "x": [], "w": []}),
        ("edges", 0, "potential", {"type": "samples", "x": [0.0, 1.0], "w": [1.0]}),
    ],
)
def test_malformed_config_is_a_schema_error(tmp_path, capsys, section, index, key, value):
    doc = json.loads(serialize_graph(make_star(StarGraphSpec(3, 1.0, 30.0))))
    doc[section][index][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = dispatch(["spectrum", str(path), "--h", "0.5", "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error_type"] == "SchemaError"


def test_time_grid_error_exit_code(tmp_path, capsys, star_file):
    out_cf = tmp_path / "cf"
    code, _ = run(capsys, ["closed-form", "--N", "3", "--gamma", "1", "--p", "5", "--omega",
                           "1", "--h", "0.5", "--length", "30", "--out", out_cf])
    assert code == 0
    code, payload = run(
        capsys,
        ["evolve", star_file, "--p", "5", "--h", "0.5", "--dt", "0.3", "--T", "1",
         "--init", out_cf / "profile.csv", "--out", tmp_path / "ev"],
    )
    assert code == 1
    assert payload["error_type"] == "DomainError"


@pytest.mark.parametrize("command", ["spectrum", "evolve"])
def test_input_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys, star_file, command):
    # the UnicodeDecodeError was a traceback, exit 1 and nothing on stdout
    bad = tmp_path / "bad"
    if command == "spectrum":
        bad.write_bytes(b'\xff\xfe{"vertices": [], "edges": []}')
        argv = ["spectrum", bad, "--h", "0.5"]
    else:
        bad.write_bytes(bytes(range(256)) + b"\x00\xff" * 22)   # 300 bytes of binary
        argv = ["evolve", star_file, "--p", "5", "--h", "0.5", "--dt", "0.25", "--T", "0.5",
                "--init", bad]
    code, payload = dispatch_json(capsys, [*argv, "--out", tmp_path / "o"])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert f"{bad}: not UTF-8 text" in payload["error"]


@pytest.mark.filterwarnings("error")
def test_closed_form_refuses_an_overflowing_mass_without_warnings(tmp_path, capsys):
    # the mass and energy overflowed with three RuntimeWarnings before the refusal
    code, payload = run(capsys, ["closed-form", "--N", "1000", "--gamma", "1", "--p", "1.01",
                                 "--omega", "33.9", "--h", "0.5", "--length", "40",
                                 "--out", tmp_path / "cf"])
    assert code == 1
    assert payload["error_type"] == "DomainError" and "mass inf" in payload["error"]


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_time_step_defaults_to_half_the_grid_step(tmp_path, capsys, star_file, command):
    cf = tmp_path / "cf"
    run(capsys, ["closed-form", "--N", "3", "--gamma", "1", "--p", "6", "--omega", "1",
                 "--h", "0.5", "--length", "30", "--out", cf])
    out = tmp_path / command
    argv = ([command, star_file, "--p", "6", "--h", "0.5", "--T", "2.5"]
            + (["--init", cf / "profile.csv", "--sample-every", "1"] if command == "evolve"
               else ["--delta", "0.01", "--ref", cf / "profile.csv"]))
    code, _ = dispatch_json(capsys, [*argv, "--out", out])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["dt"] == 0.25
    with open(out / ("trace.csv" if command == "evolve" else "stability.csv")) as fh:
        times = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    assert times == pytest.approx([0.25 * k for k in range(11)], abs=1e-12)


def test_spectrum_refuses_a_grid_step_floats_cannot_resolve(tmp_path, capsys):
    graph = tmp_path / "tiny.json"
    graph.write_text(serialize_graph(make_star(StarGraphSpec(3, 1.0, 1e-100))))
    code, payload = run(capsys, ["spectrum", graph, "--h", "1.25e-101", "--out", tmp_path / "sp"])
    assert code == 1
    assert payload["error_type"] == "DomainError" and "h=1.25e-101" in payload["error"]


def test_missing_input_files_are_configuration_errors(tmp_path, capsys, star_file):
    missing = tmp_path / "missing.json"
    code = dispatch(["spectrum", str(missing), "--out", str(tmp_path / "sp")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert str(missing) in payload["error"]

    nope = tmp_path / "nope.csv"
    code, payload = run(
        capsys,
        ["evolve", star_file, "--p", "5", "--h", "0.5", "--dt", "0.5", "--T", "1",
         "--init", nope, "--out", tmp_path / "ev"],
    )
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert str(nope) in payload["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "option, value",
    [("--tau", "0"), ("--tau", "-1"), ("--tau", "nan"), ("--tau", "inf"),
     ("--tol", "0"), ("--tol", "nan"), ("--p", "nan"), ("--p", "4"),
     ("--p", "inf"), ("--tol", "inf"), ("--r", "inf"), ("--max-iter", "0"),
     ("--max-iter", "-1")],
)
def test_minimize_bad_numbers_are_domain_errors(tmp_path, capsys, monkeypatch, star_file,
                                                option, value):
    def not_reached(*args, **kwargs):
        raise AssertionError("arguments must be checked before any solve")

    monkeypatch.setattr(minimizers, "ground_state", not_reached)
    monkeypatch.setattr(minimizers, "Elimination", not_reached)
    argv = {"--p": "6", "--c": "1.5", "--h": "0.5", "--tau": "1.0", "--tol": "1e-8"}
    argv[option] = value
    code, payload = run(
        capsys, ["minimize", star_file, *sum(argv.items(), ()), "--out", tmp_path / "m"]
    )
    assert code == 1
    assert payload["error_type"] == "DomainError"


def test_sweep_jobs_bounds(tmp_path, capsys, monkeypatch, star_file):
    def no_workers(*args, **kwargs):
        raise AssertionError("no worker may start for an out-of-range --jobs")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_workers)
    argv = ["sweep", star_file, "--p", "6", "--c-grid", "1.0:2.0:3", "--h", "0.5",
            "--tau", "1.0"]
    # 100000000000 does not fit a C int, so it must be refused before any pool exists
    for jobs in ("0", "-3", str(cli.MAX_JOBS + 1), "100000000000"):
        code, payload = run(capsys, argv + ["--jobs", jobs, "--out", tmp_path / f"j{jobs}"])
        assert code == 1
        assert payload["error_type"] == "ConfigurationError"
        assert str(cli.MAX_JOBS) in payload["error"]

    # in range, the pool is never larger than the number of points
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, _ = run(capsys, argv + ["--jobs", str(cli.MAX_JOBS), "--out", tmp_path / "max"])
    assert code == 0
    assert sizes == [3]


def test_grid_node_limit(tmp_path, capsys, monkeypatch, star_file):
    # 1e-320 makes the cell count overflow to inf
    code, payload = run(capsys, ["spectrum", star_file, "--h", "1e-320",
                                 "--out", tmp_path / "tiny"])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    # the 3-star of truncation 30 at h = 0.5 has 3 * 59 + 1 = 178 nodes
    monkeypatch.setattr(mesh, "MAX_NODES", 177)
    code, payload = run(capsys, ["spectrum", star_file, "--h", "0.5",
                                 "--out", tmp_path / "limit"])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert "above the limit 177" in payload["error"]


@pytest.mark.parametrize("option, value", [("--tau", "0"), ("--tol", "nan"), ("--p", "3"),
                                           ("--p", "inf"), ("--tol", "inf"), ("--r", "inf"),
                                           ("--max-iter", "0")])
def test_sweep_bad_arguments_exit_1(tmp_path, capsys, monkeypatch, star_file, option, value):
    # an argument error is common to every point, so it fails the run, not rows
    def not_reached(*args, **kwargs):
        raise AssertionError("arguments must be checked before any worker or solve")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", not_reached)
    monkeypatch.setattr(spectrum, "ground_state", not_reached)
    argv = {"--p": "6", "--c-grid": "1.0:2.0:3", "--h": "0.5", "--tau": "1.0",
            "--tol": "1e-8", "--jobs": "2"}
    argv[option] = value
    code, payload = run(capsys, ["sweep", star_file, *sum(argv.items(), ()),
                                 "--out", tmp_path / "sw"])
    assert code == 1
    assert payload["error_type"] == "DomainError"
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def _no_constant(name):
    raise ValueError(f"{name} in stdout is not JSON")


STAR = ["closed-form", "--N", "3", "--gamma", "1", "--h", "0.5", "--length", "20"]
CURVE = ["mass-curve", "--N", "3", "--gamma", "1", "--omega-range", "0.2:0.5:3"]


@pytest.mark.parametrize("argv", [
    STAR + ["--p", "1", "--omega", "1"],
    STAR + ["--p", "inf", "--omega", "1"],
    STAR + ["--p", "5", "--omega", "inf"],
    CURVE + ["--p", "1"],
    CURVE + ["--p", "-1"],
    CURVE + ["--p", "inf"],
    CURVE + ["--p", "5", "--N", "0"],
    CURVE + ["--p", "5", "--gamma", "0"],
    CURVE + ["--p", "5", "--omega-range", "0.2:inf:3"],
    ["sweep", "GRAPH", "--p", "6", "--c-grid", "0.2:inf:3", "--h", "0.5"],
    ["validate", "GRAPH", "--p", "inf", "--h", "0.5"],
    STAR + ["--p", "5", "--omega", "1", "--gamma", "1e308"],
    CURVE + ["--p", "5", "--gamma", "1e308"],
    CURVE + ["--p", "5", "--gamma", "1e-308"],
    STAR + ["--p", "5", "--omega", "1e308"],
    STAR + ["--p", "5", "--omega", "5e307"],
], ids=["closed-form-p-1", "closed-form-p-inf", "closed-form-omega-inf", "mass-curve-p-1",
        "mass-curve-p-minus-1", "mass-curve-p-inf", "mass-curve-N-0", "mass-curve-gamma-0",
        "mass-curve-range-inf", "sweep-range-inf", "validate-p-inf", "closed-form-gamma-1e308",
        "mass-curve-gamma-1e308", "mass-curve-gamma-1e-308", "closed-form-omega-1e308",
        "closed-form-omega-5e307"])
def test_star_and_range_numbers_are_refused(tmp_path, capsys, star_file, argv):
    # a typed error (exit 1) or a usage error (exit 64), never a traceback,
    # a NaN or Infinity on stdout, or a run other than the one asked
    argv = [str(star_file) if a == "GRAPH" else a for a in argv]
    try:
        code = dispatch(argv + ["--out", str(tmp_path / "o")])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (1, 64)
    if code == 64:
        assert out == ""
    else:
        assert "error_type" in json.loads(out, parse_constant=_no_constant)


def test_minimize_reports_newton_steps(tmp_path, capsys, star_file):
    code, payload = run(
        capsys,
        ["minimize", star_file, "--p", "6", "--c", "1.5", "--h", "0.05",
         "--out", tmp_path / "m"],
    )
    assert code == 0
    assert payload["newton_steps"] >= 1
    assert payload["gradient_residual"] <= 1e-8


def test_only_spectrum_computes_the_gap(tmp_path, capsys, monkeypatch, star_file):
    def not_reached(*args, **kwargs):
        raise AssertionError("only the spectrum command needs the spectral gap")

    monkeypatch.setattr(spectrum, "spectral_gap", not_reached)
    grid = ["--h", "0.25"]
    runs = [
        ["minimize", star_file, "--p", "6", "--c", "1.5", "--tau", "1.0", *grid],
        ["evolve", star_file, "--p", "6", "--dt", "0.01", "--T", "0.1",
         "--init", tmp_path / "0" / "minimizer.csv", *grid],
        ["stability", star_file, "--p", "6", "--dt", "0.01", "--T", "0.1", "--delta", "0.01",
         "--mode", "eigenfunction-bump", "--ref", tmp_path / "0" / "minimizer.csv", *grid],
        ["validate", star_file, "--p", "5", *grid],
        ["sweep", star_file, "--p", "6", "--c-grid", "1.0:2.0:2", "--tau", "1.0", *grid],
    ]
    for k, argv in enumerate(runs):
        code, _ = run(capsys, argv + ["--out", tmp_path / str(k)])
        assert code == 0, argv[0]
    # the patch is on the path the spectrum command takes
    with pytest.raises(AssertionError, match="only the spectrum command"):
        dispatch([str(a) for a in ["spectrum", star_file, *grid, "--out", tmp_path / "s"]])


def python_with_graphwave(code, *args):
    """Run `python -c code args...` in a fresh interpreter that imports this
    graphwave; returns the CompletedProcess."""
    src = str(Path(graphwave.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_does_not_load_quadrature_or_root_finding():
    # scipy costs start-up time for every command: the sparse and linear
    # algebra modules are imported where a grid is built or factored, and
    # no command needs scipy's quadrature or root finding
    code = ("import sys, graphwave.cli; print([m for m in ('scipy.integrate', "
            "'scipy.optimize', 'scipy.sparse', 'scipy.linalg') if m in sys.modules])")
    out = python_with_graphwave(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_mass_to_frequency_loads_no_scipy():
    code = ("import sys, graphwave\n"
            "omega = graphwave.solve_omega_for_mass(3, 1.0, 6.0, 2.0, (0.12, 1.2))\n"
            "print(omega, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = python_with_graphwave(code)
    assert out.returncode == 0, out.stderr
    omega, modules = out.stdout.split(" ", 1)
    assert 0.12 < float(omega) < 1.2
    assert modules.strip() == "[]"


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["minimize", "--bogus"], 64),
    (["mass-curve", "--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "0.2:2:5"], 0),
])
def test_commands_without_a_grid_load_no_scipy(tmp_path, argv, code):
    script = ("import sys\n"
              "from graphwave.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
              "sys.exit(code)\n")
    extra = ["--out", tmp_path] if argv[0] == "mass-curve" else []
    out = python_with_graphwave(script, *argv, *extra)
    assert out.returncode == code, out.stderr
    assert out.stderr.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_non_finite_exponent_is_a_domain_error_naming_p(tmp_path, capsys, star_file, command):
    # a NaN exponent must not reach the factor, where it reads as a singular matrix
    out_cf = tmp_path / "cf"
    code, _ = run(capsys, ["closed-form", "--N", "3", "--gamma", "1", "--p", "5", "--omega",
                           "1", "--h", "0.5", "--length", "30", "--out", out_cf])
    assert code == 0
    profile = "--init" if command == "evolve" else "--ref"
    argv = [command, star_file, "--p", "nan", "--h", "0.5", "--dt", "0.5", "--T", "1",
            profile, out_cf / "profile.csv", "--out", tmp_path / command]
    if command == "stability":
        argv += ["--delta", "0.01"]
    code, payload = run(capsys, argv)
    assert code == 1
    assert payload["error_type"] == "DomainError"
    assert "p=nan" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["mass-curve", "--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "0.2:2:100000000000"],
    ["sweep", "STAR", "--p", "6", "--c-grid", "1:2:100000000000", "--h", "0.5"],
])
def test_oversized_point_ranges_are_configuration_errors(tmp_path, capsys, star_file, argv):
    # refused on the count, before np.geomspace allocates 800 GB
    argv = [star_file if a == "STAR" else a for a in argv]
    code, payload = run(capsys, argv + ["--out", tmp_path / "big"])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert f"above the limit {cli.MAX_POINTS}" in payload["error"]


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_step_count_over_the_cap_is_refused_before_any_step(tmp_path, capsys, monkeypatch,
                                                            grid_command_inputs, command):
    def not_reached(*args, **kwargs):
        raise AssertionError("the step count must be checked before the first step")

    monkeypatch.setattr(evolution, "step", not_reached)
    profile = "--init" if command == "evolve" else "--ref"
    argv = [command, grid_command_inputs / "star3.json", "--p", "5", "--h", "0.5",
            "--dt", "1e-300", "--T", "1", profile, grid_command_inputs / "profile.csv",
            "--out", tmp_path / command]
    if command == "stability":
        argv += ["--delta", "0.01"]
    code, payload = run(capsys, argv)
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert f"above the limit {evolution.MAX_STEPS}" in payload["error"]


@pytest.fixture(scope="module")
def grid_command_inputs(tmp_path_factory):
    """A 3-star config and a standing-wave profile on its h = 0.5 grid."""
    where = tmp_path_factory.mktemp("grid_inputs")
    (where / "star3.json").write_text(serialize_graph(make_star(StarGraphSpec(3, 1.0, 30.0))))
    assert dispatch(["closed-form", "--N", "3", "--gamma", "1", "--p", "6", "--omega", "1",
                     "--h", "0.5", "--length", "30", "--out", str(where)]) == 0
    return where


@pytest.mark.parametrize("argv", [
    ["spectrum", "STAR"],
    ["minimize", "STAR", "--p", "6", "--c", "1.5", "--tau", "1"],
    ["closed-form", "--N", "3", "--gamma", "1", "--p", "6", "--omega", "1", "--length", "30"],
    ["evolve", "STAR", "--p", "6", "--dt", "0.25", "--T", "0.5", "--init", "PROFILE"],
    ["stability", "STAR", "--p", "6", "--dt", "0.25", "--T", "0.5", "--delta", "0.01",
     "--ref", "PROFILE"],
    ["validate", "STAR", "--p", "5"],
    ["sweep", "STAR", "--p", "6", "--c-grid", "1:2:2", "--tau", "1", "--jobs", "1"],
])
def test_grid_commands_load_only_scipys_lapack_module(tmp_path, grid_command_inputs, argv):
    # the form is held as arrays, LAPACK is loaded from its extension
    # module's file and the spectral gap is a numpy Lanczos: no grid command
    # imports a scipy package
    names = {"STAR": grid_command_inputs / "star3.json",
             "PROFILE": grid_command_inputs / "profile.csv"}
    script = ("import sys\n"
              "from graphwave.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)\n"
              "sys.exit(code)\n")
    out = python_with_graphwave(script, *(names.get(a, a) for a in argv),
                                "--h", "0.5", "--out", tmp_path)
    assert out.returncode == 0, out.stderr
    # closed-form factors nothing and loads no scipy module at all
    assert out.stderr.strip().splitlines()[-1] in ("[]", "['scipy.linalg._flapack']")


# one run per command on the 3-star at h = 0.5 (GRAPH and PROFILE stand for
# grid_command_inputs' files); minimize and sweep stop after 200 iterations
OPTION_SWEEP_BASE = {
    "spectrum": ["GRAPH", "--h", "0.5"],
    "minimize": ["GRAPH", "--p", "6", "--c", "1.5", "--h", "0.5", "--max-iter", "200"],
    "closed-form": ["--N", "3", "--gamma", "1", "--p", "6", "--omega", "1", "--h", "0.5",
                    "--length", "30"],
    "mass-curve": ["--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "0.2:0.5:3"],
    "evolve": ["GRAPH", "--p", "6", "--h", "0.5", "--dt", "0.25", "--T", "0.5",
               "--init", "PROFILE"],
    "stability": ["GRAPH", "--p", "6", "--h", "0.5", "--dt", "0.25", "--T", "0.5",
                  "--delta", "0.01", "--ref", "PROFILE"],
    "validate": ["GRAPH", "--p", "5", "--h", "0.5"],
    "sweep": ["GRAPH", "--p", "6", "--c-grid", "1:2:2", "--h", "0.5", "--max-iter", "200"],
}


def numeric_options():
    """(command, option) for every option the parser reads as a number or a
    lo:hi:n range."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    return [(name, a.option_strings[0]) for name, sp in commands.items() for a in sp._actions
            if a.type in (int, float, cli._range_triplet)]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308"])
@pytest.mark.parametrize("command, option", numeric_options())
def test_every_numeric_option_ends_in_a_documented_exit(tmp_path, capsys, grid_command_inputs,
                                                         command, option, value):
    # every extreme number ends as a result, a typed error or a usage error:
    # no traceback, no other exit code, and no NaN or Infinity on stdout
    argv = list(OPTION_SWEEP_BASE[command])
    if option in ("--omega-range", "--c-grid"):   # the range's upper end
        lo, _, n = argv[argv.index(option) + 1].split(":")
        value = f"{lo}:{value}:{n}"
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    names = {"GRAPH": grid_command_inputs / "star3.json",
             "PROFILE": grid_command_inputs / "profile.csv"}
    argv = [command, *(str(names.get(a, a)) for a in argv), "--out", str(tmp_path)]
    try:
        code = dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 64)
    if code == 64:
        assert out == ""
    else:
        json.loads(out, parse_constant=_no_constant)


@pytest.mark.parametrize("command, extra, named", [
    ("closed-form", ["--p", "1e308"], "p=1e+308"),
    ("minimize", ["--p", "1e308"], "p=1e+308"),
    ("sweep", ["--p", "1e308"], "p=1e+308"),
    ("evolve", ["--p", "1e308"], "p=1e+308"),
    ("stability", ["--p", "1e308"], "p=1e+308"),
    ("stability", ["--mode", "multiplicative-noise", "--seed", "-1"], "seed=-1"),
    ("mass-curve", ["--gamma", "1e-160"], "gamma=1e-160"),
    ("stability", ["--delta", "1e308"], "delta=1e+308"),
    ("stability", ["--delta", "inf"], "delta=inf"),
    ("stability", ["--mode", "multiplicative-noise", "--delta", "1e308"], "delta=1e+308"),
    ("stability", ["--mode", "multiplicative-noise", "--delta", "inf"], "delta=inf"),
    ("closed-form", ["--omega", "1e308"], "omega=1e+308"),
    ("closed-form", ["--omega", "5e307"], "omega=5e+307"),
], ids=["closed-form-p-1e308", "minimize-p-1e308", "sweep-p-1e308", "evolve-p-1e308",
        "stability-p-1e308", "stability-noise-seed-minus-1", "mass-curve-gamma-1e-160",
        "stability-delta-1e308", "stability-delta-inf", "stability-noise-delta-1e308",
        "stability-noise-delta-inf", "closed-form-omega-1e308", "closed-form-omega-5e307"])
def test_meaningless_numbers_are_refused_naming_the_option(tmp_path, capsys, grid_command_inputs,
                                                          command, extra, named):
    # each number parses but means nothing: at p = 1e308 |u|^{p-1} underflows
    # (a box profile, a linear "minimizer"), a negative seed seeds no
    # generator, gamma = 1e-160 gives a subnormal threshold, a delta of 1e308
    # or inf gives a start whose mass overflows (it was rescaled to the zero
    # function, or to NaN), and omega = 5e307 gives a peak whose power p+1
    # overflows (refused only after the grid had computed inf and NaN)
    argv = list(OPTION_SWEEP_BASE[command])
    for option, value in zip(extra[::2], extra[1::2]):
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
    names = {"GRAPH": grid_command_inputs / "star3.json",
             "PROFILE": grid_command_inputs / "profile.csv"}
    code, payload = run(capsys, [command, *(names.get(a, a) for a in argv),
                                 "--out", tmp_path])
    assert code == 1
    assert payload["error_type"] == "DomainError" and named in payload["error"]


PACKAGE_ONLY = ["graphwave", "graphwave.cli", "graphwave.errors"]
GRID = ["graphwave.graphs", "graphwave.mesh"]


@pytest.mark.parametrize("argv, code, modules, numpy", [
    (["--version"], 0, PACKAGE_ONLY, False),
    (["minimize", "--bogus"], 64, PACKAGE_ONLY, False),
    (["mass-curve", "--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "0.2:2:5",
      "--out", "OUT"], 0, PACKAGE_ONLY + ["graphwave.starwaves"], True),
    (["sweep", "STAR", "--p", "6", "--c-grid", "1:2:2", "--tau", "1", "--jobs", "1",
      "--h", "0.5", "--out", "OUT"], 0,
     PACKAGE_ONLY + GRID + ["graphwave.minimizers", "graphwave.spectrum"], True),
])
def test_commands_import_only_what_they_run(tmp_path, grid_command_inputs, argv, code, modules,
                                            numpy):
    # --version and usage errors print before numpy would load, and the
    # process pool's module loads only when a sweep starts workers
    names = {"STAR": grid_command_inputs / "star3.json", "OUT": tmp_path}
    script = ("import sys\n"
              "from graphwave.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'graphwave'),\n"
              "      'numpy' in sys.modules, 'concurrent.futures.process' in sys.modules,\n"
              "      file=sys.stderr)\n"
              "sys.exit(code)\n")
    out = python_with_graphwave(script, *(names.get(a, a) for a in argv))
    assert out.returncode == code, out.stderr
    assert out.stderr.strip().splitlines()[-1] == f"{sorted(modules)} {numpy} False"


def test_factor_is_bit_identical_through_either_lapack_loader():
    # one process takes LAPACK from the extension module's file, the other
    # through scipy.linalg.get_lapack_funcs, as when the file is not found;
    # factor_solve's ?gtsv is loaded the same way
    script = ("import hashlib, sys\n"
              "import numpy as np\n"
              "from graphwave import mesh\n"
              "from graphwave.graphs import StarGraphSpec, make_star\n"
              "if sys.argv[1] == 'fallback':   # no file found: get_lapack_funcs\n"
              "    import importlib.machinery\n"
              "    importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
              "d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.05)\n"
              "rng = np.random.default_rng(1)\n"
              "b = rng.standard_normal((d.n_nodes, 2))\n"
              "s = d.m * rng.uniform(-1.0, 1.0, d.n_nodes)\n"
              "def factored(shift):\n"
              "    solve = mesh.Elimination(d, shift.dtype)\n"
              "    solve.refactor(shift)\n"
              "    return solve\n"
              "def solved(solve, x):\n"
              "    x = x.astype(solve.dtype)\n"
              "    solve.solve_in_place(x)\n"
              "    return x\n"
              "below = factored(s + 2.0 * d.m)   # A + M > 0: LDL^T\n"
              "real = factored(s - 2.0 * d.m)    # T indefinite: ?gttrf\n"
              "cplx = factored(s - 2j * d.m)\n"
              "assert below.definite and not real.definite\n"
              "fused = mesh.Elimination(d, complex).factor_solve(s - 2j * d.m, 1j * d.m,\n"
              "                                                  b[:, 0] + 1j * b[:, 1])\n"
              "out = [solved(below, b), solved(real, b), solved(cplx, b + 1j * b[:, ::-1]),\n"
              "       fused, np.array([below.n_negative(), real.n_negative()])]\n"
              "print(hashlib.sha256(b''.join(x.tobytes() for x in out)).hexdigest(),\n"
              "      'scipy.linalg' in sys.modules)\n")
    by_file, fallback = (python_with_graphwave(script, mode) for mode in ("file", "fallback"))
    assert by_file.returncode == 0, by_file.stderr
    assert fallback.returncode == 0, fallback.stderr
    (digest, package), (digest_fb, package_fb) = (
        out.stdout.split() for out in (by_file, fallback))
    assert digest == digest_fb
    assert (package, package_fb) == ("False", "True")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, column, bad", [
    (["minimize", "--p", "6", "--c", "1.5", "--tau", "1", "--init"], "re", "nan"),
    (["evolve", "--p", "5", "--dt", "0.25", "--T", "0.5", "--init"], "im", "inf"),
    (["stability", "--p", "6", "--dt", "0.25", "--T", "0.5", "--delta", "0.01", "--ref"],
     "re", "nan"),
])
def test_non_finite_function_csv_is_a_schema_error(tmp_path, capsys, star_file, argv, column,
                                                   bad):
    # refused at load, naming where; it had reached the flow ("diverged",
    # with a NaN residual in the JSON) or the factor ("singular: pivot nan")
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    good, path = tmp_path / "good.csv", tmp_path / "bad.csv"
    mesh.save_function_csv(mesh.GraphFunction(d, np.full(d.n_nodes, 0.1, complex)), good)
    with good.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    target = next(row for row in rows if row["edge_id"] == "e2" and float(row["x"]) == 1.5)
    target[column] = bad
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["edge_id", "x", "re", "im"])
        writer.writeheader()
        writer.writerows(rows)
    command, *options = argv
    code, payload = run(capsys, [command, star_file, "--h", "0.5", *options, path,
                                 "--out", tmp_path / command])
    assert code == 1
    assert payload["error_type"] == "SchemaError"
    assert "'e2'" in payload["error"] and "x = 1.5" in payload["error"]


@pytest.mark.parametrize("value", [1e300, 0.0], ids=["squares-overflow", "zero"])
def test_minimize_refuses_an_init_it_cannot_rescale_to_mass_c(tmp_path, capsys, star_file,
                                                               value):
    # entries of 1e300 are finite, but their squares overflow: the mass was
    # inf, the start was scaled to the zero function, and the run exited 0
    # with a zero "minimizer"
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    path, out = tmp_path / "init.csv", tmp_path / "m"
    mesh.save_function_csv(mesh.GraphFunction(d, np.full(d.n_nodes, value, complex)), path)
    code, payload = run(capsys, ["minimize", star_file, "--p", "6", "--c", "1.5", "--h", "0.5",
                                 "--tau", "1", "--init", path, "--out", out])
    assert code == 1
    assert payload["error_type"] == "DomainError" and "init has mass" in payload["error"]
    assert not (out / "minimizer.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, named", [
    (["evolve", "--p", "6", "--dt", "0.25", "--T", "0.5", "--init"],
     "the start u0 has mass inf"),
    (["stability", "--p", "6", "--dt", "0.25", "--T", "0.5", "--delta", "0.01", "--ref"],
     "the reference profile (ref) has mass inf"),
])
def test_a_start_whose_squares_overflow_is_refused_naming_it(tmp_path, capsys, star_file, argv,
                                                              named):
    # entries of 1e300 are finite, but their squares overflow: evolve blamed
    # the matrix ("singular: pivot nan") and stability blamed delta, each
    # after RuntimeWarnings
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    path = tmp_path / "big.csv"
    mesh.save_function_csv(mesh.GraphFunction(d, np.full(d.n_nodes, 1e300, complex)), path)
    command, *options = argv
    code, payload = run(capsys, [command, star_file, "--h", "0.5", *options, path,
                                 "--out", tmp_path / command])
    assert code == 1
    assert payload["error_type"] == "DomainError" and named in payload["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, named", [
    (["minimize", "--p", "50", "--c", "7", "--r", "3", "--h", "0.2", "--tau", "5e-324"],
     "tau=5e-324"),
    (["sweep", "--p", "50", "--c-grid", "1:7:2", "--r", "3", "--h", "0.2", "--tau", "5e-324"],
     "tau=5e-324"),
    (["validate", "--p", "1.0000001", "--h", "0.2"], "needs 5 <= p <= 50"),
])
def test_a_tau_or_p_found_by_extreme_values_is_refused_without_a_warning(tmp_path, capsys,
                                                                         star_file, argv, named):
    # m / tau overflowed before minimize blamed the matrix ("pivot inf"), and
    # validate divided by the zero sup norm of a wave sampled at p = 1.0000001
    # before the mass curve refused p: each a RuntimeWarning first
    command, *options = argv
    code, payload = run(capsys, [command, star_file, *options, "--out", tmp_path / command])
    assert code == 1
    assert payload["error_type"] == "DomainError" and named in payload["error"]


def test_closed_form_refuses_an_oversized_star_before_building_it(tmp_path, capsys, monkeypatch):
    # 10^9 edges would be tens of GB of Edge objects before build's check
    def not_reached(*args, **kwargs):
        raise AssertionError("the node count must be checked before the star is built")

    monkeypatch.setattr(graphs, "make_star", not_reached)
    code, payload = run(capsys, ["closed-form", "--N", "1000000000", "--gamma", "1",
                                 "--p", "5", "--omega", "1", "--out", tmp_path / "cf"])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert f"nodes, above the limit {mesh.MAX_NODES}" in payload["error"]


def test_convergence_failure_leaves_its_history(tmp_path, capsys, star_file):
    out = tmp_path / "cap"
    code, payload = run(
        capsys,
        ["minimize", star_file, "--p", "6", "--c", "1.5", "--h", "0.05",
         "--tau", "1.0", "--tol", "1e-15", "--max-iter", "5", "--out", out],
    )
    assert code == 2
    assert payload["error_type"] == "ConvergenceError"
    with (out / "convergence_history.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
    assert float(rows[-1][1]) == payload["residual"]


def test_spectral_gap_step_cap_exits_2(tmp_path, capsys, monkeypatch, star_file):
    monkeypatch.setattr(spectrum, "_MAX_LANCZOS", 5)
    out = tmp_path / "s"
    code, payload = run(capsys, ["spectrum", star_file, "--h", "0.5", "--out", out])
    assert code == 2
    assert payload["error_type"] == "ConvergenceError"
    assert "5 steps" in payload["error"]
    # the Lanczos keeps no residual history, so no file stands for one
    assert not (out / "convergence_history.csv").exists()


def write_function_csv_with(path, extra_row):
    """A constant profile on the h = 0.5 3-star, with extra_row appended."""
    d = mesh.build(make_star(StarGraphSpec(3, 1.0, 30.0)), 0.5)
    mesh.save_function_csv(mesh.GraphFunction(d, np.full(d.n_nodes, 0.1, complex)), path)
    with path.open("a", newline="") as fh:
        csv.writer(fh).writerow(extra_row)
    return path


def test_repeated_function_csv_row_is_a_schema_error(tmp_path, capsys, star_file):
    # a concatenated file used to load silently, the later row winning
    path = write_function_csv_with(tmp_path / "init.csv", ["e2", "1.5", "7.0", "0.0"])
    code, payload = run(capsys, ["evolve", star_file, "--p", "5", "--h", "0.5", "--dt", "0.25",
                                 "--T", "0.5", "--init", path, "--out", tmp_path / "ev"])
    assert code == 1
    assert payload["error_type"] == "SchemaError"
    assert "'e2'" in payload["error"] and "x = 1.5" in payload["error"]


def test_function_csv_row_of_an_unknown_edge_is_a_schema_error(tmp_path, capsys, star_file):
    path = write_function_csv_with(tmp_path / "ref.csv", ["zz", "0.0", "1.0", "0.0"])
    code, payload = run(capsys, ["stability", star_file, "--p", "6", "--h", "0.5", "--dt",
                                 "0.25", "--T", "0.5", "--delta", "0.01", "--ref", path,
                                 "--out", tmp_path / "st"])
    assert code == 1
    assert payload["error_type"] == "SchemaError"
    assert "'zz'" in payload["error"]


def dispatch_json(capsys, argv):
    """dispatch's exit code and its stdout, which must be one JSON object."""
    code = dispatch([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def test_out_naming_an_existing_file_is_a_configuration_error(tmp_path, capsys, star_file):
    # mkdir raised FileExistsError: a traceback, exit 1 and nothing on stdout
    taken = tmp_path / "taken"
    taken.write_text("")
    code, payload = dispatch_json(capsys, ["spectrum", star_file, "--h", "0.5", "--out", taken])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError" and str(taken) in payload["error"]


def test_dump_psi0_into_a_missing_directory_is_refused_before_the_solve(tmp_path, capsys,
                                                                         star_file, monkeypatch):
    # the FileNotFoundError came after the whole solve had run
    def not_reached(*args, **kwargs):
        raise AssertionError("the --dump-psi0 directory must be checked before the solve")

    monkeypatch.setattr(spectrum, "ground_state", not_reached)
    out = tmp_path / "s"
    code, payload = dispatch_json(capsys, ["spectrum", star_file, "--h", "0.5",
                                           "--dump-psi0", "sub/psi0.csv", "--out", out])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert str(out / "sub" / "psi0.csv") in payload["error"]


MASS_CURVE = ["mass-curve", "--N", "3", "--gamma", "1", "--p", "6", "--omega-range", "0.2:0.5:3"]


@pytest.mark.parametrize("argv, blocked", [
    (MASS_CURVE, "manifest.json"),
    (MASS_CURVE, "mass_curve.csv"),   # the table writer
    (["closed-form", "--N", "3", "--gamma", "1", "--p", "6", "--omega", "1", "--h", "0.5",
      "--length", "30"], "profile.csv"),   # save_function_csv
    (["minimize", "STAR", "--p", "6", "--c", "1.5", "--h", "0.05", "--tau", "1", "--tol",
      "1e-15", "--max-iter", "5"], "convergence_history.csv"),   # written on a ConvergenceError
], ids=["manifest", "table", "function", "history"])
def test_an_output_file_that_cannot_be_written_is_a_configuration_error(tmp_path, capsys,
                                                                         grid_command_inputs,
                                                                         argv, blocked):
    # a directory where the file goes: the IsADirectoryError was a traceback
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    argv = [grid_command_inputs / "star3.json" if a == "STAR" else a for a in argv]
    code, payload = dispatch_json(capsys, [*argv, "--out", out])
    assert code == 1
    assert payload["error_type"] == "ConfigurationError"
    assert str(out / blocked) in payload["error"]


def test_spectrum_leaves_numpy_random_unloaded(tmp_path, grid_command_inputs):
    # the Lanczos start is a fixed hash of the node numbers, not a seeded draw
    script = ("import sys\n"
              "from graphwave.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('numpy.random' in sys.modules, file=sys.stderr)\n"
              "sys.exit(code)\n")
    out = python_with_graphwave(script, "spectrum", grid_command_inputs / "star3.json",
                                "--h", "0.5", "--out", tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip().splitlines()[-1] == "False"


# the bytes the CSV writers gave when each cell was formatted on its own
# (repr of each float): -0.0, 1e300 and 5e-324 kept, 0 at the truncation
# ends, the comma in an edge id quoted, and NaN and an int in a table row
PINNED_COMPLEX = (b'edge_id,x,re,im\r\n"a,b",0.0,1e+300,-0.0\r\n"a,b",0.25,-0.0,5e-324\r\n'
                  b'"a,b",0.5,5e-324,-0.0\r\n"a,b",0.75,0.3333333333333333,1e+300\r\n'
                  b'"a,b",1.0,0.0,0.0\r\nc,0.0,1e+300,-0.0\r\nc,0.25,-0.0,-0.0\r\n'
                  b'c,0.5,0.1,0.2\r\nc,0.75,-2.5e-310,1.0\r\nc,1.0,0.0,0.0\r\n')
PINNED_REAL = (b'edge_id,x,re,im\r\n"a,b",0.0,1e+300,0.0\r\n"a,b",0.25,-0.0,0.0\r\n'
               b'"a,b",0.5,5e-324,0.0\r\n"a,b",0.75,0.3333333333333333,0.0\r\n'
               b'"a,b",1.0,0.0,0.0\r\nc,0.0,1e+300,0.0\r\nc,0.25,-0.0,0.0\r\nc,0.5,0.1,0.0\r\n'
               b'c,0.75,-2.5e-310,0.0\r\nc,1.0,0.0,0.0\r\n')
PINNED_SWEEP = (b'c,omega,energy,g_norm_sq,iterations,structure_ok,status\r\n'
                b'0.8,0.3,-0.1,0.5,12,True,ok\r\n2.5,nan,nan,nan,0,False,BallExitError\r\n')


def test_csv_bytes_are_pinned(tmp_path):
    g = graphs.MetricGraph(
        vertices=(graphs.Vertex("v", 1.0),),
        edges=(graphs.Edge("a,b", "v", None, math.inf, 1.0),
               graphs.Edge("c", "v", None, math.inf, 1.0)),
    ).validate()
    d = mesh.build(g, 0.25)
    values = np.empty(d.n_nodes, complex)
    values.real = [1e300, -0.0, 5e-324, 1 / 3, -0.0, 0.1, -2.5e-310]
    values.imag = [-0.0, 5e-324, -0.0, 1e300, -0.0, 0.2, 1.0]
    path = tmp_path / "f.csv"
    for u, pinned in ((values, PINNED_COMPLEX), (values.real.copy(), PINNED_REAL)):
        mesh.save_function_csv(mesh.GraphFunction(d, u), path)
        assert path.read_bytes() == pinned
    cli._write_csv(path, {
        "c": [0.8, 2.5], "omega": [np.float64(0.3), math.nan], "energy": [-0.1, math.nan],
        "g_norm_sq": [np.float64(0.5), math.nan], "iterations": [np.int64(12), 0],
        "structure_ok": ["True", "False"], "status": ["ok", "BallExitError"]})
    assert path.read_bytes() == PINNED_SWEEP
