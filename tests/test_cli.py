"""The extrinsic-q command line: subcommands, exit codes, report files."""

import contextlib
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from extrinsicq import cli
from extrinsicq.operators import OPERATORS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_console_script_is_installed(tmp_path):
    """The declared `extrinsic-q` script runs in its own process.

    It is run from this checkout through the launcher code pip generates for
    the `[project.scripts]` entry, and also from PATH where the package is
    installed. Each must list the catalog and pass `main`'s exit code through.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["extrinsic-q"]
    module, attr = entry.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    checkout_env = dict(os.environ, PYTHONPATH=str(root / "src"))
    scripts = [([sys.executable, "-c", launcher], checkout_env)]
    exe = shutil.which("extrinsic-q")
    if exe is not None:
        scripts.append(([exe], None))
    run = functools.partial(
        subprocess.run, capture_output=True, text=True, timeout=120, cwd=tmp_path
    )
    for cmd, env in scripts:
        out = run([*cmd, "list-scenarios"], env=env)
        assert out.returncode == 0, out.stderr
        assert "SLICE(S2xS2)" in out.stdout
        bad_op = ["apply", "--scenario", "FLAT_T2", "--op", "nope", "--point", "0,0"]
        out = run([*cmd, *bad_op], env=env)
        assert out.returncode == 2, out.stderr
        assert "unknown operator" in out.stderr


def test_list_scenarios_json(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert any(r["name"] == "GRAPH(T4_IN_T5)" for r in rows)


def test_curvature_round_sphere_j(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--scenario", "ROUND_S(4,1)", "--point", "0.7,1.1,0.3,2.0"
    )
    assert code == 0
    pack = json.loads(out)
    assert abs(pack["J"] - 2.0) < 1e-9
    assert abs(pack["scal"] - 12.0) < 1e-8
    assert pack["dim"] == 4
    assert len(pack["riemann"]) == 4
    assert len(pack["weyl"]) == 4


def test_curvature_dim2_omits_schouten(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--scenario", "FLAT_T2", "--point", "1,2")
    assert code == 0
    pack = json.loads(out)
    assert "schouten" not in pack
    assert abs(pack["scal"]) < 1e-12


def test_extrinsic_pack_on_the_product_slice(capsys):
    code, out, _ = run_cli(
        capsys, "extrinsic", "--scenario", "SLICE(S2xS2)", "--point", "0.8,1.4,1.1,0.6"
    )
    assert code == 0
    pack = json.loads(out)
    assert abs(pack["mean_curvature"]) < 1e-12
    flat = [x for row in pack["normal_weyl"] for x in row]
    assert max(abs(x) for x in flat) > 1e-3
    assert "fialkow" in pack


def test_extrinsic_rejects_intrinsic_scenarios(capsys):
    code, _, err = run_cli(capsys, "extrinsic", "--scenario", "FLAT_T3", "--point", "1,2,3")
    assert code == 2
    assert "needs an embedding" in err


def test_apply_p2_on_the_flat_torus(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply",
        "--scenario",
        "FLAT_T2",
        "--op",
        "p2",
        "--f",
        "sin(x1)*cos(x2)",
        "--point",
        "0.5,1.2",
    )
    assert code == 0
    val = json.loads(out)["value"]
    assert abs(val - (-2.0 * math.sin(0.5) * math.cos(1.2))) < 1e-12


@pytest.mark.parametrize("command", ["apply", "curvature", "extrinsic"])
def test_negative_point_needs_no_equals_sign(capsys, command):
    # argparse takes a word led by '-' for an option; --point must still read it
    scenario = "GRAPH(T2_IN_T3)" if command == "extrinsic" else "FLAT_T2"
    extra = ["--op", "q2"] if command == "apply" else []
    code, out, err = run_cli(
        capsys, command, "--scenario", scenario, *extra, "--point", "-1,0"
    )
    assert code == 0, err
    assert json.loads(out)["point"] == [-1.0, 0.0]


def test_apply_umbilic_guard_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "apply",
        "--scenario",
        "GRAPH(T3_IN_T4)",
        "--op",
        "ext_q4_umbilic",
        "--point",
        "0.7,1.1,0.3",
    )
    assert code == 2
    assert "not umbilic" in err
    assert "tracefree shape" in err


def test_apply_unknown_op_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--scenario", "FLAT_T2", "--op", "nope", "--point", "0,0"
    )
    assert code == 2
    assert "unknown operator" in err


def test_apply_nullary_rejects_f(capsys):
    code, _, err = run_cli(
        capsys,
        "apply",
        "--scenario",
        "FLAT_T2",
        "--op",
        "q2",
        "--f",
        "sin(x1)",
        "--point",
        "0,0",
    )
    assert code == 2
    assert "takes no input function" in err


def test_apply_unary_requires_f(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--scenario", "FLAT_T2", "--op", "p2", "--point", "0,0"
    )
    assert code == 2
    assert "needs an input function" in err


def test_point_dimension_mismatch_exits_two(capsys):
    code, _, err = run_cli(capsys, "curvature", "--scenario", "FLAT_T3", "--point", "1,2")
    assert code == 2
    assert "expected 3" in err


def test_singular_metric_point_exits_two(capsys):
    # x2 = 1 is a pole of the round sphere's chart
    code, out, err = run_cli(
        capsys, "apply", "--scenario", "ROUND_S(4,1)", "--op", "q4", "--point", "0,1,1,1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not positive definite" in err
    assert "Traceback" not in err


def test_overflowed_metric_exits_two_as_overflow(capsys):
    # the metric of a sphere of radius 1e200 is finite in exact arithmetic
    # and positive definite, but its components exceed the float range
    code, out, err = run_cli(
        capsys, "curvature", "--scenario", "ROUND_S(4,1e200)", "--point", "1,1,1,1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceed the float range" in err and "(1, 1, 1, 1)" in err
    assert "positive definite" not in err


def test_input_function_outside_its_domain_exits_two(capsys):
    code, out, err = run_cli(
        capsys,
        "apply",
        "--scenario",
        "ROUND_S(4,1)",
        "--op",
        "p4",
        "--f",
        "log(x1-5)",
        "--point",
        "1,1,1,1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "log of a nonpositive value" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("apply", "--scenario", "ROUND_S(4,1)", "--point", "1,1,1,1", "--op", "p4",
          "--f", "exp(800)*x1"), "value: not finite at the point (1, 1, 1, 1)"),
        (("integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(800)*cos(x1)"),
         "the integrand is not finite at the chart point (0, 0, 0, 0)"),
        (("integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(800)"),
         "the integrand is not finite at the chart point (0, 0, 0, 0)"),
        (("integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(706)"),
         "the integral overflows"),
    ],
)
def test_non_finite_result_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("point", ["nan,1", "1,inf", "1,-inf"])
def test_non_finite_point_exits_two(capsys, point):
    code, out, err = run_cli(
        capsys, "apply", "--scenario", "FLAT_T2", "--op", "q2", "--point", point
    )
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--op", "q2", "--scenario", "ROUND_S(4,inf)", "--point", "1,1,1,1"),
        ("apply", "--op", "q2", "--scenario", "SPHERE_IN_FLAT(4,inf)", "--point", "1,1,1,1"),
        ("verify", "--scenario", "ROUND_S(4,inf)"),
    ],
)
def test_non_finite_scenario_number_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "radius must be finite" in err
    assert "Traceback" not in err


def test_point_outside_a_bounded_axis_exits_two(capsys):
    # x1 is a polar angle of the round sphere's chart, in [0, pi]
    code, out, err = run_cli(
        capsys, "curvature", "--scenario", "ROUND_S(4,1)", "--point", "3.5,1,1,1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "x1 = 3.5 lies outside" in err


def test_point_on_a_periodic_axis_may_lie_anywhere(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--scenario", "ROUND_S(4,1)", "--point", "0.7,1.1,0.3,-20"
    )
    assert code == 0
    assert json.loads(out)["point"] == [0.7, 1.1, 0.3, -20.0]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "extrinsicq", "list-scenarios"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert "SLICE(S2xS2)" in out.stdout


def test_integrate_volume(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--scenario", "FLAT_T2", "--f", "1", "--nodes", "6"
    )
    assert code == 0
    got = json.loads(out)["integral"]
    assert abs(got - (2.0 * math.pi) ** 2) < 1e-9


@pytest.mark.parametrize(
    "argv, message",
    [
        (("integrate", "--scenario", "ROUND_S(2,1)", "--f", "1", "--gauss-nodes", "100000000"),
         "gauss_nodes=100000000"),
        (("integrate", "--scenario", "FLAT_T4", "--f", "1", "--nodes", "100"),
         "100000000 points"),
        (("verify", "--suite", "global", "--scenario", "ROUND_S(4,1)",
          "--gauss-nodes", "100000000"), "gauss_nodes=100000000"),
        (("verify", "--suite", "global", "--scenario", "FLAT_T4", "--nodes", "100"),
         "100000000 points"),
    ],
)
def test_oversized_quadrature_exits_two(capsys, argv, message):
    # refused before the rule allocates anything; never run near the ceiling
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_integrate_needs_exactly_one_integrand(capsys):
    code, _, err = run_cli(capsys, "integrate", "--scenario", "FLAT_T2")
    assert code == 2
    assert "exactly one of" in err
    code, _, err = run_cli(
        capsys, "integrate", "--scenario", "FLAT_T2", "--f", "1", "--op", "q2"
    )
    assert code == 2


def test_verify_streams_checks_and_writes_a_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "verify",
        "--suite",
        "structural",
        "--scenario",
        "PERT_T3",
        "--output",
        str(out_path),
    )
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["passed"] is True
    assert all("check" in ln for ln in lines[:-1])
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["config"]["suite"] == "structural"
    assert report["passed"] is True
    assert str(out_path) in err


def test_verify_scenario_matches_by_parsed_name(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "structural", "--scenario", "ROUND_S(3, 1.3)"
    )
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["passed"] is True
    assert len(lines) > 1


def test_verify_csv_report(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "structural",
        "--scenario",
        "ROUND_S(3,1.3)",
        "--output",
        str(out_path),
        "--format",
        "csv",
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,check,")
    assert len(lines) > 1


def test_verify_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("suite: structural\nscenario: PERT_T3\nnodes: 8\n")
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--config",
        str(cfg),
        "--nodes",
        "6",
        "--output",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["config"]["nodes"] == 6
    assert report["config"]["scenario"] == "PERT_T3"


def test_verify_json_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "structural", "scenario": "SLICE(S2xS2)"}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["passed"] is True


def test_verify_rejects_low_degree_for_fourth_order_suites(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "intrinsic", "--degree", "4")
    assert code == 2
    assert "requires degree >= 5" in err


def test_verify_rejects_an_infinite_tolerance(capsys):
    argv = ["verify", "--suite", "intrinsic", "--scenario", "FLAT_T2", "--tol", "inf"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "tol_point: tolerance must be positive and finite" in err


def test_verify_missing_config_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "/no/such/file.yaml")
    assert code == 2
    assert "error:" in err


def test_bad_expression_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "apply",
        "--scenario",
        "FLAT_T2",
        "--op",
        "p2",
        "--f",
        "sin(qq)",
        "--point",
        "0,0",
    )
    assert code == 2
    assert "error:" in err


# ---- random argv ----------------------------------------------------------------


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# (name, dimension); the last two are refused by the catalog
_SCENARIOS = [
    ("FLAT_T2", 2), ("PERT_T4", 4), ("ROUND_S(2,1)", 2), ("ROUND_S(4,1)", 4),
    ("ROUND_S(3,1e200)", 3), ("CONF_PERTURBED(ROUND_S(2,1))", 2), ("SPHERE_IN_FLAT(3,1)", 3),
    ("GRAPH(T2_IN_T3)", 2), ("SLICE(S2xS2)", 4), ("ROUND_S(9,1)", 9), ("NOPE", 2),
]
_EMBEDDED = {"SPHERE_IN_FLAT(3,1)", "GRAPH(T2_IN_T3)", "SLICE(S2xS2)"}
_COORDS = st.floats(0.05, 3.1)
_BAD_COORDS = st.one_of(
    st.floats(-10, 10), st.sampled_from([0.0, math.pi, math.nan, math.inf, -math.inf, 1e300])
)
_EXPRS = st.sampled_from([
    "x1", "sin(x1)*cos(x2)", "exp(800)*x1", "exp(800)*cos(x1)", "exp(800)", "exp(706)",
    "exp(exp(x1))", "log(x1-5)", "1/(x1-x1)", "x1^-0.5", "1/0", "x9", "(", "", "-x1",
])
_OPS = sorted({*OPERATORS, "nope"})
_EMBEDDED_ONLY = {name for name, op in OPERATORS.items() if op.embedded}
_NULLARY = {name for name, op in OPERATORS.items() if op.order is None}


@st.composite
def _argv(draw):
    """Mostly well-formed argv for apply, curvature or integrate, with bad values mixed in."""
    command = draw(st.sampled_from(["apply", "curvature", "integrate"]))
    name, dim = draw(st.sampled_from(_SCENARIOS))
    argv = [command, "--scenario", name]
    if command != "integrate":
        size = draw(st.sampled_from([dim, dim, dim, 1, 5]))
        coords = draw(st.lists(_COORDS, min_size=size, max_size=size))
        if draw(st.booleans()):
            coords[0] = draw(_BAD_COORDS)
        point = ",".join(map(str, coords))
        argv += ["--point", draw(st.sampled_from([point, point, point, draw(st.text(max_size=6))]))]
    if command != "curvature":
        fitting = [o for o in _OPS if name in _EMBEDDED or o not in _EMBEDDED_ONLY]
        op = draw(st.sampled_from(draw(st.sampled_from([fitting, fitting, _OPS]))))
        takes_f = op not in _NULLARY
        if command == "integrate":
            # exactly one of --op and --f, as a rule
            use_op, use_f = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        else:
            use_op, use_f = True, draw(st.sampled_from([takes_f, takes_f, not takes_f]))
        argv += ["--op", op] if use_op else []
        argv += ["--f", draw(_EXPRS)] if use_f else []
    if command == "integrate":
        argv += ["--nodes", str(draw(st.integers(-1, 3))), "--gauss-nodes", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--degree", str(draw(st.integers(-1, 9)))]
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=_argv())
@example(argv=["apply", "--scenario", "ROUND_S(4,1)", "--point", "1,1,1,1", "--op", "p4",
               "--f", "exp(800)*x1"])
@example(argv=["integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(800)*cos(x1)"])
@example(argv=["integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(800)"])
@example(argv=["integrate", "--scenario", "PERT_T4", "--nodes", "4", "--f", "exp(706)"])
def test_random_argv_exits_cleanly_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert code != 0
