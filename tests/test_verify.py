"""Quadrature, config validation, and the check-suite harness."""

import inspect
import json
import math

import numpy as np
import pytest

from extrinsicq import verify
from extrinsicq.exprlang import parse_expression
from extrinsicq.geometry import constant_field, expression_field, laplacian
from extrinsicq.scenarios import parse_scenario
from extrinsicq.verify import CheckResult, ConfigError, Quadrature, integrate, load_config

TAU = 2.0 * math.pi


def sfield(text, chart):
    return expression_field(parse_expression(text, chart.names))


# ---- quadrature ------------------------------------------------------------------


def test_quadrature_weights_are_positive_and_sum_to_the_box_measure():
    scn = parse_scenario("SLICE(S2xS2)")
    quad = Quadrature(scn.chart, nodes=6, gauss_nodes=5)
    assert np.all(quad.weights > 0)
    measure = 1.0
    for ax in scn.chart.axes:
        measure *= ax.hi - ax.lo
    assert abs(quad.weights.sum() - measure) < 1e-12 * measure
    for k, ax in enumerate(scn.chart.axes):
        xs = quad.points[k]
        assert xs.min() >= ax.lo
        # periodic axes must not repeat the identified endpoint
        assert xs.max() < ax.hi


def test_flat_torus_volume():
    scn = parse_scenario("FLAT_T4")
    quad = Quadrature(scn.chart, nodes=5, gauss_nodes=5)
    (vol,) = integrate([constant_field(1.0)], scn, quad, degree_cap=0)
    assert abs(vol - TAU**4) < 1e-9


def test_round_sphere_volume_at_the_pinned_grid():
    # closed form vol(S4) = 8 pi^2 / 3
    scn = parse_scenario("ROUND_S(4,1)")
    quad = Quadrature(scn.chart, nodes=96, gauss_nodes=48)
    (vol,) = integrate([constant_field(1.0)], scn, quad, degree_cap=0, chunk=262144)
    exact = 8.0 * math.pi**2 / 3.0
    assert abs(vol - exact) / exact < 1e-10


def test_doubling_gauss_nodes_gains_a_decade_until_the_floor():
    scn = parse_scenario("ROUND_S(4,1)")
    exact = 8.0 * math.pi**2 / 3.0
    errs = []
    for g in (3, 6, 12, 24):
        quad = Quadrature(scn.chart, nodes=8, gauss_nodes=g)
        (vol,) = integrate([constant_field(1.0)], scn, quad, degree_cap=0)
        errs.append(abs(vol - exact) / exact)
    for a, b in zip(errs, errs[1:]):
        assert b < 1e-12 or a / b >= 10.0
    assert errs[-1] < 1e-12


def test_laplacian_integrates_to_zero_on_a_closed_manifold():
    scn = parse_scenario("PERT_T3")
    quad = Quadrature(scn.chart, nodes=10, gauss_nodes=10)
    f = sfield("sin(x1)*cos(x2) + 0.3*cos(x3)", scn.chart)
    (total,), (absolute,) = integrate([laplacian(f)], scn, quad, degree_cap=3, absolute=True)
    assert abs(total) < 1e-9 * absolute


def test_conformal_volume_identity():
    # vol(e^{2 phi} g) = integral of e^{n phi} dvol_g
    scn = parse_scenario("PERT_T3")
    phi = "0.1*sin(x1) + 0.07*cos(x2)*sin(x3)"
    quad = Quadrature(scn.chart, nodes=12, gauss_nodes=12)
    (vol_hat,) = integrate([constant_field(1.0)], scn.rescaled(phi), quad, degree_cap=0)
    weight = verify._exp_weight(sfield(phi, scn.chart), 3.0)
    (weighted,) = integrate([weight], scn, quad, degree_cap=0)
    assert abs(vol_hat - weighted) < 1e-10 * abs(weighted)


def test_integrate_rejects_a_foreign_chart():
    quad = Quadrature(parse_scenario("FLAT_T2").chart, nodes=4, gauss_nodes=4)
    with pytest.raises(ConfigError, match="does not match"):
        integrate([constant_field(1.0)], parse_scenario("FLAT_T3"), quad)


# ---- check results ----------------------------------------------------------------


def test_check_result_pass_semantics():
    r = CheckResult.build("demo", "FLAT_T2", 4, 1e-9, 100.0, 1e-7, seed=7)
    assert math.isclose(r.rel_err, 1e-11, rel_tol=1e-12)
    assert r.passed
    # scale floors at one so absolute errors on tiny quantities still count
    r2 = CheckResult.build("demo", "FLAT_T2", 4, 1e-6, 1e-30, 1e-7, seed=7)
    assert r2.scale == 1.0
    assert r2.rel_err == 1e-6
    assert not r2.passed
    d = r.as_dict()
    assert set(d) == {
        "check",
        "scenario",
        "samples",
        "max_abs_err",
        "scale",
        "rel_err",
        "tol",
        "passed",
        "seed",
    }


# ---- config ----------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config({})
    assert cfg.suite == "all"
    assert cfg.degree == 6
    assert cfg.scenario == ""
    assert cfg.tol_point == 1e-7


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"bogus": 1}, "unknown config field"),
        ({"suite": 3}, "suite: expected"),
        ({"suite": "nope"}, "suite: unknown suite"),
        ({"seed": -1}, "seed"),
        ({"nodes": 3}, "nodes"),
        ({"gauss_nodes": 2}, "gauss_nodes"),
        ({"tol_point": 0.0}, "tol_point"),
        ({"tol_integral": -1.0}, "tol_integral"),
        ({"degree": 99}, "degree"),
        ({"degree": True}, "degree: expected an integer"),
        ({"scenario": "NOPE"}, "scenario: unknown scenario"),
        ({"suite": "intrinsic", "degree": 4}, "requires degree >= 5, got 4"),
        ({"suite": "structural", "degree": 2}, "requires degree >= 3"),
        ({"tol_point": math.inf}, "tol_point: tolerance must be positive and finite"),
        ({"tol_integral": math.inf}, "tol_integral: tolerance must be positive and finite"),
        ({"tol_control": math.inf}, "tol_control: tolerance must be positive and finite"),
        ({"tol_control": math.nan}, "tol_control: tolerance must be positive and finite"),
    ],
)
def test_load_config_rejections(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(data)


def test_structural_suite_accepts_low_degree():
    cfg = load_config({"suite": "structural", "degree": 3})
    assert cfg.degree == 3


# ---- suite harness ---------------------------------------------------------------


def test_run_suite_structural_report_shape():
    cfg = load_config({"suite": "structural", "scenario": "PERT_T3"})
    seen = []
    report = verify.run_suite(cfg, emit=seen.append)
    assert report["schema_version"] == verify.SCHEMA_VERSION == 1
    assert report["suite"] == "structural"
    assert report["config"]["scenario"] == "PERT_T3"
    assert report["passed"] is True
    total = report["counts"]["passed"] + report["counts"]["failed"]
    checks = [c for s in report["scenarios"] for c in s["checks"]]
    assert len(checks) == total == len(seen)
    assert seen == checks


def test_run_suite_rejects_a_scenario_outside_the_suite():
    cfg = load_config({"suite": "structural", "scenario": "FLAT_T2"})
    with pytest.raises(ConfigError, match="does not appear in suite"):
        verify.run_suite(cfg)


def test_reports_are_reproducible_bit_for_bit():
    first = verify.run_suite(load_config({"suite": "structural", "scenario": "GRAPH(T3_IN_T4)"}))
    again = verify.run_suite(load_config(first["config"]))
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_row_seeds_are_deterministic_and_distinct():
    a = verify._row_seed(1234, 0)
    b = verify._row_seed(1234, 0)
    c = verify._row_seed(1234, 1)
    d = verify._row_seed(99, 0)
    assert a == b
    assert a != c
    assert a != d


def test_report_csv_layout():
    report = verify.run_suite(load_config({"suite": "structural", "scenario": "PERT_T3"}))
    text = verify.report_csv(report)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "scenario",
        "check",
        "samples",
        "max_abs_err",
        "scale",
        "rel_err",
        "tol",
        "passed",
        "seed",
    ]
    nchecks = sum(len(s["checks"]) for s in report["scenarios"])
    assert len(lines) == 1 + nchecks
    row = lines[1].split(",")
    assert row[0] == "PERT_T3"
    assert row[7] == "true"
    float(row[3])
    float(row[5])


def test_suite_plans_name_existing_checks_and_scenarios():
    counts = {}
    for suite in verify.SUITES:
        cfg = load_config({"suite": suite})
        rows = verify._plan(cfg)
        counts[suite] = len(rows)
        for scenario, check, args in rows:
            assert check.startswith("check_") and callable(getattr(verify, check))
            scn = parse_scenario(scenario)
            for key, value in args.items():
                if key.endswith("_scn"):
                    parse_scenario(value)
            # a misspelt argument in a row fails here, not when the row runs
            inspect.signature(getattr(verify, check)).bind(scn, cfg=cfg, seed=0, **args)
    assert counts == {"structural": 6, "intrinsic": 8, "extrinsic": 16, "global": 9, "all": 39}


def test_ads_decomposition_check():
    cfg = load_config({"suite": "global"})
    results = verify.check_ads_decomposition(parse_scenario("GRAPH(T4_IN_T5)"), cfg, seed=7)
    assert [r.check for r in results] == ["ads_identity", "ads_invariant[phi=0]", "ads_invariant"]
    assert [r.tol for r in results] == [1e-10, cfg.tol_control, cfg.tol_point]
    assert all(r.passed for r in results)
    with pytest.raises(ConfigError):
        verify.check_ads_decomposition(parse_scenario("PERT_T4"), cfg, seed=7)
