"""Quadrature, config validation, and the check-suite harness."""

import inspect
import json
import math

import numpy as np
import pytest

from extrinsicq import jets, verify
from extrinsicq.exprlang import parse_expression
from extrinsicq.geometry import constant_field, expression_field, laplacian
from extrinsicq.scenarios import parse_scenario
from extrinsicq.verify import CheckResult, ConfigError, Quadrature, integrate, load_config

from helpers import (
    reference_check_ads_decomposition,
    reference_check_c_invariance,
    reference_check_covariance,
    reference_check_q_law,
)

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


# the rows of the five quadrature checks on a coarse rule, where the
# identities need not hold: (check, scenario, extra arguments), then each row's
# (name, scenario, samples, tol).  At 4 nodes per periodic axis and 5 per
# bounded one the all-periodic charts take 256 points, SLICE(S2xS2) 400 and
# ROUND_S(4,1) 500; the audit's covariance leg uses the 8 points of a
# 4-dimensional pointwise check.
_COARSE = load_config({"nodes": 4, "gauss_nodes": 5})
_QUADRATURE_ROWS = [
    ("check_self_adjoint", "GRAPH(T4_IN_T5)", {},
     [("ext_p4_self_adjoint", "GRAPH(T4_IN_T5)", 256, 1e-7)]),
    ("check_gauss_bonnet", "ROUND_S(4,1)", {},
     [("gauss_bonnet", "ROUND_S(4,1)", 500, 1e-5)]),
    ("check_global_invariant", "SLICE(S2xS2)", {"expected": 50.0 * math.pi**2 / 3.0},
     [("total_q4_invariance[phi=0]", "SLICE(S2xS2)", 256, 1e-12),
      ("total_q4_invariance", "SLICE(S2xS2)", 400, 1e-5),
      ("total_q4_value", "SLICE(S2xS2)", 400, 1e-5)]),
    ("check_divergence_integrals", "GRAPH(T4_IN_PERT_T5)", {},
     [(f"divergence_integral[{nm}]", "GRAPH(T4_IN_PERT_T5)", 256, 1e-7)
      for nm in ("divdiv_normal_weyl", "divdiv_shape_squared", "laplacian_shape_norm",
                 "ads_divergence")]),
    ("check_q4_audit", "PERT_T4", {"gb_scn": parse_scenario("ROUND_S(4,1)")},
     [("q4_audit[c=2 covariance]", "PERT_T4", 8, 1e-7),
      ("q4_audit[c=2 gauss_bonnet]", "ROUND_S(4,1)", 500, 1e-6),
      ("q4_audit[c=1 rejected]", "ROUND_S(4,1)", 508, 1e-7),
      ("q4_audit[exactly one passes]", "ROUND_S(4,1)", 508, 1e-7)]),
]


@pytest.mark.parametrize("check, scenario, args, layout", _QUADRATURE_ROWS,
                         ids=[row[0] for row in _QUADRATURE_ROWS])
def test_quadrature_checks_keep_their_row_layout(check, scenario, args, layout):
    results = getattr(verify, check)(parse_scenario(scenario), cfg=_COARSE, seed=5, **args)
    assert [(r.check, r.scenario, r.samples, r.tol) for r in results] == layout
    assert all(r.seed == 5 for r in results)


def test_covariance_and_law_checks_refuse_what_the_operator_table_rules_out():
    cfg = load_config({})
    pert4 = parse_scenario("PERT_T4")
    with pytest.raises(ConfigError, match="^unknown covariant operator 'q2'$"):
        verify.check_covariance(pert4, "q2", cfg, seed=0)
    with pytest.raises(ConfigError, match="^ext_p2 needs an embedded scenario, got PERT_T4$"):
        verify.check_covariance(pert4, "ext_p2", cfg, seed=0)
    with pytest.raises(ConfigError, match="^unknown Q-curvature law 'p4'$"):
        verify.check_q_law(pert4, "p4", cfg, seed=0)
    with pytest.raises(ConfigError, match="^ext_q2 law needs an embedded scenario$"):
        verify.check_q_law(parse_scenario("FLAT_T2"), "ext_q2", cfg, seed=0)
    with pytest.raises(ConfigError, match="^q4 law lives in dimension 4, scenario has 3$"):
        verify.check_q_law(parse_scenario("PERT_T3"), "q4", cfg, seed=0)


# ---- batched conformal draws -----------------------------------------------------
# Each conformal check evaluates its phi=0 control and its random factors side
# by side on one base and one rescaled context; the rows must be those of the
# per-draw loop in helpers, bit for bit.


def _as_json(results):
    return json.dumps([r.as_dict() for r in results])


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize(
    "scenario, op_name, which",
    [("FLAT_T2", "p2", "q2"), ("PERT_T3", "p2", None), ("GRAPH(T2_IN_T3)", "ext_p2", "ext_q2")],
)
def test_batched_covariance_and_q_law_match_the_per_draw_loop(scenario, op_name, which, draws):
    cfg, scn = load_config({}), parse_scenario(scenario)
    got = verify.check_covariance(scn, op_name, cfg, seed=11, pairs=draws)
    assert _as_json(got) == _as_json(reference_check_covariance(scn, op_name, cfg, 11, draws))
    if which:
        got = verify.check_q_law(scn, which, cfg, seed=12, pairs=draws)
        assert _as_json(got) == _as_json(reference_check_q_law(scn, which, cfg, 12, draws))


@pytest.mark.parametrize("phis", [1, 3])
def test_batched_c_invariance_matches_the_per_draw_loop(phis):
    cfg, scn = load_config({}), parse_scenario("GRAPH(T4_IN_T5)")
    got = verify.check_c_invariance(scn, cfg, seed=13, phis=phis)
    assert _as_json(got) == _as_json(reference_check_c_invariance(scn, cfg, 13, phis))


def test_batched_ads_decomposition_matches_the_per_draw_loop():
    cfg, scn = load_config({}), parse_scenario("GRAPH(T4_IN_PERT_T5)")
    got = verify.check_ads_decomposition(scn, cfg, seed=14)
    assert _as_json(got) == _as_json(reference_check_ads_decomposition(scn, cfg, 14))


def _rescaled_batches(monkeypatch):
    """The point counts of the rescaled contexts verify makes."""
    counts = []
    rescaled = verify._rescaled

    def spy(scn, phi_text, pts, plan, columns=None):
        counts.append(pts.shape[1])
        return rescaled(scn, phi_text, pts, plan, columns)

    monkeypatch.setattr(verify, "_rescaled", spy)
    return counts


def test_control_and_draws_are_one_batch(monkeypatch):
    # 12 points a block: the control and twelve factors are one batch of 156
    # points, past the layered threshold, as every kernel sums in one order
    cfg, scn = load_config({}), parse_scenario("FLAT_T2")
    counts = _rescaled_batches(monkeypatch)
    got = verify.check_covariance(scn, "p2", cfg, seed=15, pairs=12)
    assert counts == [156] and max(counts) >= jets._LAYERED_MIN_BATCH
    assert got[1].samples == 12 * 12
    assert _as_json(got) == _as_json(reference_check_covariance(scn, "p2", cfg, 15, 12))


def test_one_rescaled_context_per_conformal_check(monkeypatch):
    counts = _rescaled_batches(monkeypatch)
    verify.check_q_law(parse_scenario("GRAPH(T2_IN_T3)"), "ext_q2", load_config({}), 16, pairs=3)
    assert counts == [4 * 12]


def test_draws_keep_their_rng_order(monkeypatch):
    """Every coefficient is drawn before any context is built, in the order
    of the per-draw loop: the control's trial function, then each factor
    and its trial function."""
    scn, seed, pairs = parse_scenario("GRAPH(T2_IN_T3)"), 17, 3
    drawn = []
    combination = verify._combination

    def spy(basis, blocks, npoints):
        drawn.append((basis, np.array(blocks)))
        return combination(basis, blocks, npoints)

    monkeypatch.setattr(verify, "_combination", spy)
    verify.check_covariance(scn, "ext_p2", load_config({}), seed, pairs=pairs)
    rng = np.random.default_rng(seed)
    verify._points(scn, verify._npoints(scn.dim), rng)
    fs, phis = [rng.uniform(-0.2, 0.2, len(scn.basis))], [np.zeros(len(scn.ambient_basis))]
    for _ in range(pairs):
        phis.append(rng.uniform(-0.2, 0.2, len(scn.ambient_basis)))
        fs.append(rng.uniform(-0.2, 0.2, len(scn.basis)))
    (phi_basis, phi_blocks), (f_basis, f_blocks) = drawn
    assert phi_basis == scn.ambient_basis and f_basis == scn.basis
    assert np.array_equal(phi_blocks, phis) and np.array_equal(f_blocks, fs)
