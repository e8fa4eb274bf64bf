"""Catalog integrity and the NAME(args) scenario parser."""

import numpy as np
import pytest

from extrinsicq import hypersurface as hs
from extrinsicq.geometry import MetricContext
from extrinsicq.hypersurface import EmbeddedSurfaceContext
from extrinsicq.scenarios import (
    ScenarioError,
    conf_phi,
    list_scenarios,
    parse_scenario,
)

from helpers import jval
from test_operators import pert_metric

CONCRETE = [
    "FLAT_T2",
    "FLAT_T3",
    "FLAT_T4",
    "FLAT_T5",
    "PERT_T3",
    "PERT_T4",
    "PERT_T5",
    "ROUND_S(3,1.5)",
    "ROUND_S(4,1)",
    "SPHERE_IN_FLAT(2,1.3)",
    "SPHERE_IN_FLAT(4,1)",
    "SLICE(S2xS2)",
    "SLICE(PERT_T3)",
    "SLICE(PERT_T4)",
    "SLICE(WARPED_T4)",
    "GRAPH(T2_IN_T3)",
    "GRAPH(T3_IN_T4)",
    "GRAPH(T4_IN_T5)",
    "GRAPH(T4_IN_PERT_T5)",
    "CONF_PERTURBED(PERT_T3)",
    "CONF_PERTURBED(ROUND_S(4,1))",
    "CONF_PERTURBED(SLICE(S2xS2))",
    "CONF_PERTURBED(GRAPH(T3_IN_T4))",
]


def interior_point(scn):
    pt = []
    for ax in scn.chart.axes:
        span = ax.hi - ax.lo
        pt.append([ax.lo + 0.37 * span])
    return np.array(pt)


@pytest.mark.parametrize("name", CONCRETE)
def test_catalog_entry_builds_a_usable_context(name):
    scn = parse_scenario(name)
    ctx = scn.context(interior_point(scn), degree_cap=3)
    g = ctx.g(0)
    mat = np.array([[jval(g[i][j])[0] for j in range(scn.dim)] for i in range(scn.dim)])
    assert np.all(np.isfinite(mat))
    assert np.linalg.det(mat) > 1e-10
    if scn.kind == "embedded":
        assert isinstance(ctx, EmbeddedSurfaceContext)
        assert scn.ambient_chart.dim == scn.dim + 1
    else:
        assert isinstance(ctx, MetricContext)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perturbed_torus_matches_the_operator_test_fixture(n):
    # the catalog and the operator tests must probe the same metric
    scn = parse_scenario(f"PERT_T{n}")
    assert scn.metric.texts == pert_metric(n).texts


def test_round_sphere_j_closed_form():
    for n, r in [(2, 1.0), (3, 2.0), (4, 1.0), (5, 1.5)]:
        from extrinsicq import curvature

        scn = parse_scenario(f"ROUND_S({n},{r})")
        ctx = scn.context(interior_point(scn), degree_cap=2)
        J = jval(curvature.jfun(ctx, 0))[0]
        assert abs(J - n / (2.0 * r * r)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_in_flat_normal_is_outward_in_every_dimension(n):
    r = 1.3
    scn = parse_scenario(f"SPHERE_IN_FLAT({n},{r})")
    ctx = scn.context(interior_point(scn), degree_cap=3)
    H = jval(hs.mean_curvature(ctx, 0))[0]
    assert abs(H - 1.0 / r) < 1e-11


def test_sphere_in_flat_orientation_parity():
    # the nested-polar frame flips orientation every two dimensions; the
    # catalog's sign choice keeps H = +1/r uniform
    for n, sigma in [(2, 1.0), (3, 1.0), (4, -1.0), (5, -1.0)]:
        scn = parse_scenario(f"SPHERE_IN_FLAT({n},1)")
        assert scn.embedding.sigma == sigma


def test_warped_slice_mean_curvature_frozen_value():
    scn = parse_scenario("SLICE(WARPED_T4)")
    ctx = scn.context(interior_point(scn), degree_cap=3)
    H = jval(hs.mean_curvature(ctx, 0))[0]
    assert abs(H - 0.2) < 1e-12


def test_umbilic_flags_match_the_geometry():
    for name, umb in [
        ("SLICE(S2xS2)", True),
        ("SLICE(PERT_T4)", True),
        ("SLICE(WARPED_T4)", True),
        ("SPHERE_IN_FLAT(3,2)", True),
        ("GRAPH(T3_IN_T4)", False),
        ("GRAPH(T4_IN_PERT_T5)", False),
    ]:
        scn = parse_scenario(name)
        assert scn.umbilic is umb
        ctx = scn.context(interior_point(scn), degree_cap=3)
        Lo = hs.tracefree_second_fundamental(ctx, 0)
        worst = max(abs(jval(x)[0]) for row in Lo for x in row)
        if umb:
            assert worst < 1e-12
        else:
            assert worst > 1e-3


def test_euler_characteristics():
    expect = {
        "FLAT_T4": 0,
        "PERT_T4": 0,
        "ROUND_S(3,1)": 0,
        "ROUND_S(4,1)": 2,
        "SPHERE_IN_FLAT(2,1)": 2,
        "SLICE(S2xS2)": 4,
        "GRAPH(T4_IN_T5)": 0,
    }
    for name, chi in expect.items():
        assert parse_scenario(name).euler == chi


def test_graph_height_function_is_the_last_embedding_component():
    for arg, n in [("T2_IN_T3", 2), ("T3_IN_T4", 3), ("T4_IN_T5", 4)]:
        scn = parse_scenario(f"GRAPH({arg})")
        iota = scn.embedding.iota_texts
        assert len(iota) == n + 1
        assert iota[:n] == tuple(f"x{i+1}" for i in range(n))
        assert "sin" in iota[n]


def test_conf_perturbed_rescales_but_keeps_identity():
    base = parse_scenario("PERT_T3")
    conf = parse_scenario("CONF_PERTURBED(PERT_T3)")
    assert conf.name == "CONF_PERTURBED(PERT_T3)"
    assert conf.kind == base.kind
    assert conf.euler == base.euler
    assert conf.basis == base.basis
    assert conf.metric.texts != base.metric.texts

    graph = parse_scenario("GRAPH(T3_IN_T4)")
    gconf = parse_scenario("CONF_PERTURBED(GRAPH(T3_IN_T4))")
    assert gconf.embedding.iota_texts == graph.embedding.iota_texts
    assert gconf.embedding.ambient_metric.texts != graph.embedding.ambient_metric.texts


def test_rescaled_preserves_flags():
    scn = parse_scenario("SLICE(PERT_T4)")
    hat = scn.rescaled("0.1*sin(y1)")
    assert hat.euler == scn.euler
    assert hat.umbilic == scn.umbilic
    assert hat.basis == scn.basis


def test_conf_phi_unknown_base():
    with pytest.raises(ScenarioError, match="no fixed conformal factor"):
        conf_phi("SLICE(NOPE)")
    # spheres are not in the table: the name's prefix picks their factor
    round_s = "0.1*cos(x1) + 0.07*sin(x1)*cos(x2)"
    assert conf_phi("ROUND_S(4,1)") == conf_phi("ROUND_S(2,3)") == round_s
    assert conf_phi("SPHERE_IN_FLAT(3,1)") == "0.1*sin(y1) + 0.07*cos(y2)*sin(y3)"
    hat = parse_scenario("CONF_PERTURBED(ROUND_S(4,1))")
    assert hat.metric.texts[0][0] == f"exp(2*({round_s}))*(1)"


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("NOPE", "unknown scenario"),
        ("ROUND_S(1,1)", "integer in 2..5"),
        ("ROUND_S(6,1)", "integer in 2..5"),
        ("ROUND_S(3,-1)", "radius must be positive"),
        ("ROUND_S(3)", r"needs \(n, r\)"),
        ("ROUND_S(3,x)", "must be a number"),
        ("SLICE(BOGUS)", "must be one of"),
        ("GRAPH()", "must be one of"),
        ("FLAT_T2(3)", "takes no arguments"),
        ("CONF_PERTURBED()", "needs a base scenario"),
        ("SLICE(S2xS2", "bad scenario name"),
    ],
)
def test_parser_rejects_malformed_input(bad, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(bad)


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("ROUND_S(4,inf)", "radius must be finite"),
        ("ROUND_S(4,-inf)", "radius must be finite"),
        ("ROUND_S(4,1e400)", "radius must be finite"),
        ("ROUND_S(inf,1)", "dimension must be finite"),
        ("ROUND_S(nan,1)", "dimension must be finite"),
        ("ROUND_S(4,nan)", "radius must be finite"),
        ("SPHERE_IN_FLAT(4,inf)", "radius must be finite"),
        ("CONF_PERTURBED(ROUND_S(4,inf))", "radius must be finite"),
    ],
)
def test_parser_rejects_non_finite_numbers(bad, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(bad)


def test_parser_accepts_whitespace():
    scn = parse_scenario("  ROUND_S( 4 , 1.0 )  ")
    assert scn.name == "ROUND_S(4,1)"


def test_list_scenarios_rows():
    rows = list_scenarios()
    assert len(rows) == 18
    for row in rows:
        assert set(row) == {"name", "kind", "dim", "euler"}
    names = [r["name"] for r in rows]
    assert "SLICE(S2xS2)" in names
    assert "CONF_PERTURBED(base)" in names
