"""Operator identities: sphere spectra, frozen values, covariance, laws."""

import functools

import numpy as np
import pytest

from extrinsicq import hypersurface as hs, jets, operators as ops
from extrinsicq.exprlang import parse_expression
from extrinsicq.scenarios import conf_phi, parse_scenario
from extrinsicq.verify import Quadrature
from extrinsicq.geometry import (
    Axis,
    Chart,
    DegreePlan,
    Metric,
    MetricContext,
    conformal_rescale,
    divdiv,
    expression_field,
    inner22,
    jet_coeffs,
)

from helpers import (
    assert_same_bits,
    jval,
    reference_c_invariant,
    reference_integrand_i1,
    reference_integrand_i2,
    reference_integrand_i3,
)
from test_hypersurface import (
    flat_metric,
    graph3_embedding,
    graph_embedding,
    product_slice_embedding,
    product_slice_s2_s3_embedding,
    rescaled,
    sphere_embedding,
    surface_points,
    torus_chart,
    warped_slice_embedding,
)

TAU = 2.0 * np.pi


def sphere_metric(n, r=1.0):
    names = [f"x{i+1}" for i in range(n)]
    axes = [Axis(nm, 0.3, 2.85) for nm in names[:-1]] + [
        Axis(names[-1], 0.0, TAU, periodic=True)
    ]
    chart = Chart(axes)
    texts = {}
    for i in range(n):
        parts = [f"{r}^2"] if r != 1.0 else []
        parts += [f"sin(x{k+1})^2" for k in range(i)]
        texts[f"g{i+1}{i+1}"] = "*".join(parts) if parts else "1"
    return Metric.from_dict(chart, texts)


def pert_metric(n):
    chart = torus_chart([f"x{i+1}" for i in range(n)])
    if n == 3:
        texts = {
            "g11": "1 + 0.1*sin(x1)*cos(x2)",
            "g22": "1 + 0.08*cos(x2)*sin(x3)",
            "g33": "1 + 0.06*sin(x3)*cos(x1)",
            "g12": "0.05*sin(x1 + x3)",
            "g23": "0.04*cos(x1 + x2)",
        }
    elif n == 4:
        texts = {
            "g11": "1 + 0.08*sin(x1)*cos(x2)",
            "g22": "1 + 0.07*cos(x2)*sin(x3)",
            "g33": "1 + 0.06*sin(x3)*cos(x4)",
            "g44": "1 + 0.05*cos(x4)*sin(x1)",
            "g12": "0.04*sin(x1 + x2)",
            "g13": "0.03*cos(x2 + x4)",
            "g24": "0.03*sin(x3 + x1)",
            "g34": "0.02*cos(x1 + x3)",
        }
    elif n == 5:
        texts = {
            "g11": "1 + 0.06*sin(x1)*cos(x2)",
            "g22": "1 + 0.05*cos(x2)*sin(x3)",
            "g33": "1 + 0.05*sin(x3)*cos(x4)",
            "g44": "1 + 0.04*cos(x4)*sin(x5)",
            "g55": "1 + 0.04*sin(x5)*cos(x1)",
            "g13": "0.03*sin(x1 + x4)",
            "g25": "0.02*cos(x2 + x5)",
        }
    else:
        raise ValueError(n)
    return Metric.from_dict(chart, texts)


def rand_points(chart, B, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for ax in chart.axes:
        lo, hi = (0.0, TAU) if ax.periodic else (ax.lo + 0.1, ax.hi - 0.1)
        cols.append(rng.uniform(lo, hi, B))
    return np.array(cols)


def sfield(text, chart):
    return expression_field(parse_expression(text, chart.names))


# ---- sphere spectra ----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_p2_first_harmonic_eigenvalue(n):
    m = sphere_metric(n)
    pts = rand_points(m.chart, 6, 1)
    ctx = MetricContext(m, pts)
    f = sfield("cos(x1)", m.chart)
    got = jval(ops.p2(f)(ctx, 0), 6)
    want = -(n * n / 4.0 + n / 2.0) * np.cos(pts[0])
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("n,ev", [(4, 24.0), (5, 945.0 / 16.0)])
def test_p4_first_harmonic_eigenvalue(n, ev):
    # classical factorization on the round sphere:
    # P4 = (-Lap + (n/2)(n/2-1)) (-Lap + (n/2+1)(n/2-2)), first harmonics -> n
    m = sphere_metric(n)
    pts = rand_points(m.chart, 5, 2)
    ctx = MetricContext(m, pts)
    f = sfield("cos(x1)", m.chart)
    got = jval(ops.p4(f)(ctx, 0), 5)
    a = (n / 2.0) * (n / 2.0 - 1.0)
    b = (n / 2.0 + 1.0) * (n / 2.0 - 2.0)
    assert abs((n + a) * (n + b) - ev) < 1e-12
    assert np.max(np.abs(got - ev * np.cos(pts[0]))) < 1e-8


# ---- frozen Q values ---------------------------------------------------------


@pytest.mark.parametrize("n,r,want", [(4, 1.0, 6.0), (3, 1.0, 27.0 / 8.0 - 1.5), (4, 2.0, 6.0 / 16.0)])
def test_q4_on_round_spheres(n, r, want):
    m = sphere_metric(n, r)
    ctx = MetricContext(m, rand_points(m.chart, 6, 3))
    got = jval(ops.q4()(ctx, 0), 6)
    assert np.max(np.abs(got - want)) < 1e-9


def test_q4_on_product_of_spheres():
    chart = Chart(
        [
            Axis("x1", 0.3, 2.85),
            Axis("x2", 0.0, TAU, periodic=True),
            Axis("x3", 0.3, 2.85),
            Axis("x4", 0.0, TAU, periodic=True),
        ]
    )
    m = Metric.from_dict(
        chart, {"g11": "1", "g22": "sin(x1)^2", "g33": "4", "g44": "4*sin(x3)^2"}
    )
    ctx = MetricContext(m, rand_points(chart, 6, 4))
    got = jval(ops.q4()(ctx, 0), 6)
    assert np.max(np.abs(got + 1.0 / 48.0)) < 1e-10


# ---- conformal covariance, pointwise -----------------------------------------


def covariance_defect(metric, phi, f_text, order, B=6, seed=5, c_rho=2.0):
    """max |e^{-b phi} P(e^{a phi} f) - P-hat(f)| at random points."""
    n = metric.chart.dim
    pts = rand_points(metric.chart, B, seed)
    ctx = MetricContext(metric, pts)
    ctx_hat = MetricContext(conformal_rescale(metric, phi), pts)
    op = {2: ops.p2, 4: ops.p4}[order]
    kw = {"c_rho": c_rho} if order == 4 else {}
    a = 0.5 * n - 0.5 * order
    b = 0.5 * n + 0.5 * order
    f = sfield(f_text, metric.chart)
    lhs = jval(op(f, **kw)(ctx_hat, 0), B)
    fa = sfield(f"exp({a}*({phi}))*({f_text})", metric.chart)
    phiv = jval(sfield(phi, metric.chart)(ctx, 0), B)
    rhs = np.exp(-b * phiv) * jval(op(fa, **kw)(ctx, 0), B)
    return float(np.max(np.abs(lhs - rhs)))


def test_p2_covariance_dim2():
    m = flat_metric(torus_chart(["x1", "x2"]))
    d = covariance_defect(
        m, "0.15*sin(x1) + 0.1*cos(x2)*sin(x1)", "cos(x2) + 0.3*sin(x1)", 2
    )
    assert d < 1e-10


def test_p2_covariance_dim3_perturbed():
    d = covariance_defect(
        pert_metric(3), "0.1*sin(x1)*cos(x3) + 0.07*cos(x2)", "sin(x2)*cos(x3)", 2
    )
    assert d < 1e-9


def test_p2_covariance_dim4_sphere():
    d = covariance_defect(
        sphere_metric(4), "0.1*cos(x1) + 0.07*sin(x1)*cos(x2)", "cos(x1) + 0.2*sin(x1)*sin(x2)", 2
    )
    assert d < 1e-9


def test_p4_covariance_dim4_perturbed():
    d = covariance_defect(
        pert_metric(4), "0.08*sin(x1)*cos(x2) + 0.05*cos(x4)", "sin(x3) + 0.4*cos(x1)*sin(x4)", 4
    )
    assert d < 1e-8


def test_p4_covariance_dim5_perturbed():
    d = covariance_defect(
        pert_metric(5), "0.06*sin(x1)*cos(x2) + 0.04*cos(x5)", "sin(x4) + 0.3*cos(x2)*sin(x5)", 4
    )
    assert d < 1e-8


def test_q4_schouten_coefficient_is_pinned_by_covariance():
    # away from the critical dimension the zeroth-order term feels the
    # |rho|^2 coefficient, so covariance fails for the rejected candidate
    args = (pert_metric(5), "0.06*sin(x1)*cos(x2) + 0.04*cos(x5)", "sin(x4) + 0.3*cos(x2)*sin(x5)", 4)
    good = covariance_defect(*args, c_rho=2.0)
    bad = covariance_defect(*args, c_rho=1.0)
    assert good < 1e-8
    assert bad > 1e-5


# ---- critical-dimension Q transformation laws --------------------------------


def test_q2_law_dim2():
    # e^{2 phi} Q2-hat = Q2 - P2 phi (the sign follows the divergence convention)
    m = flat_metric(torus_chart(["x1", "x2"]))
    phi = "0.15*sin(x1) + 0.1*cos(x2)*sin(x1)"
    pts = rand_points(m.chart, 6, 6)
    ctx = MetricContext(m, pts)
    ctx_hat = MetricContext(conformal_rescale(m, phi), pts)
    B = 6
    phiv = jval(sfield(phi, m.chart)(ctx, 0), B)
    lhs = np.exp(2 * phiv) * jval(ops.q2()(ctx_hat, 0), B)
    rhs = jval(ops.q2()(ctx, 0), B) - jval(ops.p2(sfield(phi, m.chart))(ctx, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_q4_law_dim4():
    # e^{4 phi} Q4-hat = Q4 + P4 phi
    m = pert_metric(4)
    phi = "0.08*sin(x1)*cos(x2) + 0.05*cos(x4)"
    pts = rand_points(m.chart, 6, 7)
    ctx = MetricContext(m, pts)
    ctx_hat = MetricContext(conformal_rescale(m, phi), pts)
    B = 6
    phiv = jval(sfield(phi, m.chart)(ctx, 0), B)
    lhs = np.exp(4 * phiv) * jval(ops.q4()(ctx_hat, 0), B)
    rhs = jval(ops.q4()(ctx, 0), B) + jval(ops.p4(sfield(phi, m.chart))(ctx, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---- extrinsic operators ------------------------------------------------------


def test_extrinsic_p3_q3_vanish_on_umbilic():
    emb = sphere_embedding(3, 2.0)
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 8))
    B = 5
    assert np.max(np.abs(jval(ops.ext_q3()(sctx, 0), B))) < 1e-10
    f = sfield("cos(x1) + 0.3*sin(x2)", emb.chart)
    assert np.max(np.abs(jval(ops.ext_p3(f)(sctx, 0), B))) < 1e-10


def test_extrinsic_q2_law_dim2():
    # e^{2 phi} bQ2-hat = bQ2 - bP2 phi, with phi the pulled-back ambient factor
    emb = graph_embedding()
    phi = "0.1*sin(y1) + 0.08*cos(y2)*sin(y3)"
    pts = surface_points(emb, 6, 9)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 6
    phi_pulled = hs.ambient_expression_field(phi, emb.ambient_metric.chart)
    phiv = jval(phi_pulled(a, 0), B)
    lhs = np.exp(2 * phiv) * jval(ops.ext_q2()(b, 0), B)
    rhs = jval(ops.ext_q2()(a, 0), B) - jval(ops.ext_p2(phi_pulled)(a, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    # and the shape correction actually participates
    assert np.max(np.abs(jval(ops.ext_q2()(a, 0), B) - jval(ops.q2()(a, 0), B))) > 1e-4


def test_extrinsic_q3_law_dim3():
    # e^{3 phi} bQ3-hat = bQ3 + bP3 phi
    emb = graph3_embedding()
    phi = "0.1*sin(y1)*cos(y2) + 0.07*cos(y3) + 0.05*sin(y4)"
    pts = surface_points(emb, 5, 10)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    phi_pulled = hs.ambient_expression_field(phi, emb.ambient_metric.chart)
    phiv = jval(phi_pulled(a, 0), B)
    lhs = np.exp(3 * phiv) * jval(ops.ext_q3()(b, 0), B)
    rhs = jval(ops.ext_q3()(a, 0), B) + jval(ops.ext_p3(phi_pulled)(a, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_extrinsic_p4_reduces_to_intrinsic_in_flat_ambient():
    emb = sphere_embedding(4, 1.0)
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 11))
    B = 5
    f = sfield("cos(x1) + 0.2*sin(x2)*sin(x1)", emb.chart)
    ext = jval(ops.ext_p4_umbilic(f)(sctx, 0), B)
    intr = jval(ops.p4(f)(sctx, 0), B)
    assert np.max(np.abs(ext - intr)) < 1e-10
    assert np.max(np.abs(jval(ops.ext_q4_umbilic()(sctx, 0), B) - jval(ops.q4()(sctx, 0), B))) < 1e-10


def test_extrinsic_q4_frozen_values_on_product_slice():
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 12))
    B = 6
    bq4 = jval(ops.ext_q4_umbilic()(sctx, 0), B)
    q4 = jval(ops.q4()(sctx, 0), B)
    assert np.max(np.abs(bq4 - q4 - 9.0 / 32.0)) < 1e-9
    assert np.max(np.abs(bq4 - 25.0 / 96.0)) < 1e-9
    # the local integrand built purely from h, rho, script W agrees here
    assert np.max(np.abs(jval(ops.integrand_i1()(sctx, 0), B) - 25.0 / 96.0)) < 1e-9


def test_extrinsic_p4_routes_agree_on_umbilic():
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 13))
    B = 5
    f = sfield("cos(x1) + 0.3*sin(x2)*cos(x3) + 0.2*sin(x4)", emb.chart)
    a = jval(ops.ext_p4_umbilic(f)(sctx, 0), B)
    b = jval(ops.ext_p4_critical(f)(sctx, 0), B)
    assert np.max(np.abs(a - b)) < 1e-9
    assert np.max(np.abs(a)) > 1e-3


def test_extrinsic_p4_critical_annihilates_constants():
    # general (non-umbilic) 4-surface: a graph inside a flat 5-torus box
    surf = torus_chart(["x1", "x2", "x3", "x4"])
    amb = Chart(
        [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3, 4)] + [Axis("y5", -2.0, 2.0)]
    )
    emb = hs.Embedding(
        surf,
        flat_metric(amb),
        ("x1", "x2", "x3", "x4", "0.1*sin(x1) + 0.08*cos(x2)*sin(x3) + 0.05*sin(x4)*cos(x1)"),
        sigma=1.0,
    )
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 14))
    B = 5
    one = sfield("1", surf)
    assert np.max(np.abs(jval(ops.ext_p4_critical(one)(sctx, 0), B))) < 1e-11


def test_extrinsic_p4_critical_covariance():
    # bidegree (4, 0): e^{4 phi} bP4-hat f = bP4 f for the same f
    surf = torus_chart(["x1", "x2", "x3", "x4"])
    amb = Chart(
        [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3, 4)] + [Axis("y5", -2.0, 2.0)]
    )
    emb = hs.Embedding(
        surf,
        flat_metric(amb),
        ("x1", "x2", "x3", "x4", "0.1*sin(x1) + 0.08*cos(x2)*sin(x3) + 0.05*sin(x4)*cos(x1)"),
        sigma=1.0,
    )
    phi = "0.08*sin(y1)*cos(y2) + 0.06*cos(y3) + 0.04*sin(y5)"
    pts = surface_points(emb, 5, 15)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    f = sfield("sin(x2) + 0.4*cos(x1)*sin(x3) + 0.2*cos(x4)", surf)
    phiv = jval(hs.ambient_expression_field(phi, amb)(a, 0), B)
    lhs = np.exp(4 * phiv) * jval(ops.ext_p4_critical(f)(b, 0), B)
    rhs = jval(ops.ext_p4_critical(f)(a, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_extrinsic_p4_umbilic_covariance_dim5():
    # away from the critical dimension the normal-Weyl corrections are not
    # separately covariant, so this pins their pairing with the zeroth-order
    # term; the base is itself rescaled so that divdiv W != 0 there
    emb = product_slice_s2_s3_embedding()
    phi0 = "0.1*sin(a1)*cos(a2) + 0.07*cos(b1) + 0.05*t + 0.04*sin(b2)*cos(b3)"
    phi1 = "0.08*cos(a1) + 0.06*sin(b1)*cos(b2) + 0.05*sin(a2) + 0.04*t"
    phi1_surf = "0.08*cos(x1) + 0.06*sin(x3)*cos(x4) + 0.05*sin(x2)"
    base = rescaled(emb, phi0)
    hat = rescaled(emb, f"({phi0}) + ({phi1})")
    pts = surface_points(emb, 4, 41)
    B = 4
    a_ctx = hs.EmbeddedSurfaceContext(base, pts)
    b_ctx = hs.EmbeddedSurfaceContext(hat, pts)
    W = ops.normal_weyl_field()
    assert np.max(np.abs(jval(divdiv(W)(a_ctx, 0), B))) > 1e-3
    assert np.max(np.abs(jval(inner22(ops.schouten_field(), W)(a_ctx, 0), B))) > 1e-3
    f_text = "sin(x2) + 0.4*cos(x1)*sin(x3) + 0.2*cos(x4)*sin(x5)"
    f = sfield(f_text, emb.chart)
    fa = sfield(f"exp(0.5*({phi1_surf}))*({f_text})", emb.chart)
    phiv = jval(sfield(phi1_surf, emb.chart)(a_ctx, 0), B)
    lhs = np.exp(4.5 * phiv) * jval(ops.ext_p4_umbilic(f)(b_ctx, 0), B)
    rhs = jval(ops.ext_p4_umbilic(fa)(a_ctx, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_extrinsic_q4_law_dim4():
    # e^{4 phi} bQ4-hat = bQ4 + bP4 phi along the umbilic product slice
    emb = product_slice_embedding()
    phi = "0.1*sin(a1)*cos(a2) + 0.07*cos(a3) + 0.05*t"
    pts = surface_points(emb, 5, 16)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    phi_pulled = hs.ambient_expression_field(phi, emb.ambient_metric.chart)
    phiv = jval(phi_pulled(a, 0), B)
    lhs = np.exp(4 * phiv) * jval(ops.ext_q4_umbilic()(b, 0), B)
    rhs = jval(ops.ext_q4_umbilic()(a, 0), B) + jval(ops.ext_p4_critical(phi_pulled)(a, 0), B)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_pointwise_invariant_under_ambient_rescaling():
    surf = torus_chart(["x1", "x2", "x3", "x4"])
    amb = Chart(
        [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3, 4)] + [Axis("y5", -2.0, 2.0)]
    )
    emb = hs.Embedding(
        surf,
        flat_metric(amb),
        ("x1", "x2", "x3", "x4", "0.1*sin(x1) + 0.08*cos(x2)*sin(x3) + 0.05*sin(x4)*cos(x1)"),
        sigma=1.0,
    )
    phi = "0.08*sin(y1)*cos(y2) + 0.06*cos(y3)*sin(y4) + 0.04*sin(y5)"
    pts = surface_points(emb, 5, 17)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    ca = jval(ops.c_invariant()(a, 0), B)
    cb = jval(ops.c_invariant()(b, 0), B)
    phiv = jval(hs.ambient_expression_field(phi, amb)(a, 0), B)
    assert np.max(np.abs(ca)) > 1e-5
    assert np.max(np.abs(np.exp(4 * phiv) * cb - ca)) < 1e-8


def test_normal_derivative_identity_umbilic():
    for emb, seed in [
        (warped_slice_embedding(), 18),
        (rescaled(product_slice_embedding(), "0.1*sin(a1)*cos(a2) + 0.07*cos(a3) + 0.05*t"), 19),
        (rescaled(warped_slice_embedding(), "0.08*sin(y1) + 0.06*cos(y2)*sin(y3) + 0.05*t"), 20),
    ]:
        sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, seed))
        res = jval(ops.normal_derivative_identity()(sctx, 0), 5)
        assert np.max(np.abs(res)) < 1e-9


def test_i2_i3_vanish_on_umbilic():
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 21))
    B = 5
    assert np.max(np.abs(jval(ops.integrand_i2()(sctx, 0), B))) < 1e-12
    assert np.max(np.abs(jval(ops.integrand_i3()(sctx, 0), B))) < 1e-12


def test_umbilic_guard_raises():
    emb = graph3_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 4, 22))
    f = sfield("cos(x1)", emb.chart)
    with pytest.raises(ops.NonUmbilicError):
        ops.ext_q4_umbilic()(sctx, 0)
    with pytest.raises(ops.NonUmbilicError):
        ops.normal_derivative_identity()(sctx, 0)


def test_wrong_context_and_dimension_guards():
    m = pert_metric(3)
    ctx = MetricContext(m, rand_points(m.chart, 3, 23))
    with pytest.raises(jets.JetError):
        ops.ext_q3()(ctx, 0)
    emb = graph3_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 3, 24))
    f = sfield("cos(x1)", emb.chart)
    with pytest.raises(jets.JetError):
        ops.ext_p4_critical(f)(sctx, 0)  # dim 3, needs 4
    with pytest.raises(jets.DegreeExhaustedError):
        ops.c_invariant()(
            hs.EmbeddedSurfaceContext(
                product_slice_embedding(), surface_points(product_slice_embedding(), 3, 25)
            ),
            1,
        )


# ---- the fourth-order integrand and its ADS-type decomposition --------------

_GRAPHS = ("GRAPH(T4_IN_PERT_T5)", "GRAPH(T4_IN_T5)")


def graph_values(name, field, seed=31, B=6):
    """A field's values on a fresh context of a catalog graph at B points."""
    scn = parse_scenario(name)
    pts = np.stack([np.random.default_rng(seed + k).uniform(0.0, TAU, B) for k in range(4)])
    return jval(field(scn.context(pts, degree_cap=6), 0), B)


@pytest.mark.parametrize("name", _GRAPHS)
def test_integrands_equal_their_term_by_term_references(name):
    for new, ref in (
        (ops.integrand_i1, reference_integrand_i1),
        (ops.integrand_i2, reference_integrand_i2),
        (ops.integrand_i3, reference_integrand_i3),
    ):
        np.testing.assert_array_equal(graph_values(name, new()), graph_values(name, ref()))
    c, want = graph_values(name, ops.c_invariant()), graph_values(name, reference_c_invariant())
    assert np.max(np.abs(want)) > 1e-4
    assert np.max(np.abs(c - want)) <= 1e-14 * np.max(np.abs(want))


def test_each_tensor_is_raised_once_per_context(monkeypatch):
    # the total integrand reads 10 distinct matrix products g^-1 X or X Y,
    # c_invariant 13; the trace of (g^-1 Lo)^3 contracts only the diagonal
    # of its last product, which is no matrix product
    from extrinsicq import geometry

    calls, product = [], geometry.matrix_product
    monkeypatch.setattr(geometry, "matrix_product",
                        lambda A, B: calls.append((id(A), id(B))) or product(A, B))
    for field, want in (
        (ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3(), 10),
        (ops.c_invariant(), 13),
    ):
        calls.clear()
        scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
        pts = np.stack([np.random.default_rng(33 + k).uniform(0.0, TAU, 4) for k in range(4)])
        field(scn.context(pts), 0)
        assert len(calls) == len(set(calls)) == want


@pytest.mark.parametrize("name", _GRAPHS)
def test_ads_decomposition_sums_to_the_integrand(name):
    total = graph_values(name, ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3())
    euler, invariant, divergence = ops.ads_parts()
    parts = graph_values(name, euler + invariant + divergence)
    # every part carries weight, so the sum does not hold trivially
    assert min(np.max(np.abs(graph_values(name, p))) for p in (euler, invariant, divergence)) > 1e-4
    assert np.max(np.abs(total - parts)) <= 1e-12 * np.max(np.abs(total))


def test_ads_parts_need_dimension_four():
    emb = graph3_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 3, 32))
    for part in ops.ads_parts():
        with pytest.raises(jets.JetError):
            part(sctx, 0)


# ---- degree plans shared by the contexts of one job -------------------------


@pytest.mark.parametrize("B", [8, 128])
@pytest.mark.parametrize("name", ["GRAPH(T4_IN_PERT_T5)", "PERT_T4"])
def test_a_shared_plan_gives_the_bits_of_a_fresh_context(name, B):
    """Fields on a context whose plan a sibling filled, built at the planned
    degrees and truncated, against the same fields on a fresh context; at 8
    points the stacked products run, at 128 the layered ones."""
    scn = parse_scenario(name)
    pts = np.stack([np.random.default_rng(40 + k).uniform(0.0, TAU, B) for k in range(4)])
    f = expression_field(parse_expression("sin(x1)*cos(x2) + 0.3*cos(x3 - x4)", scn.chart.names))
    fields = {"q4": ops.q4()}
    if scn.kind == "embedded":
        fields["c_invariant"] = ops.c_invariant()
        fields["total_q4"] = ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()
        fields["ext_p4_critical(f)"] = ops.ext_p4_critical(f)
    else:
        fields["p4(f)"] = ops.p4(f)
    plan = DegreePlan(6)
    # a conformal check's other context learns the plan first
    sibling = scn.rescaled(conf_phi(name)).context(pts, 6, plan)
    for field in fields.values():
        field(sibling, 0)
    shared, fresh = scn.context(pts, 6, plan), scn.context(pts, 6)
    for label, field in fields.items():
        got, want = (jet_coeffs(field(c, 0), B, 1) for c in (shared, fresh))
        assert_same_bits(got, want)


# ---- a point's bits do not depend on its batch -----------------------------


@functools.cache
def _values_in_batches(batch, n=1024):
    """c_invariant and the total-Q4 integrand on GRAPH(T4_IN_PERT_T5) at the
    first n points of its (10, 12) quadrature rule, ``batch`` points a
    context, the contexts sharing one plan as the chunks of ``integrate`` do."""
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    pts = Quadrature(scn.chart, 10, 12).points[:, :n]
    fields = [ops.c_invariant(), ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()]
    plan = DegreePlan(6)
    out = []
    for lo in range(0, n, batch):
        ctx = scn.context(pts[:, lo : lo + batch], 6, plan)
        out.append([jval(f(ctx, 0), ctx.nbatch) for f in fields])
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("batch", [1, 8, 127, 128])
def test_a_points_bits_do_not_depend_on_its_batch(batch):
    """Alone, in small batches and on both sides of the layered kernel's
    threshold, every point gets the bits of one 1,024-point batch."""
    assert_same_bits(_values_in_batches(batch), _values_in_batches(1024))
