import itertools

import numpy as np
import pytest

from extrinsicq import curvature, geometry, jets
from extrinsicq import hypersurface as hs
from extrinsicq.geometry import (
    Axis,
    Chart,
    Field,
    Metric,
    MetricContext,
    covariant,
    differential,
    divergence2,
    expression_field,
    hessian,
    jet_coeffs,
    metric_field,
)
from extrinsicq.exprlang import parse_expression
from extrinsicq.jets import JetError
from extrinsicq.scenarios import parse_scenario
from helpers import (
    assert_same_bits,
    count_products,
    jval,
    reference_dot,
    reference_invert_spd,
    reference_nested,
    reference_gamma,
    reference_riemann_first_kind,
    reference_weyl_negated_by_hand,
    reference_weyl_norm_sq,
    reference_weyl_norm_sq_negated_by_hand,
)

TWO_PI = 2.0 * np.pi


def torus_chart(n):
    return Chart([Axis(f"x{i+1}", 0.0, TWO_PI, periodic=True) for i in range(n)])


def sphere_metric(n, r=1.0):
    """Round S^n in polar coordinates; axis k carries sin^2 of all before it."""
    axes = [Axis(f"x{i+1}", 0.0, np.pi) for i in range(n - 1)]
    axes.append(Axis(f"x{n}", 0.0, TWO_PI, periodic=True))
    comps = {}
    for k in range(n):
        factors = [f"{r * r}"] + [f"sin(x{j+1})^2" for j in range(k)]
        comps[f"g{k+1}{k+1}"] = "*".join(factors)
    return Metric.from_dict(Chart(axes), comps)


def pert_t3():
    return Metric.from_dict(
        torus_chart(3),
        {
            "g11": "1 + 0.1*sin(x1)*cos(x2)",
            "g22": "1 + 0.08*cos(x2)*sin(x3)",
            "g33": "1 + 0.06*sin(x3)*cos(x1)",
            "g12": "0.05*sin(x1 + x3)",
            "g23": "0.04*cos(x1 + x2)",
        },
    )


def pert_t4():
    return Metric.from_dict(
        torus_chart(4),
        {
            "g11": "1 + 0.08*sin(x1)*cos(x2)",
            "g22": "1 + 0.07*cos(x2)*sin(x3)",
            "g33": "1 + 0.06*sin(x3)*cos(x4)",
            "g44": "1 + 0.05*cos(x4)*sin(x1)",
            "g12": "0.04*sin(x1 + x2)",
            "g13": "0.03*cos(x2 + x4)",
            "g24": "0.03*sin(x3 + x1)",
            "g34": "0.02*cos(x1 + x3)",
        },
    )


def product_s2_s2(r1=1.0, r2=2.0):
    ch = Chart(
        [
            Axis("x1", 0.0, np.pi),
            Axis("x2", 0.0, TWO_PI, periodic=True),
            Axis("x3", 0.0, np.pi),
            Axis("x4", 0.0, TWO_PI, periodic=True),
        ]
    )
    return Metric.from_dict(
        ch,
        {
            "g11": f"{r1 * r1}",
            "g22": f"{r1 * r1}*sin(x1)^2",
            "g33": f"{r2 * r2}",
            "g44": f"{r2 * r2}*sin(x3)^2",
        },
    )


def rand_points(chart, m, seed):
    rng = np.random.default_rng(seed)
    pts = np.empty((chart.dim, m))
    for i, ax in enumerate(chart.axes):
        pad = 0.0 if ax.periodic else 0.2 * (ax.hi - ax.lo)
        pts[i] = rng.uniform(ax.lo + pad, ax.hi - pad, m)
    return pts


def tensor2_values(t, B):
    return np.array([[jval(x, B) for x in row] for row in t])


def tensor4_values(t, B):
    n = len(t)
    return np.array(
        [
            [[[jval(t[i][j][k][l], B) for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_two_sphere(r):
    m = sphere_metric(2, r)
    pts = rand_points(m.chart, 5, 1)
    ctx = MetricContext(m, pts)
    B = ctx.nbatch
    # R_1212 = det g / r^2, positive for the round sphere
    want = r * r * np.sin(pts[0]) ** 2
    R = curvature.riemann(ctx, 0)
    np.testing.assert_allclose(jval(R[0][1][0][1], B), want, rtol=1e-11)
    ric = tensor2_values(curvature.ricci(ctx, 0), B)
    g = tensor2_values(ctx.g(0), B)
    np.testing.assert_allclose(ric, g / (r * r), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(jval(curvature.scal(ctx, 0), B), 2.0 / r**2, rtol=1e-10)
    np.testing.assert_allclose(jval(curvature.jfun(ctx, 0), B), 1.0 / r**2, rtol=1e-10)


def test_round_four_sphere():
    m = sphere_metric(4)
    pts = rand_points(m.chart, 4, 2)
    ctx = MetricContext(m, pts)
    B = ctx.nbatch
    np.testing.assert_allclose(jval(curvature.scal(ctx, 0), B), 12.0, rtol=1e-9)
    np.testing.assert_allclose(jval(curvature.jfun(ctx, 0), B), 2.0, rtol=1e-9)
    rho = tensor2_values(curvature.schouten(ctx, 0), B)
    g = tensor2_values(ctx.g(0), B)
    np.testing.assert_allclose(rho, g / 2.0, rtol=1e-9, atol=1e-11)
    W = tensor4_values(curvature.weyl(ctx, 0), B)
    assert np.max(np.abs(W)) < 1e-9
    np.testing.assert_allclose(jval(curvature.weyl_norm_sq(ctx, 0), B), 0.0, atol=1e-9)


def test_product_of_unequal_spheres():
    m = product_s2_s2(1.0, 2.0)
    pts = rand_points(m.chart, 5, 3)
    ctx = MetricContext(m, pts)
    B = ctx.nbatch
    np.testing.assert_allclose(jval(curvature.scal(ctx, 0), B), 2.5, rtol=1e-10)
    np.testing.assert_allclose(jval(curvature.jfun(ctx, 0), B), 5.0 / 12.0, rtol=1e-10)
    rho = tensor2_values(curvature.schouten(ctx, 0), B)
    g = tensor2_values(ctx.g(0), B)
    want = np.zeros_like(rho)
    want[:2, :2] = (7.0 / 24.0) * g[:2, :2]
    want[2:, 2:] = (-1.0 / 12.0) * g[2:, 2:]
    np.testing.assert_allclose(rho, want, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(
        jval(curvature.weyl_norm_sq(ctx, 0), B), 25.0 / 12.0, rtol=1e-9
    )


def test_riemann_symmetries_generic():
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 4, 4))
    B = ctx.nbatch
    R = tensor4_values(curvature.riemann(ctx, 0), B)
    np.testing.assert_allclose(R, -np.swapaxes(R, 0, 1), atol=1e-12)
    np.testing.assert_allclose(R, -np.swapaxes(R, 2, 3), atol=1e-10)
    np.testing.assert_allclose(R, np.moveaxis(R, [0, 1, 2, 3], [2, 3, 0, 1]), atol=1e-10)
    # first Bianchi: R_{i[jkl]} = 0
    bianchi = R + np.moveaxis(R, [1, 2, 3], [2, 3, 1]) + np.moveaxis(R, [1, 2, 3], [3, 1, 2])
    np.testing.assert_allclose(bianchi, 0.0, atol=1e-10)


def test_both_ricci_contractions_agree():
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 4, 5))
    B = ctx.nbatch
    R = tensor4_values(curvature.riemann(ctx, 0), B)
    g = tensor2_values(ctx.g(0), B)
    gi = np.linalg.inv(np.moveaxis(g, 2, 0))
    ric = tensor2_values(curvature.ricci(ctx, 0), B)
    alt = np.einsum("bik,ijklb->jlb", gi, R)
    np.testing.assert_allclose(alt, ric, rtol=1e-9, atol=1e-12)


def test_contracted_second_bianchi():
    # div rho = dJ, a sharp joint test of Riemann, Ricci, and the covariant
    # derivative conventions on a generic metric
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 4, 6))
    B = ctx.nbatch
    rho = Field(2, lambda c, d: curvature.schouten(c, d))
    jf = Field(0, lambda c, d: curvature.jfun(c, d))
    lhs = divergence2(rho)(ctx, 0)
    rhs = differential(jf)(ctx, 0)
    for i in range(3):
        np.testing.assert_allclose(jval(lhs[i], B), jval(rhs[i], B), rtol=1e-8, atol=1e-11)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("name", ["PERT_T4", "CONF_PERTURBED(ROUND_S(4,1))"])
def test_second_bianchi(name, d):
    # nabla_e R_abcd + nabla_c R_abde + nabla_d R_abec = 0, uncontracted
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, 4, 23))
    n, B, nc = ctx.dim, ctx.nbatch, jets.jet_space(ctx.dim, d).ncoeffs
    R1, ga = curvature.riemann(ctx, d + 1), ctx.gamma(d)
    nabla_R = np.empty((n,) * 5 + (nc, B))
    for e, a, b, c, f in itertools.product(range(n), repeat=5):
        nabla_R[e, a, b, c, f] = jet_coeffs(covariant(R1, ga, [(e, (a, b, c, f))])[0], B, nc)
    cyclic = (
        nabla_R
        + np.einsum("cabfe...->eabcf...", nabla_R)
        + np.einsum("fabec...->eabcf...", nabla_R)
    )
    scale = np.max(np.abs(nabla_R))
    assert scale > 1e-3
    np.testing.assert_allclose(cyclic, 0.0, rtol=0, atol=1e-12 * scale)


def test_weyl_three_dimensions_vanishes():
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 3, 7))
    W = tensor4_values(curvature.weyl(ctx, 0), ctx.nbatch)
    assert np.max(np.abs(W)) < 1e-9


def test_weyl_trace_free_generic():
    m = pert_t4()
    ctx = MetricContext(m, rand_points(m.chart, 3, 8))
    B = ctx.nbatch
    W = tensor4_values(curvature.weyl(ctx, 0), B)
    g = tensor2_values(ctx.g(0), B)
    gi = np.linalg.inv(np.moveaxis(g, 2, 0))
    tr = np.einsum("bik,ijklb->jlb", gi, W)
    np.testing.assert_allclose(tr, 0.0, atol=1e-10)


def test_weyl_conformal_covariance():
    from extrinsicq.geometry import conformal_rescale

    m = pert_t4()
    phi = "0.15*sin(x1)*cos(x3) + 0.1*cos(x2)*sin(x4)"
    pts = rand_points(m.chart, 3, 9)
    ctx = MetricContext(m, pts)
    ctxh = MetricContext(conformal_rescale(m, phi), pts)
    B = ctx.nbatch
    W = tensor4_values(curvature.weyl(ctx, 0), B)
    Wh = tensor4_values(curvature.weyl(ctxh, 0), B)
    f = np.exp(2.0 * (0.15 * np.sin(pts[0]) * np.cos(pts[2]) + 0.1 * np.cos(pts[1]) * np.sin(pts[3])))
    np.testing.assert_allclose(Wh, W * f, rtol=1e-7, atol=1e-10)


def test_schouten_conformal_law():
    from extrinsicq.geometry import conformal_rescale

    m = pert_t3()
    phi_text = "0.2*sin(x1) + 0.1*cos(x2)*sin(x3)"
    pts = rand_points(m.chart, 4, 10)
    ctx = MetricContext(m, pts)
    ctxh = MetricContext(conformal_rescale(m, phi_text), pts)
    B = ctx.nbatch
    phi = expression_field(parse_expression(phi_text, m.chart.names))
    dphi = differential(phi)
    rho = tensor2_values(curvature.schouten(ctx, 0), B)
    rhoh = tensor2_values(curvature.schouten(ctxh, 0), B)
    H = tensor2_values(hessian(phi)(ctx, 0), B)
    dp = np.array([jval(x, B) for x in dphi(ctx, 0)])
    g = tensor2_values(ctx.g(0), B)
    grad_sq = np.einsum("bij,ib,jb->b", np.linalg.inv(np.moveaxis(g, -1, 0)), dp, dp)
    want = rho - H + np.einsum("ib,jb->ijb", dp, dp) - 0.5 * grad_sq[None, None, :] * g
    np.testing.assert_allclose(rhoh, want, rtol=1e-8, atol=1e-10)


def test_low_dimension_guards():
    m = Metric.from_dict(torus_chart(2), {"g11": "1", "g22": "1"})
    ctx = MetricContext(m, np.array([[0.1], [0.2]]))
    with pytest.raises(JetError):
        curvature.schouten(ctx, 0)
    with pytest.raises(JetError):
        curvature.weyl(ctx, 0)


# ---- reference builders ------------------------------------------------------
# The component-by-component definitions: R^m_ijk from the second-kind
# symbols, lowered on the last slot, for every (i < j, k, l); the Weyl tensor
# as R minus the full Kulkarni-Nomizu product over all n^4 components.


def reference_riemann(ctx, d):
    n = ctx.dim
    ga = ctx.gamma(d + 1)
    g = ctx.g(d)
    zero = jets.constant(jets.jet_space(n, d), 0.0)
    lo = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                up = []
                for m in range(n):
                    t = ga[m][i][k].partial(j) - ga[m][j][k].partial(i)
                    for a in range(n):
                        t = t + ga[m][j][a] * ga[a][i][k] - ga[m][i][a] * ga[a][j][k]
                    up.append(t)
                for l in range(n):
                    r = reference_dot(g[l], up)
                    lo[i][j][k][l] = r
                    lo[j][i][k][l] = -r
    return lo


def reference_weyl(ctx, d):
    n = ctx.dim
    R = reference_riemann(ctx, d)
    A, B = curvature.schouten(ctx, d), ctx.g(d)
    W = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        kn = A[i][k] * B[j][l] + B[i][k] * A[j][l] - A[i][l] * B[j][k] - B[i][l] * A[j][k]
        W[i][j][k][l] = R[i][j][k][l] - kn
    return W


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("name", ["PERT_T4", "ROUND_S(3,1.3)", "GRAPH(T4_IN_PERT_T5)"])
def test_curvature_builders_match_the_reference(name, d):
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, 6, 11))
    if scn.kind == "embedded":
        ctx = ctx.ambient  # the 5-dimensional ambient metric along the surface
    B, nc = ctx.nbatch, jets.jet_space(ctx.dim, d).ncoeffs
    want_R = jet_coeffs(reference_riemann(ctx, d), B, nc)
    scale = np.max(np.abs(want_R))
    np.testing.assert_allclose(
        jet_coeffs(curvature.riemann(ctx, d), B, nc), want_R, rtol=0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        jet_coeffs(curvature.weyl(ctx, d), B, nc),
        jet_coeffs(reference_weyl(ctx, d), B, nc),
        rtol=0,
        atol=1e-12 * scale,
    )


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("name", ["PERT_T4", "ROUND_S(3,1.3)", "GRAPH(T4_IN_PERT_T5)"])
def test_connection_builders_match_the_parent_forms(name, d):
    # the first-kind symbols come from one builder; every bit stays the same
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, 6, 12))
    if scn.kind == "embedded":
        ctx = ctx.ambient
    B, nc = ctx.nbatch, jets.jet_space(ctx.dim, d).ncoeffs
    np.testing.assert_array_equal(
        jet_coeffs(ctx.gamma(d), B, nc), jet_coeffs(reference_gamma(ctx, d), B, nc)
    )
    np.testing.assert_array_equal(
        jet_coeffs(curvature.riemann(ctx, d), B, nc),
        jet_coeffs(reference_riemann_first_kind(ctx, d), B, nc),
    )


@pytest.mark.parametrize("batch", [6, 128])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("name", ["PERT_T4", "PERT_T5", "GRAPH(T4_IN_PERT_T5)"])
def test_weyl_builders_match_the_hand_negated_forms(name, d, batch):
    # a sign per term of jets.contract keeps the bits of negated operands,
    # on both sides of the layered threshold
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, batch, 13))
    if scn.kind == "embedded":
        ctx = ctx.ambient
    nc = jets.jet_space(ctx.dim, d).ncoeffs
    assert_same_bits(
        jet_coeffs(curvature.weyl(ctx, d), batch, nc),
        jet_coeffs(reference_weyl_negated_by_hand(ctx, d), batch, nc),
    )
    assert_same_bits(
        jet_coeffs(curvature.weyl_norm_sq(ctx, d), batch, nc),
        jet_coeffs(reference_weyl_norm_sq_negated_by_hand(ctx, d), batch, nc),
    )


def test_fill_computes_each_pair_of_pairs_once():
    n = 4
    rng = np.random.default_rng(14)
    calls = curvature.independent_components(n)
    comps = rng.standard_normal(len(calls))

    R = np.array(curvature._fill_curvature(list(comps), n, 0.0))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert list(calls) == [p + q for a, p in enumerate(pairs) for q in pairs[a:]]
    # the three terms of the first Bianchi identity are each computed
    assert {(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)} <= set(calls)
    # each component lands at its own indices
    assert [R[ix] for ix in calls] == list(comps)
    np.testing.assert_array_equal(R, -np.swapaxes(R, 0, 1))
    np.testing.assert_array_equal(R, -np.swapaxes(R, 2, 3))
    np.testing.assert_array_equal(R, np.moveaxis(R, [0, 1, 2, 3], [2, 3, 0, 1]))


# i < j, k < l, (i, j) <= (k, l) in five variables: 10 pairs, 55 pairs of pairs
RIEMANN_COMPONENTS_5 = 55
RIEMANN_PRODUCTS_5 = 2 * 5 * RIEMANN_COMPONENTS_5


def test_riemann_build_product_count(monkeypatch):
    # every product is a term of the packed contraction
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    ctx = scn.context(rand_points(scn.chart, 4, 15)).ambient
    d = 1
    # the inputs the build reads, built beforehand
    ctx.g(d + 2)
    ctx.gamma(d)
    count = count_products(monkeypatch)
    curvature.riemann(ctx, d)
    assert 0 < count[0] <= RIEMANN_PRODUCTS_5


def test_riemann_build_makes_one_dot_rows_call(monkeypatch):
    # the packed builder's one call of the contraction core; no nested rows
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    ctx = scn.context(rand_points(scn.chart, 4, 15)).ambient
    ctx.g(3)
    ctx.gamma(1)
    calls, contract, cores, core = [], jets.contract, [], jets._dot_core
    monkeypatch.setattr(jets, "contract", lambda *args: calls.append(1) or contract(*args))
    monkeypatch.setattr(jets, "_dot_core", lambda *args: cores.append(1) or core(*args))
    curvature.riemann(ctx, 1)
    assert len(calls) == 1
    # 55 rows of 10 terms at 4 points and degree 1 (12 slots of the padded
    # table a product): chunks of 34 rows keep each gather within 2**14 elements
    assert jets._stack_plan(jets.jet_space(5, 1), 4, 10)[0] == 34
    assert len(cores) == 2


# the last is conformally flat, so there |W|^2 is rounding noise on both sides
@pytest.mark.parametrize(
    "name, curved", [("PERT_T4", True), ("PERT_T5", True), ("CONF_PERTURBED(ROUND_S(4,1))", False)]
)
def test_weyl_norm_by_the_two_form_metric_matches_raising_each_index(name, curved):
    scn = parse_scenario(name)
    B = 6
    ctx = scn.context(rand_points(scn.chart, B, 16))
    want = jval(reference_weyl_norm_sq(ctx, 1), B)
    got = jval(curvature.weyl_norm_sq(ctx, 1), B)
    scale = np.max(np.abs(want))
    assert (scale > 1e-3) == curved
    assert np.max(np.abs(got - want)) <= 1e-12 * (scale if curved else 1.0)


def test_weyl_norm_product_count(monkeypatch):
    # 6 pairs at n = 4: G costs 2 * 36 products, G W 36 * 6, the trace 36;
    # raising each index of W in turn took 4 n^5 = 4096
    scn = parse_scenario("PERT_T4")
    ctx = scn.context(rand_points(scn.chart, 4, 17))
    curvature.weyl(ctx, 0)
    ctx.ginv(0)
    count = count_products(monkeypatch)
    curvature.weyl_norm_sq(ctx, 0)
    assert 0 < count[0] <= 400


def _entries(t):
    return [x for r in t for x in _entries(r)] if isinstance(t, list) else [t]


def _assert_same_tensor(got, want, B, nc, name):
    """Bit for bit, and each entry batched where the nested jet is."""
    assert_same_bits(jet_coeffs(got, B, nc), jet_coeffs(want, B, nc))
    got_b, want_b = [x.batch for x in _entries(got)], [x.batch for x in _entries(want)]
    assert got_b == want_b, name


# (scenario, its ambient context): constant and zero metric entries (FLAT_T4,
# ROUND_S(4,1)), a dense one (PERT_T4), an embedded surface and its ambient;
# and a whole chunk of the quadrature workloads for the dense metric and the
# ambient one
_PACKED_CASES = [("PERT_T4", False), ("ROUND_S(4,1)", False), ("FLAT_T4", False),
                 ("GRAPH(T4_IN_PERT_T5)", False), ("GRAPH(T4_IN_PERT_T5)", True)]


@pytest.mark.parametrize(
    "name, ambient, points",
    [(*case, points) for points in (1, 8, 127, 128, 353) for case in _PACKED_CASES]
    + [("PERT_T4", False, 1024), ("GRAPH(T4_IN_PERT_T5)", True, 1024)],
)
def test_packed_builders_match_the_nested_reference(name, ambient, points):
    # on both sides of the layered threshold, each packed tensor has the
    # bits the nested builders gave, entry by entry
    scn = parse_scenario(name)
    surface = scn.context(rand_points(scn.chart, points, 31))
    ctx = surface.ambient if ambient else surface
    d = 2  # from degree 2 on a product's pairs are summed in an order of their own
    nc = jets.jet_space(ctx.dim, d).ncoeffs
    want = reference_nested(ctx, d)
    got = {
        "ginv": ctx.ginv(d), "gamma": ctx.gamma(d), "riemann": curvature.riemann(ctx, d),
        "ricci": curvature.ricci(ctx, d), "scal": curvature.scal(ctx, d),
        "J": curvature.jfun(ctx, d), "schouten": curvature.schouten(ctx, d),
        "weyl": curvature.weyl(ctx, d), "weylnormsq": curvature.weyl_norm_sq(ctx, d),
    }
    assert set(want) == set(got)
    for key in want:
        _assert_same_tensor(got[key], want[key], points, nc, key)
    if scn.kind == "embedded" and not ambient:
        # the 5 x 5 ambient inverse along the surface
        gbar = hs.ambient_metric_on_surface(surface, d)
        _assert_same_tensor(hs.ambient_inverse_on_surface(surface, d),
                            reference_invert_spd(gbar, surface, d), points, nc, "gbar_inv")


@pytest.mark.parametrize("points", [4, 128])
def test_riemann_builds_the_first_kind_symbols_once(monkeypatch, points):
    # riemann hands its first-kind symbols to the gamma it asks for, which
    # raises their prefix: one build, and gamma's bits those of its own build
    scn = parse_scenario("PERT_T4")
    pts, calls, first = rand_points(scn.chart, points, 33), [], geometry.christoffel_first

    def counted(g1):
        calls.append(g1)
        return first(g1)

    monkeypatch.setattr(geometry, "christoffel_first", counted)
    monkeypatch.setattr(curvature, "christoffel_first", counted)
    ctx = scn.context(pts)
    curvature.riemann(ctx, 1)
    assert len(calls) == 1
    nc = jets.jet_space(4, 1).ncoeffs
    own = scn.context(pts).gamma(1)
    assert len(calls) == 2
    assert_same_bits(jet_coeffs(ctx.gamma(1), points, nc), jet_coeffs(own, points, nc))
    # a plan that wants gamma deeper than the symbols riemann made: gamma
    # builds its own at that degree
    planned = scn.context(pts)
    planned.plan["gamma"] = 3
    curvature.riemann(planned, 1)
    assert len(calls) == 4 and ("gamma", 3) in planned._cache


def test_inverse_leaves_out_zero_products_only_where_the_target_holds_no_minus_zero(
    monkeypatch,
):
    # x - (±0) = x except for x = -0, where -0 - (-0) is +0: the product of a
    # pivot-row entry that is ±0 everywhere is left out of a target without
    # -0 and made for one with -0, and every entry keeps the full
    # subtraction's bits
    from extrinsicq.geometry import _eliminate

    sp, B = jets.jet_space(2, 2), 200
    a = np.random.default_rng(34).standard_normal((sp.ncoeffs, 2, 4, B))
    a[:, 0, 1], a[:, 0, 2] = 0.0, -0.0  # pivot-row entries that are ±0
    a[:, 1, 2, ::2] = -0.0  # a target with -0 at half the points
    a[:, 1, 0] = np.abs(a[:, 1, 0])  # f > 0, so f * (-0) is -0
    both = np.zeros(4, bool)
    want = a[:, 1] - jets.mul_entries(sp, a[:, 1, :1], a[:, 0], both)
    assert np.signbit(a[:, 1, 2, ::2]).all() and not np.signbit(want[:, 2, ::2]).any()
    made, mul = [], jets.mul_entries
    monkeypatch.setattr(jets, "mul_entries",
                        lambda sp, f, y, n=None: made.append(y.shape[1]) or mul(sp, f, y, n))
    _eliminate(sp, a, 1, 0, both, ~a[:, 0].any(axis=(0, 2)))
    assert sum(made) == 3  # the product with the +0 entry left out
    assert_same_bits(a[:, 1], want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("points", [3, 200])
@pytest.mark.parametrize(
    "comps, message",
    [
        ({"g11": "1", "g22": "-1"}, "pivot 2 is -1.0000e+00"),
        ({"g11": "sin(x1)", "g22": "1"}, "pivot 1 is"),
        ({"g11": "1", "g22": "1", "g12": "1"}, "pivot 2 is 0.0000e+00"),
        ({"g11": "exp(800*x1)", "g22": "1"}, "exceed the float range"),
    ],
)
def test_packed_inverse_raises_the_nested_messages(comps, message, points):
    from extrinsicq.geometry import _invert_spd

    m = Metric.from_dict(torus_chart(2), comps)
    pts = np.vstack([np.linspace(0.5, 6.0, points), np.full(points, 0.3)])
    ctx = MetricContext(m, pts)
    g = ctx.g(1)
    with pytest.raises(jets.SingularFieldError) as want:
        reference_invert_spd(g, ctx, 1)
    with pytest.raises(jets.SingularFieldError) as got:
        _invert_spd(g, ctx, 1)
    assert message in str(want.value)
    assert str(got.value) == str(want.value)
