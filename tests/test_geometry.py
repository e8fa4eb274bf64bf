import itertools

import numpy as np
import pytest

from extrinsicq import jets
from extrinsicq.exprlang import ExprError, parse_expression
from extrinsicq.geometry import (
    Axis,
    Chart,
    Field,
    Metric,
    MetricContext,
    apply2,
    conformal_rescale,
    constant_field,
    covariant,
    differential,
    divergence,
    divergence2,
    expression_field,
    hessian,
    inner22,
    jet_coeffs,
    jet_values,
    laplacian,
    metric_field,
    norm2sq,
    square2,
    trace_cube,
)
from extrinsicq.jets import DegreeExhaustedError, JetError, SingularFieldError
from extrinsicq.scenarios import parse_scenario
from helpers import jval, reference_divergence2, reference_hessian, richardson_partial

TWO_PI = 2.0 * np.pi


def torus_chart(n):
    return Chart([Axis(f"x{i+1}", 0.0, TWO_PI, periodic=True) for i in range(n)])


def flat_metric(n):
    return Metric.from_dict(torus_chart(n), {f"g{i+1}{i+1}": "1" for i in range(n)})


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


def sphere2_metric(r=1.0):
    ch = Chart([Axis("x1", 0.0, np.pi), Axis("x2", 0.0, TWO_PI, periodic=True)])
    return Metric.from_dict(ch, {"g11": f"{r * r}", "g22": f"{r * r}*sin(x1)^2"})


def rand_points(chart, m, seed):
    rng = np.random.default_rng(seed)
    pts = np.empty((chart.dim, m))
    for i, ax in enumerate(chart.axes):
        pad = 0.0 if ax.periodic else 0.15 * (ax.hi - ax.lo)
        pts[i] = rng.uniform(ax.lo + pad, ax.hi - pad, m)
    return pts


def metric_values(metric, ctx):
    """(n, n, B) array of metric component values."""
    g = ctx.g(0)
    n = ctx.dim
    B = ctx.nbatch
    return np.array([[jval(g[i][j], B) for j in range(n)] for i in range(n)])


def test_chart_dimension_bounds():
    with pytest.raises(JetError):
        Chart([Axis("x1", 0.0, 1.0)])
    with pytest.raises(JetError):
        Chart([Axis(f"x{i}", 0.0, 1.0) for i in range(7)])
    with pytest.raises(JetError):
        Chart([Axis("x1", 0.0, 1.0), Axis("x1", 0.0, 1.0)])
    with pytest.raises(JetError):
        Axis("x1", 1.0, 1.0)


def test_metric_from_dict_validation():
    ch = torus_chart(2)
    with pytest.raises(JetError, match="missing diagonal"):
        Metric.from_dict(ch, {"g11": "1"})
    with pytest.raises(JetError, match="bad metric component key"):
        Metric.from_dict(ch, {"g11": "1", "g22": "1", "h12": "0"})
    with pytest.raises(JetError, match="out of range"):
        Metric.from_dict(ch, {"g11": "1", "g22": "1", "g13": "0"})
    with pytest.raises(JetError, match="disagree"):
        Metric.from_dict(ch, {"g11": "1", "g22": "1", "g12": "x1", "g21": "x2"})


def test_metric_expression_errors_name_the_component():
    ch = torus_chart(2)
    with pytest.raises(ExprError, match="g12"):
        Metric.from_dict(ch, {"g11": "1", "g22": "1", "g12": "sin(x9)"})


def test_flat_metric_has_trivial_geometry():
    m = flat_metric(3)
    ctx = MetricContext(m, rand_points(m.chart, 5, 0))
    ga = ctx.gamma(2)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert not np.any(ga[k][i][j].coeffs)
    gi = ctx.ginv(2)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            np.testing.assert_allclose(np.atleast_1d(gi[i][j].value), want, atol=1e-15)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("name", ["PERT_T4", "CONF_PERTURBED(ROUND_S(4,1))"])
def test_every_component_of_nabla_g_vanishes(name, d):
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, 5, 21))
    n, B, nc = ctx.dim, ctx.nbatch, jets.jet_space(ctx.dim, d).ncoeffs
    g1, ga = ctx.g(d + 1), ctx.gamma(d)
    idx = range(n)
    nabla_g = [[[covariant(g1, ga, c, (a, b)) for b in idx] for a in idx] for c in idx]
    dg = [[[g1[a][b].partial(c) for b in idx] for a in idx] for c in idx]
    scale = np.max(np.abs(jet_coeffs(dg, B, nc)))
    np.testing.assert_allclose(jet_coeffs(nabla_g, B, nc), 0.0, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("name", ["PERT_T4", "GRAPH(T4_IN_PERT_T5)"])
def test_hessian_and_divergence2_match_the_parent_forms(name, d):
    scn = parse_scenario(name)
    ctx = scn.context(rand_points(scn.chart, 5, 22))
    f = expression_field(parse_expression("sin(x1)*cos(x2) + 0.3*sin(x3 + x4)", scn.chart.names))
    B, nc = ctx.nbatch, jets.jet_space(ctx.dim, d).ncoeffs
    for build, reference, field in [
        (hessian, reference_hessian, f),
        (divergence2, reference_divergence2, hessian(f)),
    ]:
        np.testing.assert_array_equal(
            jet_coeffs(build(field)(ctx, d), B, nc), jet_coeffs(reference(field)(ctx, d), B, nc)
        )


def test_sphere_christoffels_closed_form():
    m = sphere2_metric()
    th = 1.1
    ctx = MetricContext(m, np.array([[th], [2.0]]))
    ga = ctx.gamma(0)
    # Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot
    assert jval(ga[0][1][1])[0] == pytest.approx(-np.sin(th) * np.cos(th), rel=1e-12)
    assert jval(ga[1][0][1])[0] == pytest.approx(np.cos(th) / np.sin(th), rel=1e-12)
    assert abs(jval(ga[0][0][0])[0]) < 1e-14
    assert abs(jval(ga[1][1][1])[0]) < 1e-14


def test_inverse_times_metric_is_identity_jets():
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 7, 1))
    g = ctx.g(3)
    gi = ctx.ginv(3)
    for i in range(3):
        for j in range(3):
            acc = None
            for k in range(3):
                t = gi[i][k] * g[k][j]
                acc = t if acc is None else acc + t
            want = np.zeros_like(acc.coeffs)
            if i == j:
                want[0] = 1.0
            np.testing.assert_allclose(acc.coeffs, want, atol=1e-12)


def test_non_positive_metric_is_rejected_with_point():
    m = Metric.from_dict(torus_chart(2), {"g11": "1", "g22": "-1"})
    ctx = MetricContext(m, np.array([[0.5], [0.25]]))
    with pytest.raises(SingularFieldError, match="positive definite") as err:
        ctx.ginv(0)
    assert "0.5" in str(err.value)


def test_positivity_check_is_scale_aware_near_poles():
    # at theta = 1e-7 the second pivot is ~1e-14: an absolute threshold would
    # reject a perfectly regular round metric here
    m = sphere2_metric()
    ctx = MetricContext(m, np.array([[1e-7], [1.0]]))
    gi = ctx.ginv(0)
    assert gi[1][1].value[0] == pytest.approx(1.0 / np.sin(1e-7) ** 2, rel=1e-9)


def test_christoffels_against_finite_differences():
    m = pert_t3()
    x0 = np.array([0.9, 2.2, 4.1])

    def gval(x):
        sp = jets.jet_space(3, 0)
        xs = [jets.constant(sp, np.array([v])) for v in x]
        return np.array([[jval(m.exprs[i][j](xs))[0] for j in range(3)] for i in range(3)])

    dg = np.array([richardson_partial(gval, x0, k) for k in range(3)])  # dg[k,i,j]
    gi = np.linalg.inv(gval(x0))
    want = 0.5 * (
        np.einsum("kl,ijl->kij", gi, dg)
        + np.einsum("kl,jil->kij", gi, dg)
        - np.einsum("kl,lij->kij", gi, dg)
    )
    ctx = MetricContext(m, x0[:, None])
    ga = ctx.gamma(0)
    got = np.array([[[jval(ga[k][i][j])[0] for j in range(3)] for i in range(3)] for k in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_flat_laplacian_is_coordinate_laplacian():
    m = flat_metric(3)
    pts = rand_points(m.chart, 5, 3)
    ctx = MetricContext(m, pts)
    f = expression_field(parse_expression("sin(x1)*cos(x2) + sin(x3)", m.chart.names))
    got = np.atleast_1d(laplacian(f)(ctx, 0).value)
    want = -2.0 * np.sin(pts[0]) * np.cos(pts[1]) - np.sin(pts[2])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_flat_hessian_is_plain_second_partials():
    m = flat_metric(2)
    pts = rand_points(m.chart, 4, 4)
    ctx = MetricContext(m, pts)
    f = expression_field(parse_expression("sin(x1)*cos(x2)", m.chart.names))
    H = hessian(f)(ctx, 0)
    j = f(ctx, 2)
    for i in range(2):
        for k in range(2):
            alpha = [0, 0]
            alpha[i] += 1
            alpha[k] += 1
            np.testing.assert_allclose(
                np.atleast_1d(H[i][k].value), np.atleast_1d(j.extract(tuple(alpha))),
                rtol=1e-12, atol=1e-14,
            )


def test_metric_is_parallel():
    # divergence2 of the metric and the hessian-laplacian consistency both
    # exercise the covariant derivative with the same Christoffels
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 5, 5))
    dv = divergence2(metric_field())(ctx, 0)
    for i in range(3):
        np.testing.assert_allclose(np.atleast_1d(dv[i].value), 0.0, atol=1e-12)
    f = expression_field(parse_expression("sin(x1 + x2)*cos(x3)", m.chart.names))
    giv = np.linalg.inv(np.moveaxis(jet_values(ctx.g(0), 5), -1, 0))
    trace = np.einsum("bij,ijb->b", giv, jet_values(hessian(f)(ctx, 0), 5))
    np.testing.assert_allclose(
        trace, np.atleast_1d(laplacian(f)(ctx, 0).value), rtol=1e-11, atol=1e-13
    )


def test_tensor_algebra_matches_einsum():
    m = pert_t3()
    pts = rand_points(m.chart, 6, 6)
    ctx = MetricContext(m, pts)
    f = expression_field(parse_expression("sin(x1)*sin(x2) + cos(x3)", m.chart.names))
    T = hessian(f)
    tv = np.array([[np.atleast_1d(x.value) for x in row] for row in T(ctx, 0)])
    gv = metric_values(m, ctx)
    giv = np.linalg.inv(np.moveaxis(gv, 2, 0))
    tvb = np.moveaxis(tv, 2, 0)

    want = np.einsum("bik,bjl,bij,bkl->b", giv, giv, tvb, tvb)
    got = np.atleast_1d(norm2sq(T)(ctx, 0).value)
    np.testing.assert_allclose(got, want, rtol=1e-11)

    up = np.einsum("bij,bjk->bik", giv, tvb)
    want = np.einsum("bij,bjk,bki->b", up, up, up)
    np.testing.assert_allclose(np.atleast_1d(trace_cube(T)(ctx, 0).value), want, rtol=1e-10)

    sq = np.einsum("bij,bjk,bkl->bil", tvb, giv, tvb)
    got_sq = np.array([[np.atleast_1d(x.value) for x in row] for row in square2(T)(ctx, 0)])
    np.testing.assert_allclose(np.moveaxis(got_sq, 2, 0), sq, rtol=1e-11)

    w = differential(f)
    wv = np.moveaxis(np.array([np.atleast_1d(x.value) for x in w(ctx, 0)]), 1, 0)

    aw = apply2(T, w)
    awv = np.moveaxis(np.array([np.atleast_1d(x.value) for x in aw(ctx, 0)]), 1, 0)
    want = np.einsum("bij,bjk,bk->bi", tvb, giv, wv)
    np.testing.assert_allclose(awv, want, rtol=1e-11)


def test_integration_by_parts_identity_pointwise():
    # divergence(f w) = (df, w) + f divergence(w), the pointwise form behind
    # every self-adjointness check
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 5, 7))
    names = m.chart.names
    f = expression_field(parse_expression("sin(x1) + cos(x2)*sin(x3)", names))
    u = expression_field(parse_expression("cos(x1)*cos(x3)", names))
    w = differential(u)
    fw = Field(1, lambda c, d: [f(c, d) * x for x in w(c, d)])
    lhs = divergence(fw)(ctx, 0).value
    giv = np.linalg.inv(np.moveaxis(jet_values(ctx.g(0), 5), -1, 0))
    df_w = np.einsum("bij,ib,jb->b", giv, jet_values(differential(f)(ctx, 0), 5),
                     jet_values(w(ctx, 0), 5))
    rhs = df_w + np.atleast_1d((f * divergence(w))(ctx, 0).value)
    np.testing.assert_allclose(np.atleast_1d(lhs), rhs, rtol=1e-10, atol=1e-12)


def test_field_results_are_cached_and_truncated():
    m = flat_metric(2)
    ctx = MetricContext(m, np.array([[0.3], [0.4]]))
    calls = []

    def fn(c, d):
        calls.append(d)
        return jets.constant(jets.jet_space(2, d), 1.0)

    f = Field(0, fn)
    f(ctx, 3)
    f(ctx, 1)
    f(ctx, 3)
    assert calls == [3]


def test_degree_cap_is_enforced_with_guidance():
    m = pert_t3()
    ctx = MetricContext(m, rand_points(m.chart, 2, 8), degree_cap=3)
    f = expression_field(parse_expression("sin(x1)", m.chart.names))
    with pytest.raises(DegreeExhaustedError, match="degree"):
        laplacian(laplacian(f))(ctx, 0)


def test_conformal_rescale_values_and_validation():
    m = pert_t3()
    phi = "0.2*sin(x1)*cos(x3)"
    mh = conformal_rescale(m, phi)
    pts = rand_points(m.chart, 4, 9)
    ctx = MetricContext(m, pts)
    ctxh = MetricContext(mh, pts)
    factor = np.exp(2 * 0.2 * np.sin(pts[0]) * np.cos(pts[2]))
    np.testing.assert_allclose(
        metric_values(mh, ctxh), metric_values(m, ctx) * factor[None, None, :], rtol=1e-12
    )
    with pytest.raises(ExprError):
        conformal_rescale(m, "sin(q9)")


def test_field_rank_mismatch_raises():
    f = constant_field(1.0)
    T = metric_field()
    with pytest.raises(JetError):
        f + T
    with pytest.raises(JetError):
        T * T


@pytest.mark.parametrize("leaves", ["batched", "unbatched", "mixed"])
@pytest.mark.parametrize("rank", [0, 1, 2, 4])
def test_jet_arrays_match_the_nested_loop(rank, leaves):
    n, B = 3, 5
    rng = np.random.default_rng(rank)
    sp = jets.jet_space(n, 2)

    def leaf():
        batched = {"batched": True, "unbatched": False, "mixed": rng.random() < 0.5}[leaves]
        return jets.Jet(sp, rng.standard_normal((sp.ncoeffs, B) if batched else sp.ncoeffs))

    def tensor(r):
        return leaf() if r == 0 else [tensor(r - 1) for _ in range(n)]

    t = tensor(rank)
    vals = jet_values(t, B)
    coeffs = jet_coeffs(t, B, 1 + n)
    assert vals.shape == (n,) * rank + (B,)
    assert coeffs.shape == (1 + n,) + (n,) * rank + (B,)
    for idx in itertools.product(range(n), repeat=rank):
        j = t
        for i in idx:
            j = j[i]
        want = np.broadcast_to(np.atleast_1d(j.value), (B,))
        assert np.array_equal(vals[idx], want)
        assert np.array_equal(coeffs[(0, *idx)], want)
        for e in range(n):
            unit = tuple(int(k == e) for k in range(n))
            got = coeffs[(1 + e, *idx)]
            assert np.array_equal(got, np.broadcast_to(np.atleast_1d(j.extract(unit)), (B,)))
