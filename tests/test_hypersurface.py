"""Embedded hypersurfaces against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest

from extrinsicq import curvature, geometry, hypersurface as hs, jets
from extrinsicq import operators as ops
from extrinsicq.geometry import Axis, Chart, Metric, conformal_rescale, jet_coeffs, jet_values
from extrinsicq.scenarios import parse_scenario

from helpers import (
    SURFACE_BUILDERS,
    NestedSurfaceContext,
    ReferenceFields,
    assert_same_bits,
    count_products,
    evaluate_each,
    jval,
    reference_det,
    reference_nabla0_weyl_normal,
    reference_normal_tt,
    reference_second_fundamental,
    surface_field,
)

TAU = 2.0 * np.pi


def flat_metric(chart):
    n = chart.dim
    return Metric(chart, [["1" if a == b else "0" for b in range(n)] for a in range(n)])


def sphere_embedding(n, r, sigma=1.0):
    """Round S^n(r) in flat R^{n+1}, standard spherical parametrization."""
    names = [f"x{i+1}" for i in range(n)]
    surf = Chart(
        [Axis(nm, 0.3, 2.85) for nm in names[:-1]] + [Axis(names[-1], 0.0, TAU, periodic=True)]
    )
    amb = Chart([Axis(f"y{a+1}", -2 * r, 2 * r) for a in range(n + 1)])
    if n == 2:
        iota = (f"{r}*sin(x1)*cos(x2)", f"{r}*sin(x1)*sin(x2)", f"{r}*cos(x1)")
    elif n == 3:
        iota = (
            f"{r}*sin(x1)*sin(x2)*cos(x3)",
            f"{r}*sin(x1)*sin(x2)*sin(x3)",
            f"{r}*sin(x1)*cos(x2)",
            f"{r}*cos(x1)",
        )
    elif n == 4:
        iota = (
            f"{r}*sin(x1)*sin(x2)*sin(x3)*cos(x4)",
            f"{r}*sin(x1)*sin(x2)*sin(x3)*sin(x4)",
            f"{r}*sin(x1)*sin(x2)*cos(x3)",
            f"{r}*sin(x1)*cos(x2)",
            f"{r}*cos(x1)",
        )
    else:
        raise ValueError(n)
    return hs.Embedding(surf, flat_metric(amb), iota, sigma=sigma)


def torus_chart(names):
    return Chart([Axis(nm, 0.0, TAU, periodic=True) for nm in names])


def graph_embedding(u_text="0.15*sin(x1) + 0.1*cos(x2)", ambient=None):
    """Graph y3 = u(x1, x2) over a flat 2-torus unless an ambient is given."""
    surf = torus_chart(["x1", "x2"])
    if ambient is None:
        amb = Chart(
            [Axis("y1", 0.0, TAU, periodic=True), Axis("y2", 0.0, TAU, periodic=True), Axis("y3", -2.0, 2.0)]
        )
        ambient = flat_metric(amb)
    return hs.Embedding(surf, ambient, ("x1", "x2", u_text), sigma=1.0)


def graph3_embedding(ambient_metric=None):
    """Graph of u(x1,x2,x3) over a flat 3-torus in flat 4-space."""
    surf = torus_chart(["x1", "x2", "x3"])
    if ambient_metric is None:
        amb = Chart(
            [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3)] + [Axis("y4", -2.0, 2.0)]
        )
        ambient_metric = flat_metric(amb)
    return hs.Embedding(
        surf, ambient_metric, ("x1", "x2", "x3", "0.12*sin(x1) + 0.08*cos(x2)*sin(x3)"), sigma=1.0
    )


def product_slice_embedding():
    """The totally geodesic {t = 0} inside R x S^2(1) x S^2(2)."""
    surf = Chart(
        [
            Axis("x1", 0.3, 2.85),
            Axis("x2", 0.0, TAU, periodic=True),
            Axis("x3", 0.3, 2.85),
            Axis("x4", 0.0, TAU, periodic=True),
        ]
    )
    amb = Chart(
        [
            Axis("t", -1.0, 1.0),
            Axis("a1", 0.3, 2.85),
            Axis("a2", 0.0, TAU, periodic=True),
            Axis("a3", 0.3, 2.85),
            Axis("a4", 0.0, TAU, periodic=True),
        ]
    )
    gbar = Metric.from_dict(
        amb, {"g11": "1", "g22": "1", "g33": "sin(a1)^2", "g44": "4", "g55": "4*sin(a3)^2"}
    )
    return hs.Embedding(surf, gbar, ("0", "x1", "x2", "x3", "x4"), sigma=1.0)


def product_slice_s2_s3_embedding():
    """The totally geodesic {t = 0} inside R x S^2(1) x S^3(2), a
    5-dimensional umbilic hypersurface with nonvanishing normal Weyl part."""
    surf = Chart(
        [
            Axis("x1", 0.3, 2.85),
            Axis("x2", 0.0, TAU, periodic=True),
            Axis("x3", 0.3, 2.85),
            Axis("x4", 0.3, 2.85),
            Axis("x5", 0.0, TAU, periodic=True),
        ]
    )
    amb = Chart(
        [
            Axis("t", -1.0, 1.0),
            Axis("a1", 0.3, 2.85),
            Axis("a2", 0.0, TAU, periodic=True),
            Axis("b1", 0.3, 2.85),
            Axis("b2", 0.3, 2.85),
            Axis("b3", 0.0, TAU, periodic=True),
        ]
    )
    gbar = Metric.from_dict(
        amb,
        {
            "g11": "1",
            "g22": "1",
            "g33": "sin(a1)^2",
            "g44": "4",
            "g55": "4*sin(b1)^2",
            "g66": "4*sin(b1)^2*sin(b2)^2",
        },
    )
    return hs.Embedding(surf, gbar, ("0", "x1", "x2", "x3", "x4", "x5"), sigma=1.0)


def warped_slice_embedding(sigma=-1.0):
    """{t = 0} in dt^2 + w(t) (flat T^3), umbilic with H = w'(0)/2 for nu = +dt.

    sigma = -1 orients the odd-dimensional slice's normal along +dt.
    """
    surf = torus_chart(["x1", "x2", "x3"])
    amb = Chart([Axis("t", -1.0, 1.0)] + [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3)])
    w = "exp(0.4*t + 0.1*t^2)"
    gbar = Metric.from_dict(amb, {"g11": "1", "g22": w, "g33": w, "g44": w})
    return hs.Embedding(surf, gbar, ("0", "x1", "x2", "x3"), sigma=sigma)


def surface_points(emb, B, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for ax in emb.chart.axes:
        lo, hi = (0.0, TAU) if ax.periodic else (ax.lo + 0.1, ax.hi - 0.1)
        cols.append(rng.uniform(lo, hi, B))
    return np.array(cols)


def maxdiff(a, b, B):
    return float(np.max(np.abs(jval(a, B) - jval(b, B))))


# ---- unit normal and tangents ----------------------------------------------


def test_normal_is_unit_and_orthogonal_as_jets():
    emb = graph_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 1))
    d = 3
    nu = hs.normal(sctx, d)
    t = hs.tangents(sctx, d)
    gb = hs.ambient_metric_on_surface(sctx, d)
    na = 3
    unit = sum(gb[a][b] * (nu[a] * nu[b]) for a in range(na) for b in range(na))
    err = np.max(np.abs(unit.coeffs - jets.constant(unit.space, 1.0).coeffs[:, None]))
    assert err < 1e-12
    for i in range(2):
        dot = sum(gb[a][b] * (nu[a] * t[i][b]) for a in range(na) for b in range(na))
        assert np.max(np.abs(dot.coeffs)) < 1e-12


@pytest.mark.parametrize("name", ["GRAPH(T4_IN_PERT_T5)", "SLICE(S2xS2)", "SPHERE_IN_FLAT(3,1)"])
def test_maximal_minors_match_the_recursive_expansion(name, monkeypatch):
    # bit for bit, with one contraction per minor size from 2 to n
    scn = parse_scenario(name)
    sctx = scn.context(surface_points(scn.embedding, 5, 3))
    t = hs.tangents(sctx, 2)
    n = len(t)
    calls, contract = [], jets.contract
    monkeypatch.setattr(jets, "contract", lambda *args: calls.append(1) or contract(*args))
    got = hs._maximal_minors(t)
    assert len(calls) == n - 1
    monkeypatch.undo()
    nc = jets.jet_space(n, 2).ncoeffs
    for a, m in enumerate(got):
        want = reference_det([[t[i][b] for b in range(n + 1) if b != a] for i in range(n)])
        assert_same_bits(jet_coeffs(m, 5, nc), jet_coeffs(want, 5, nc))


def test_graph_normal_matches_closed_form():
    emb = graph_embedding()
    pts = surface_points(emb, 8, 2)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    nu = hs.normal(sctx, 0)
    x1, x2 = pts
    ux = 0.15 * np.cos(x1)
    uy = -0.1 * np.sin(x2)
    W = np.sqrt(1.0 + ux**2 + uy**2)
    assert np.max(np.abs(jval(nu[0], 8) - (-ux / W))) < 1e-12
    assert np.max(np.abs(jval(nu[1], 8) - (-uy / W))) < 1e-12
    assert np.max(np.abs(jval(nu[2], 8) - 1.0 / W)) < 1e-12


def test_orientation_flip_negates_normal_and_shape():
    emb = graph_embedding()
    pts = surface_points(emb, 5, 3)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    flipped = hs.Embedding(emb.chart, emb.ambient_metric, emb.iota_texts, -emb.sigma)
    b = hs.EmbeddedSurfaceContext(flipped, pts)
    B = 5
    for x, y in zip(hs.normal(a, 1), hs.normal(b, 1)):
        assert np.max(np.abs(jval(x, B) + jval(y, B))) < 1e-14
    La, Lb = hs.second_fundamental(a, 0), hs.second_fundamental(b, 0)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(jval(La[i][j], B) + jval(Lb[i][j], B))) < 1e-12
    assert np.max(np.abs(jval(hs.mean_curvature(a, 0), B) + jval(hs.mean_curvature(b, 0), B))) < 1e-12


# ---- spheres and graphs against closed forms --------------------------------


@pytest.mark.parametrize("n,r", [(2, 1.3), (3, 2.0)])
def test_round_sphere_shape_operator(n, r):
    emb = sphere_embedding(n, r)
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 4))
    B = 6
    h = sctx.g(1)
    L = hs.second_fundamental(sctx, 1)
    for i in range(n):
        for j in range(n):
            assert np.max(np.abs(jval(L[i][j], B) - jval(h[i][j], B) / r)) < 1e-11
    assert np.max(np.abs(jval(hs.mean_curvature(sctx, 0), B) - 1.0 / r)) < 1e-11
    Lo = hs.tracefree_second_fundamental(sctx, 0)
    assert max(np.max(np.abs(jval(Lo[i][j], B))) for i in range(n) for j in range(n)) < 1e-11


def test_round_sphere_induced_metric_is_round():
    r = 1.3
    emb = sphere_embedding(2, r)
    pts = surface_points(emb, 7, 5)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    h = sctx.g(2)
    th = pts[0]
    B = 7
    assert np.max(np.abs(jval(h[0][0], B) - r * r)) < 1e-12
    assert np.max(np.abs(jval(h[1][1], B) - (r * np.sin(th)) ** 2)) < 1e-12
    assert np.max(np.abs(jval(h[0][1], B))) < 1e-12
    assert np.max(np.abs(jval(curvature.scal(sctx, 0), B) - 2.0 / r**2)) < 1e-9


def test_graph_second_fundamental_closed_form():
    # flat ambient: L_ij = -u_ij / sqrt(1 + |du|^2) for the upward normal
    emb = graph_embedding()
    pts = surface_points(emb, 8, 6)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    x1, x2 = pts
    ux = 0.15 * np.cos(x1)
    uy = -0.1 * np.sin(x2)
    W = np.sqrt(1.0 + ux**2 + uy**2)
    hess = np.array(
        [
            [-0.15 * np.sin(x1), np.zeros_like(x1)],
            [np.zeros_like(x1), -0.1 * np.cos(x2)],
        ]
    )
    L = hs.second_fundamental(sctx, 0)
    B = 8
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(jval(L[i][j], B) + hess[i, j] / W)) < 1e-12


def test_graph_induced_metric_closed_form():
    emb = graph_embedding()
    pts = surface_points(emb, 8, 7)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    x1, x2 = pts
    du = np.array([0.15 * np.cos(x1), -0.1 * np.sin(x2)])
    h = sctx.g(0)
    B = 8
    for i in range(2):
        for j in range(2):
            want = (1.0 if i == j else 0.0) + du[i] * du[j]
            assert np.max(np.abs(jval(h[i][j], B) - want)) < 1e-13


def test_second_fundamental_is_symmetric():
    emb = graph3_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 8))
    L = hs.second_fundamental(sctx, 1)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(L[i][j].coeffs - L[j][i].coeffs)) < 1e-13


def test_gauss_equation_flat_ambient():
    # R_ijkl(h) = L_ik L_jl - L_il L_jk when the ambient is flat
    emb = graph_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 9))
    B = 6
    R = curvature.riemann(sctx, 0)
    L = hs.second_fundamental(sctx, 0)
    Lv = np.array([[jval(L[i][j], B) for j in range(2)] for i in range(2)])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = Lv[i, k] * Lv[j, l] - Lv[i, l] * Lv[j, k]
                    assert np.max(np.abs(jval(R[i][j][k][l], B) - want)) < 1e-10


def test_shape_operator_against_finite_differences():
    # curved ambient exercises the Christoffel correction in nabla nu
    amb = Chart(
        [Axis("y1", 0.0, TAU, periodic=True), Axis("y2", 0.0, TAU, periodic=True), Axis("y3", -2.0, 2.0)]
    )
    gbar = Metric.from_dict(
        amb,
        {
            "g11": "1 + 0.1*sin(y1)*cos(y3)",
            "g22": "1 + 0.08*cos(y2)*sin(y1)",
            "g33": "1 + 0.06*sin(y3)",
            "g12": "0.05*sin(y1 + y2)",
        },
    )
    emb = graph_embedding(ambient=gbar)
    pts = surface_points(emb, 4, 10)
    B = 4
    sctx = hs.EmbeddedSurfaceContext(emb, pts)

    def nu_vals(p):
        c = hs.EmbeddedSurfaceContext(emb, p, degree_cap=2)
        return np.array([jval(x, p.shape[1]) for x in hs.normal(c, 0)])

    h0 = 1e-3
    dnu = np.empty((2, 3, B))
    for i in range(2):
        for h in (h0, h0 / 2):
            shift = np.zeros_like(pts)
            shift[i] = h
            d = (nu_vals(pts + shift) - nu_vals(pts - shift)) / (2 * h)
            if h == h0:
                coarse = d
        dnu[i] = (4 * d - coarse) / 3.0

    nu = np.array([jval(x, B) for x in hs.normal(sctx, 0)])
    t = np.array([[jval(x, B) for x in row] for row in hs.tangents(sctx, 0)])
    gb = np.array(
        [[jval(x, B) for x in row] for row in hs.ambient_metric_on_surface(sctx, 0)]
    )
    ga = np.array(
        [[[jval(hs.pulled_christoffel(sctx, 0)[a][b][c], B) for c in range(3)] for b in range(3)] for a in range(3)]
    )
    cov = dnu + np.einsum("abcZ,ibZ,cZ->iaZ", ga, t, nu)
    L_fd = np.einsum("abZ,iaZ,jbZ->ijZ", gb, cov, t)
    L = hs.second_fundamental(sctx, 0)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(jval(L[i][j], B) - L_fd[i, j])) < 1e-7


# ---- umbilic slices ----------------------------------------------------------


def test_warped_slice_is_umbilic_with_closed_form_H():
    emb = warped_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 11))
    B = 6
    nu = hs.normal(sctx, 0)
    assert np.max(np.abs(jval(nu[0], B) - 1.0)) < 1e-13
    H = hs.mean_curvature(sctx, 1)
    assert np.max(np.abs(jval(H, B) - 0.2)) < 1e-12
    Lo = hs.tracefree_second_fundamental(sctx, 1)
    assert max(np.max(np.abs(jval(Lo[i][j], B))) for i in range(3) for j in range(3)) < 1e-12


def test_product_slice_is_totally_geodesic():
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 6, 12))
    B = 6
    L = hs.second_fundamental(sctx, 1)
    assert max(np.max(np.abs(jval(L[i][j], B))) for i in range(4) for j in range(4)) < 1e-12


# ---- ambient curvature along the surface ------------------------------------


def test_product_slice_frozen_curvature_values():
    emb = product_slice_embedding()
    pts = surface_points(emb, 6, 13)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    B = 6
    assert np.max(np.abs(jval(curvature.jfun(sctx.ambient, 0), B) - 5.0 / 16.0)) < 1e-10
    assert np.max(np.abs(jval(hs.rho_bar_nn(sctx, 0), B) + 5.0 / 48.0)) < 1e-10

    # script W = (1/8) h_1 oplus (-1/8) h_2 on the two factors
    W = hs.normal_weyl(sctx, 0)
    th1, th2 = pts[0], pts[2]
    want = {
        (0, 0): np.full(B, 1.0 / 8.0),
        (1, 1): np.sin(th1) ** 2 / 8.0,
        (2, 2): np.full(B, -0.5),
        (3, 3): -0.5 * np.sin(th2) ** 2,
    }
    for i in range(4):
        for j in range(4):
            assert np.max(np.abs(jval(W[i][j], B) - want.get((i, j), 0.0))) < 1e-9

    from extrinsicq.geometry import norm2sq, Field

    wfield = Field(2, lambda ctx, d: hs.normal_weyl(ctx, d))
    w2 = norm2sq(wfield)(sctx, 0)
    assert np.max(np.abs(jval(w2, B) - 1.0 / 16.0)) < 1e-9


def test_normal_weyl_is_trace_free():
    emb = graph3_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 14))
    B = 5
    W = hs.normal_weyl(sctx, 0)
    hi = sctx.ginv(0)
    tr = sum(hi[i][j] * W[i][j] for i in range(3) for j in range(3))
    assert np.max(np.abs(jval(tr, B))) < 1e-11


def test_fialkow_vanishes_on_round_sphere_in_flat():
    emb = sphere_embedding(3, 2.0)
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 15))
    B = 5
    F = hs.fialkow(sctx, 0)
    assert max(np.max(np.abs(jval(F[i][j], B))) for i in range(3) for j in range(3)) < 1e-9


def test_nabla0_rho_on_warped_slice():
    # for dt^2 + w(t) k: rho_bar = diag(-(n-1) a(t), ...) is t-dependent only,
    # so (nabla_0 rho)(t_i, t_j) at t=0 follows from one ambient derivative.
    emb = warped_slice_embedding()
    pts = surface_points(emb, 4, 16)
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    B = 4

    # finite-difference oracle straight from ambient Schouten component jets
    amb = sctx.ambient
    rb = curvature.schouten(amb, 1)
    ga = amb.gamma(0)
    nu = np.array([jval(x, B) for x in hs.normal(sctx, 0)])
    t = np.array([[jval(x, B) for x in row] for row in hs.tangents(sctx, 0)])
    na = 4
    unit = [tuple(1 if k == e else 0 for k in range(na)) for e in range(na)]
    drb = np.empty((na, na, na, B))
    rbv = np.empty((na, na, B))
    gav = np.empty((na, na, na, B))
    for a in range(na):
        for b in range(na):
            rbv[a, b] = jval(rb[a][b], B)
            for c in range(na):
                drb[c, a, b] = np.broadcast_to(np.atleast_1d(rb[a][b].extract(unit[c])), (B,))
                gav[a, b, c] = jval(ga[a][b][c], B)
    nabla = (
        drb
        - np.einsum("ecaZ,ebZ->cabZ", gav, rbv)
        - np.einsum("ecbZ,aeZ->cabZ", gav, rbv)
    )
    want_tt = np.einsum("cabZ,cZ,iaZ,jbZ->ijZ", nabla, nu, t, t)
    want_n = np.einsum("cabZ,cZ,aZ,ibZ->iZ", nabla, nu, nu, t)

    got_tt = hs.nabla0_rho_tangential(sctx, 0)
    got_n = hs.nabla0_rho_normal(sctx, 0)
    for i in range(3):
        assert np.max(np.abs(jval(got_n[i], B) - want_n[i])) < 1e-10
        for j in range(3):
            assert np.max(np.abs(jval(got_tt[i][j], B) - want_tt[i, j])) < 1e-10


def test_nabla0_weyl_degree_guard():
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 3, 17))
    with pytest.raises(jets.DegreeExhaustedError):
        hs.nabla0_weyl_normal(sctx, 2)


def test_nabla0_weyl_vanishes_on_parallel_product():
    # the product metric is covariantly constant factor by factor, so the
    # ambient Weyl derivative along the slice normal vanishes identically
    emb = product_slice_embedding()
    sctx = hs.EmbeddedSurfaceContext(emb, surface_points(emb, 5, 18))
    B = 5
    T = hs.nabla0_weyl_normal(sctx)
    assert max(np.max(np.abs(jval(T[i][j], B))) for i in range(4) for j in range(4)) < 1e-10


def test_nabla0_weyl_against_finite_differences():
    # graph in a 5-dim perturbed ambient, compared to a Richardson derivative
    # of script-W-style contractions assembled at shifted ambient points
    amb = Chart(
        [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3, 4)] + [Axis("y5", -2.0, 2.0)]
    )
    gbar = Metric.from_dict(
        amb,
        {
            "g11": "1 + 0.1*sin(y1)*cos(y2)",
            "g22": "1 + 0.08*cos(y2)*sin(y3)",
            "g33": "1 + 0.06*sin(y3)*cos(y4)",
            "g44": "1 + 0.05*cos(y4)*sin(y5)",
            "g55": "1 + 0.04*sin(y5)",
            "g12": "0.04*sin(y1 + y3)",
            "g34": "0.03*cos(y2 + y4)",
        },
    )
    surf = torus_chart(["x1", "x2", "x3", "x4"])
    emb = hs.Embedding(
        surf,
        gbar,
        ("x1", "x2", "x3", "x4", "0.1*sin(x1) + 0.08*cos(x2)*sin(x3) + 0.05*sin(x4)*cos(x1)"),
        sigma=1.0,
    )
    pts = surface_points(emb, 3, 19)
    B = 3
    sctx = hs.EmbeddedSurfaceContext(emb, pts)
    nu = np.array([jval(x, B) for x in hs.normal(sctx, 0)])
    t = np.array([[jval(x, B) for x in row] for row in hs.tangents(sctx, 0)])
    iov = np.array([jval(x, B) for x in hs.iota_jets(sctx, 0)])
    na = 5

    from extrinsicq.geometry import MetricContext

    def weyl_vals(ap):
        ctx = MetricContext(gbar, ap, degree_cap=2)
        W = curvature.weyl(ctx, 0)
        out = np.empty((na, na, na, na, ap.shape[1]))
        for a in range(na):
            for b in range(na):
                for c in range(na):
                    for e in range(na):
                        out[a, b, c, e] = jval(W[a][b][c][e], ap.shape[1])
        return out

    h0 = 1e-3
    dW = np.empty((na, na, na, na, na, B))
    for e in range(na):
        shift = np.zeros_like(iov)
        shift[e] = h0
        coarse = (weyl_vals(iov + shift) - weyl_vals(iov - shift)) / (2 * h0)
        shift[e] = h0 / 2
        fine = (weyl_vals(iov + shift) - weyl_vals(iov - shift)) / h0
        dW[e] = (4 * fine - coarse) / 3.0

    ctx0 = MetricContext(gbar, iov, degree_cap=2)
    W0 = weyl_vals(iov)
    gav = np.empty((na, na, na, B))
    ga = ctx0.gamma(0)
    for a in range(na):
        for b in range(na):
            for c in range(na):
                gav[a, b, c] = jval(ga[a][b][c], B)
    nW = (
        dW
        - np.einsum("feaZ,fbcdZ->eabcdZ", gav, W0)
        - np.einsum("febZ,afcdZ->eabcdZ", gav, W0)
        - np.einsum("fecZ,abfdZ->eabcdZ", gav, W0)
        - np.einsum("fedZ,abcfZ->eabcdZ", gav, W0)
    )
    want = np.einsum("eabcdZ,eZ,aZ,ibZ,jcZ,dZ->ijZ", nW, nu, nu, t, t, nu)
    got = hs.nabla0_weyl_normal(sctx)
    for i in range(4):
        for j in range(4):
            assert np.max(np.abs(jval(got[i][j], B) - want[i, j])) < 1e-6


# ---- conformal behaviour -----------------------------------------------------


def rescaled(emb, phi_text):
    return hs.Embedding(
        emb.chart,
        conformal_rescale(emb.ambient_metric, phi_text),
        emb.iota_texts,
        sigma=emb.sigma,
    )


def test_normal_weyl_is_conformally_invariant():
    emb = product_slice_embedding()
    phi = "0.1*sin(a1)*cos(a2) + 0.07*cos(a3) + 0.05*t"
    pts = surface_points(emb, 5, 20)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    Wa = hs.normal_weyl(a, 1)
    Wb = hs.normal_weyl(b, 1)
    for i in range(4):
        for j in range(4):
            assert np.max(np.abs(jval(Wa[i][j], B) - jval(Wb[i][j], B))) < 1e-9


def test_fialkow_is_conformally_invariant():
    emb = graph3_embedding()
    phi = "0.1*sin(y1)*cos(y2) + 0.08*cos(y3)*sin(y4) + 0.05*sin(y4)"
    pts = surface_points(emb, 5, 21)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    Fa = hs.fialkow(a, 0)
    Fb = hs.fialkow(b, 0)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(jval(Fa[i][j], B) - jval(Fb[i][j], B))) < 1e-9


def test_tracefree_shape_rescales_with_weight_one():
    # under gbar -> e^{2 phi} gbar the trace-free second fundamental form
    # picks up exactly e^{phi} along the surface
    emb = graph3_embedding()
    phi = "0.1*sin(y1)*cos(y2) + 0.08*cos(y3)*sin(y4) + 0.05*sin(y4)"
    pts = surface_points(emb, 5, 22)
    a = hs.EmbeddedSurfaceContext(emb, pts)
    b = hs.EmbeddedSurfaceContext(rescaled(emb, phi), pts)
    B = 5
    phi_field = hs.ambient_expression_field(phi, emb.ambient_metric.chart)
    scale = np.exp(jval(phi_field(a, 0), B))
    La = hs.tracefree_second_fundamental(a, 0)
    Lb = hs.tracefree_second_fundamental(b, 0)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(scale * jval(La[i][j], B) - jval(Lb[i][j], B))) < 1e-10


# at most one product per offset monomial of degree 1..2 in five variables
PULL_PRODUCTS_5 = math.comb(7, 5) - 1


def test_pulled_christoffel_product_count(monkeypatch):
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    sctx = scn.context(surface_points(scn.embedding, 4, 15))
    d = 2
    # the inputs the build reads, built beforehand
    sctx.ambient.gamma(d)
    hs.iota_jets(sctx, d)
    composes = 0
    compose = jets.compose

    def counting_compose(outers, args):
        nonlocal composes
        composes += 1
        return compose(outers, args)

    count = count_products(monkeypatch)
    monkeypatch.setattr(jets, "compose", counting_compose)
    G = hs.pulled_christoffel(sctx, d)
    assert 0 < count[0] <= PULL_PRODUCTS_5
    assert composes == 1
    assert G[4][1][3] is G[4][3][1] and G[4][1][3].degree == d


# ---- the Gauss formula and the normals-first Weyl derivative -----------------

REFERENCE_SCENARIOS = (
    "GRAPH(T4_IN_PERT_T5)",
    "SLICE(S2xS2)",
    "CONF_PERTURBED(SLICE(PERT_T4))",
    "SPHERE_IN_FLAT(4,1)",
)


def _fresh_pair(text, B, seed):
    scn = parse_scenario(text)
    pts = surface_points(scn.embedding, B, seed)
    return scn.context(pts), scn.context(pts)


@pytest.mark.parametrize("text", REFERENCE_SCENARIOS)
def test_second_fundamental_matches_the_normal_derivative_form(text):
    # -gbar(nu, nabla_i t_j) against gbar(nabla_i nu, t_j), coefficient by coefficient
    B = 6
    sctx, ref = _fresh_pair(text, B, 23)
    n = sctx.dim
    for d in range(3):
        nc = jets.jet_space(n, d).ncoeffs
        L = hs.second_fundamental(sctx, d)
        want = jet_coeffs(reference_second_fundamental(ref, d), B, nc)
        got = jet_coeffs(L, B, nc)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for i in range(n):
            for j in range(n):
                assert np.array_equal(L[i][j].coeffs, L[j][i].coeffs)


@pytest.mark.parametrize("text", REFERENCE_SCENARIOS)
def test_nabla0_weyl_matches_the_five_index_form(text):
    B = 6
    sctx, ref = _fresh_pair(text, B, 24)
    want = reference_nabla0_weyl_normal(ref)
    got = jet_values(hs.nabla0_weyl_normal(sctx), B)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("text", REFERENCE_SCENARIOS)
def test_normal_tt_matches_the_full_form(text):
    # X_bc for b <= c and the surface tensor for i <= j, against every entry summed
    B = 6
    sctx, ref = _fresh_pair(text, B, 25)
    n = sctx.dim
    pulled = {
        "normal_weyl": hs.pulled_weyl,
        "normal_riemann": lambda c, d: hs._pulled_curvature(c, curvature.riemann, d),
    }
    for name, pull in pulled.items():
        for d in range(3):
            nc = jets.jet_space(n, d).ncoeffs
            got_t = getattr(hs, name)(sctx, d)
            got = jet_coeffs(got_t, B, nc)
            want = jet_coeffs(reference_normal_tt(ref, pull(ref, d), d), B, nc)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            for i in range(n):
                for j in range(n):
                    assert np.array_equal(got_t[i][j].coeffs, got_t[j][i].coeffs)


# nu nu (25), X_bc for b <= c (15 entries of 16 terms), contracted with t_i
# (100), then n(n+1)/2 entries of n+1 terms (50), at n = 4; 605 without symmetry
NORMAL_TT_PRODUCTS_5 = 415


def test_normal_weyl_product_count(monkeypatch):
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    sctx = scn.context(surface_points(scn.embedding, 4, 15))
    # the inputs the build reads, built beforehand
    hs.normal(sctx, 0)
    hs.tangents(sctx, 0)
    hs.pulled_weyl(sctx, 0)
    count = count_products(monkeypatch)
    hs.normal_weyl(sctx, 0)
    assert 0 < count[0] <= NORMAL_TT_PRODUCTS_5


# nu lowered (25), nu_a Gammabar^a_bc for b <= c (75), contracted with t_i
# (100), then n(n+1)/2 entries of 2(n+1) products each (100), at n = 4
SECOND_FUNDAMENTAL_PRODUCTS_5 = 350


def test_second_fundamental_product_count_and_degrees(monkeypatch):
    scn = parse_scenario("GRAPH(T4_IN_PERT_T5)")
    pts = surface_points(scn.embedding, 4, 15)
    sctx = scn.context(pts)
    d = 2
    # the inputs the build reads, built beforehand
    hs.tangents(sctx, d + 1)
    hs.normal(sctx, d)
    hs.ambient_metric_on_surface(sctx, d)
    hs.pulled_christoffel(sctx, d)
    count = count_products(monkeypatch)
    hs.second_fundamental(sctx, d)
    assert 0 < count[0] <= SECOND_FUNDAMENTAL_PRODUCTS_5
    monkeypatch.undo()

    # on a fresh context, L at degree 2 builds no frame quantity deeper than 2
    fresh = scn.context(pts)
    hs.second_fundamental(fresh, d)
    deep = [(key, dd) for key, dd in fresh._cache if key in ("normal", "gbar", "gbar_inv") and dd > d]
    assert deep == []


@pytest.mark.parametrize("name", ["CONF_PERTURBED(GRAPH(T4_IN_PERT_T5))", "SLICE(S2xS2)"])
def test_embedding_builds_match_each_component_alone(name):
    scn = parse_scenario(name)
    pts = np.array([np.linspace(ax.lo + 0.3, ax.hi - 0.3, 8) for ax in scn.chart.axes])
    sctx = scn.context(pts)
    emb = scn.embedding
    for d in (0, 2):
        B = sctx.nbatch
        io = evaluate_each(emb.iota_exprs, sctx.coords(d))
        gbar = evaluate_each(emb.ambient_metric.exprs, io)
        nc = jets.jet_space(sctx.dim, d).ncoeffs
        assert_same_bits(jet_coeffs(hs.iota_jets(sctx, d), B, nc), jet_coeffs(io, B, nc))
        assert_same_bits(
            jet_coeffs(hs.ambient_metric_on_surface(sctx, d), B, nc), jet_coeffs(gbar, B, nc)
        )
        amb = sctx.ambient
        want = evaluate_each(emb.ambient_metric.exprs, amb.coords(d))
        ncb = jets.jet_space(amb.dim, d).ncoeffs
        assert_same_bits(jet_coeffs(amb.g(d), B, ncb), jet_coeffs(want, B, ncb))


def _entries(T):
    return [x for t in T for x in _entries(t)] if isinstance(T, (list, tuple)) else [T]


def _assert_same_tensor(got, want, B, nc, name):
    """Bit for bit, and each entry batched where the nested jet is."""
    assert_same_bits(jet_coeffs(got, B, nc), jet_coeffs(want, B, nc))
    assert [x.batch for x in _entries(got)] == [x.batch for x in _entries(want)], name


def _combinator_fields(api):
    """{name: field} of every Field combinator, on the hypersurface keys'
    fields, through ``api``: the geometry module or ``ReferenceFields``."""
    H, Lo, W = surface_field(0, "mean_curvature"), surface_field(2, "tracefree_L"), \
        surface_field(2, "normal_weyl")
    g = api.metric() if api is ReferenceFields else geometry.metric_field()
    if api is ReferenceFields:
        add, sub, neg, scale, times = api.add, api.sub, api.neg, api.scale, api.times
        dim_scaled = api.dim_scaled
    else:
        add, sub, neg = (lambda F, G: F + G), (lambda F, G: F - G), (lambda F: -F)
        scale, times = (lambda F, x: F * x), (lambda f, F: f * F)
        dim_scaled = ops._dim_scaled
    Lo2, dH = api.square2(Lo), api.differential(H)
    return {
        "sum": add(Lo, W), "difference": sub(Lo2, Lo), "negation": neg(Lo),
        "scalar": scale(Lo2, -2.5), "scalar_rank0": scale(H, 3.0),
        "jet_times": times(H, Lo), "jet_times_metric": times(H, g), "jet_times_jet": times(H, H),
        "dim_scaled": dim_scaled(Lo, lambda n: 0.5 * n - 1.0), "differential": dH,
        "divergence": api.divergence(dH), "hessian": api.hessian(H),
        "divergence2": api.divergence2(Lo), "divergence2_full": api.divergence2(Lo2),
        "apply2": api.apply2(Lo, dH), "inner22": api.inner22(Lo, W), "square2": Lo2,
        "trace_cube": api.trace_cube(Lo),
    }


@pytest.mark.parametrize("points", [1, 8, 127, 128, 353])
@pytest.mark.parametrize(
    "name", ["GRAPH(T4_IN_PERT_T5)", "SLICE(S2xS2)", "SPHERE_IN_FLAT(4,1)",
             "CONF_PERTURBED(SLICE(PERT_T3))"]
)
def test_packed_hypersurface_matches_the_nested_reference(name, points):
    # every hypersurface key and Field combinator, packed, on both sides of
    # the layered threshold, has the bits and the batched entries of the
    # nested builders on a twin context
    scn = parse_scenario(name)
    pts = surface_points(scn.embedding, points, 41)
    n = scn.chart.dim
    new, ref = _combinator_fields(geometry), _combinator_fields(ReferenceFields)
    for d in range(3):
        ctx, twin = scn.context(pts), NestedSurfaceContext(scn.embedding, pts)
        nc = jets.jet_space(n, d).ncoeffs
        for key, (packed, nested) in SURFACE_BUILDERS.items():
            if (key == "fialkow" and n < 3) or (key == "nabla0_weyl" and d):
                continue
            _assert_same_tensor(packed(ctx, d), nested(twin, d), points, nc, key)
        for key in new:
            _assert_same_tensor(new[key](ctx, d), ref[key](twin, d), points, nc, key)
