"""Embedded hypersurfaces: induced metric, second fundamental form, and the
ambient curvature data that extrinsic operators consume.

An Embedding is a chart-to-ambient map given componentwise as expressions,
together with an ambient metric and an orientation sign.  Evaluation happens
in an EmbeddedSurfaceContext, which is a full GeometryContext for the
induced metric (so all intrinsic machinery applies unchanged) and also owns
an ambient MetricContext whose jets are seeded along the image of the
embedding.  Ambient quantities come across in two steps: curvature is
computed as jets in the ambient variables, then composed with the embedding
component jets to become jets in the surface variables.  The normal is
contracted first: L comes from the Gauss formula -gbar(nu, nabla_i t_j), and
nabla0_weyl_normal applies nu to each ambient tensor before the tangents.

The unit normal is built from the generalized cross product of the tangent
frame (cofactor covector, raised with the ambient metric and normalized);
its overall sign is the embedding's sigma.  With sigma = +1 a graph's last
ambient component points upward and the standard spherical parametrization
points outward, so round spheres get H = +1/r.
"""

import numpy as np

from . import curvature, jets
from .exprlang import ExprError, parse_expression
from .geometry import (
    Field,
    GeometryContext,
    MetricContext,
    _flat,
    _invert_spd,
    covariant,
    jet_coeffs,
    jet_values,
    symmetric,
)
from .jets import DegreeExhaustedError, JetError


class Embedding:
    """A hypersurface chart, its ambient metric, the map, and an orientation."""

    __slots__ = ("chart", "ambient_metric", "iota_texts", "iota_exprs", "sigma")

    def __init__(self, chart, ambient_metric, iota, sigma=1.0):
        if ambient_metric.chart.dim != chart.dim + 1:
            raise JetError(
                f"ambient dimension {ambient_metric.chart.dim} must exceed the "
                f"surface dimension {chart.dim} by one"
            )
        iota = tuple(str(t) for t in iota)
        if len(iota) != ambient_metric.chart.dim:
            raise JetError(
                f"embedding needs {ambient_metric.chart.dim} components, got {len(iota)}"
            )
        if sigma not in (1.0, -1.0, 1, -1):
            raise JetError(f"sigma must be +1 or -1, got {sigma}")
        exprs = []
        for a, text in enumerate(iota):
            try:
                exprs.append(parse_expression(text, chart.names))
            except ExprError as err:
                err.args = (f"embedding component {a + 1}: {err.args[0]}",)
                raise
        self.chart = chart
        self.ambient_metric = ambient_metric
        self.iota_texts = iota
        self.iota_exprs = tuple(exprs)
        self.sigma = float(sigma)

    def __repr__(self):
        return f"Embedding(dim {self.chart.dim} -> {self.ambient_metric.chart.dim})"


class EmbeddedSurfaceContext(GeometryContext):
    """GeometryContext of the induced metric, plus the ambient context.

    Intrinsic quantities (curvature of the induced metric, intrinsic
    operators) see this as an ordinary geometry context; the functions below
    add the extrinsic ones, cached here alongside everything else.
    """

    def __init__(self, embedding, points, degree_cap=6):
        super().__init__(embedding.chart, points, degree_cap)
        self.embedding = embedding
        sp0 = jets.jet_space(self.dim, 0)
        args0 = [jets.constant(sp0, self.points[i]) for i in range(self.dim)]
        B = self.nbatch
        rows = []
        for e in embedding.iota_exprs:
            v = np.atleast_1d(np.asarray(e(args0).value, dtype=np.float64))
            rows.append(np.broadcast_to(v, (B,)))
        self.ambient = MetricContext(
            embedding.ambient_metric, np.array(rows), degree_cap
        )

    def g(self, d):
        return self.get("g", d, lambda dd: _induced_metric(self, dd))


def iota_jets(sctx, d):
    """Embedding components as surface jets."""
    return sctx.get(
        "iota", d, lambda dd: [e(sctx.coords(dd)) for e in sctx.embedding.iota_exprs]
    )


def tangents(sctx, d):
    """t[i][a] = d iota^a / dx^i."""

    def build(dd):
        io = iota_jets(sctx, dd + 1)
        return [[io[a].partial(i) for a in range(len(io))] for i in range(sctx.dim)]

    return sctx.get("tangents", d, build)


def ambient_metric_on_surface(sctx, d):
    """The ambient metric components evaluated along the embedding."""

    def build(dd):
        io = iota_jets(sctx, dd)
        m = sctx.embedding.ambient_metric
        return symmetric(m.chart.dim, lambda a, b: m.exprs[a][b](io))

    return sctx.get("gbar", d, build)


def ambient_inverse_on_surface(sctx, d):
    def build(dd):
        return _invert_spd(ambient_metric_on_surface(sctx, dd), sctx, dd)

    return sctx.get("gbar_inv", d, build)


def _induced_metric(sctx, d):
    t = tangents(sctx, d)
    return _tangential(ambient_metric_on_surface(sctx, d), t)


def _tangential(X, t):
    """The surface 2-tensor X_ab t_i^a t_j^b of a symmetric ambient 2-tensor X.

    One tangent is contracted first, Y_ib = X_ab t_i^a; the result is summed
    for i <= j only and mirrored.
    """
    n = len(t)
    Y = [[jets.dot(col, t[i]) for col in zip(*X)] for i in range(n)]
    return symmetric(n, lambda i, j: jets.dot(Y[i], t[j]))


def _det(M):
    if len(M) == 1:
        return M[0][0]
    signed = [-x if j % 2 else x for j, x in enumerate(M[0])]
    minors = [_det([row[:j] + row[j + 1 :] for row in M[1:]]) for j in range(len(M))]
    return jets.dot(signed, minors)


def normal(sctx, d):
    """Unit normal nu^a (ambient index up), oriented by the embedding's sigma."""

    def build(dd):
        n = sctx.dim
        na = n + 1
        t = tangents(sctx, dd)
        cof = []
        for a in range(na):
            minor = [[t[i][b] for b in range(na) if b != a] for i in range(n)]
            m = _det(minor)
            if (n + a) % 2:
                m = -m
            cof.append(m)
        gbi = ambient_inverse_on_surface(sctx, dd)
        raised = [jets.dot(gbi[a], cof) for a in range(na)]
        norm_sq = jets.dot(raised, cof)
        scale = jets.recip(jets.sqrt(norm_sq)) * sctx.embedding.sigma
        return [scale * raised[a] for a in range(na)]

    return sctx.get("normal", d, build)


def pulled_christoffel(sctx, d):
    """Ambient Christoffel symbols composed with the embedding."""
    return sctx.get("gammabar", d, lambda dd: _pull_symmetric(sctx, sctx.ambient.gamma(dd), dd))


def second_fundamental(sctx, d):
    """L_ij = gbar(nabla_i nu, t_j) by the Gauss formula, as gbar(nu, t_j) = 0:
    L_ij = -nu_a (d_i t_j^a + Gammabar^a_bc t_i^b t_j^c), with nu at degree d,
    nu_a Gammabar^a_bc contracted once, and i <= j summed and mirrored."""

    def build(dd):
        n = sctx.dim
        na = n + 1
        dt = tangents(sctx, dd + 1)
        nu = normal(sctx, dd)
        gb = ambient_metric_on_surface(sctx, dd)
        gab = pulled_christoffel(sctx, dd)
        nu_low = [jets.dot(gb[a], nu) for a in range(na)]
        P = symmetric(na, lambda b, c: jets.dot(nu_low, [gab[a][b][c] for a in range(na)]))
        Pt = _tangential(P, tangents(sctx, dd))
        return symmetric(
            n, lambda i, j: -(jets.dot(nu_low, [dt[j][a].partial(i) for a in range(na)]) + Pt[i][j])
        )

    return sctx.get("second_fundamental", d, build)


def mean_curvature(sctx, d):
    """H = (1/n) h^{ij} L_ij."""

    def build(dd):
        n = sctx.dim
        L = second_fundamental(sctx, dd)
        hi = sctx.ginv(dd)
        return jets.dot(_flat(hi), _flat(L)) * (1.0 / n)

    return sctx.get("mean_curvature", d, build)


def tracefree_second_fundamental(sctx, d):
    def build(dd):
        n = sctx.dim
        L = second_fundamental(sctx, dd)
        H = mean_curvature(sctx, dd)
        h = sctx.g(dd)
        return [[L[i][j] - H * h[i][j] for j in range(n)] for i in range(n)]

    return sctx.get("tracefree_L", d, build)


def pull(sctx, ambient_jets, d):
    """Compose a list of ambient-variable jets with the embedding at surface degree d."""
    return jets.compose(ambient_jets, iota_jets(sctx, d))


def _pull_symmetric(sctx, T, d):
    """Pull back T[k][a][b], symmetric in its last two ambient indices: the
    entries with a <= b are read, and all are pulled in one call."""
    na = sctx.dim + 1
    kab = [(k, a, b) for k in range(len(T)) for a in range(na) for b in range(a, na)]
    out = [[[None] * na for _ in range(na)] for _ in T]
    for (k, a, b), p in zip(kab, pull(sctx, [T[k][a][b] for k, a, b in kab], d)):
        out[k][a][b] = out[k][b][a] = p
    return out


def pulled_schouten(sctx, d):
    """Ambient Schouten tensor along the surface, ambient indices."""
    return sctx.get(
        "rhobar",
        d,
        lambda dd: _pull_symmetric(sctx, [curvature.schouten(sctx.ambient, dd)], dd)[0],
    )


def _pulled_curvature(sctx, tensor, d):
    """An ambient curvature-type 4-tensor composed with the embedding."""
    na = sctx.dim + 1
    T = tensor(sctx.ambient, d)
    comps = pull(sctx, [T[i][j][k][l] for i, j, k, l in curvature.independent_components(na)], d)
    return curvature._fill_curvature(comps, na, jets.constant(jets.jet_space(sctx.dim, d), 0.0))


def pulled_weyl(sctx, d):
    """Ambient Weyl tensor along the surface, ambient indices."""

    return sctx.get("weylbar", d, lambda dd: _pulled_curvature(sctx, curvature.weyl, dd))


def rho_bar_nn(sctx, d):
    """rhobar(nu, nu)."""

    def build(dd):
        na = sctx.dim + 1
        rb = pulled_schouten(sctx, dd)
        nu = normal(sctx, dd)
        nn = [nu[a] * nu[b] for a in range(na) for b in range(na)]
        return jets.dot(_flat(rb), nn)

    return sctx.get("rhobar_nn", d, build)


def rho_bar_tangential(sctx, d):
    """The pullback iota* rhobar as a surface 2-tensor."""

    def build(dd):
        rb = pulled_schouten(sctx, dd)
        return _tangential(rb, tangents(sctx, dd))

    return sctx.get("rhobar_tt", d, build)


def _covector(Y, sctx, d):
    """The surface covector Y_b t_i^b of an ambient covector Y."""
    t = tangents(sctx, d)
    return [jets.dot(Y, t[i]) for i in range(sctx.dim)]


def rho_bar_normal_tangential(sctx, d):
    """rhobar(nu, t_i) as a surface covector."""

    def build(dd):
        na = sctx.dim + 1
        rb = pulled_schouten(sctx, dd)
        nu = normal(sctx, dd)
        Y = [jets.dot(nu, [rb[a][b] for a in range(na)]) for b in range(na)]
        return _covector(Y, sctx, dd)

    return sctx.get("rhobar_nt", d, build)


def _normal_tt(sctx, T, d):
    """The surface 2-tensor T(nu, t_i, t_j, nu) of an ambient curvature-type
    4-tensor T, which vanishes for a = b or c = e.  X_bc = T(nu, b, c, nu) is
    symmetric, as T_abce = T_ecba, so it is summed for b <= c and mirrored."""
    na = sctx.dim + 1
    nu = normal(sctx, d)
    nn = [[nu[a] * nu[e] for e in range(na)] for a in range(na)]

    def entry(b, c):
        ae = [(a, e) for a in range(na) for e in range(na) if a != b and e != c]
        return jets.dot([nn[a][e] for a, e in ae], [T[a][b][c][e] for a, e in ae])

    return _tangential(symmetric(na, entry), tangents(sctx, d))


def normal_riemann(sctx, d):
    """The 2-tensor Rbar(nu, t_i, t_j, nu) of normal ambient curvature."""

    def build(dd):
        return _normal_tt(sctx, _pulled_curvature(sctx, curvature.riemann, dd), dd)

    return sctx.get("normal_riemann", d, build)


def normal_weyl(sctx, d):
    """The 2-tensor Wbar(nu, t_i, t_j, nu), conformally invariant of weight 0."""
    return sctx.get("normal_weyl", d, lambda dd: _normal_tt(sctx, pulled_weyl(sctx, dd), dd))


def fialkow(sctx, d):
    """iota* rhobar - rho + H Lo + (1/2) H^2 h; needs surface dimension >= 3."""

    def build(dd):
        n = sctx.dim
        rt = rho_bar_tangential(sctx, dd)
        rho = curvature.schouten(sctx, dd)
        H = mean_curvature(sctx, dd)
        Lo = tracefree_second_fundamental(sctx, dd)
        h = sctx.g(dd)
        HH = H * H * 0.5
        return [
            [rt[i][j] - rho[i][j] + H * Lo[i][j] + HH * h[i][j] for j in range(n)]
            for i in range(n)
        ]

    return sctx.get("fialkow", d, build)


def _pulled_nabla_rho(sctx, d):
    """Ambient covariant derivative of Schouten along the surface: N[c][a][b]."""

    def build(dd):
        na = sctx.dim + 1
        rb1 = curvature.schouten(sctx.ambient, dd + 1)
        ga = sctx.ambient.gamma(dd)
        N = [symmetric(na, lambda a, b: covariant(rb1, ga, c, (a, b))) for c in range(na)]
        return _pull_symmetric(sctx, N, dd)

    return sctx.get("nabla_rhobar", d, build)


def nabla0_rho_tangential(sctx, d):
    """(nabla_nu rhobar)(t_i, t_j) as a surface 2-tensor."""

    def build(dd):
        na = sctx.dim + 1
        N = _pulled_nabla_rho(sctx, dd)
        nu = normal(sctx, dd)
        X = symmetric(na, lambda a, b: jets.dot(nu, [N[c][a][b] for c in range(na)]))
        return _tangential(X, tangents(sctx, dd))

    return sctx.get("nabla0_rho_tt", d, build)


def nabla0_rho_normal(sctx, d):
    """(nabla_nu rhobar)(nu, t_i) as a surface covector."""

    def build(dd):
        na = sctx.dim + 1
        N = _pulled_nabla_rho(sctx, dd)
        nu = normal(sctx, dd)
        ca = [(c, a) for c in range(na) for a in range(na)]
        nn = [nu[c] * nu[a] for c, a in ca]
        Y = [jets.dot(nn, [N[c][a][b] for c, a in ca]) for b in range(na)]
        return _covector(Y, sctx, dd)

    return sctx.get("nabla0_rho_n", d, build)


def nabla0_weyl_normal(sctx, d=0):
    """(nabla_nu Wbar)(nu, t_i, t_j, nu) as a surface 2-tensor of values.

    Only needed, and only computed, at degree 0, from the constant and linear
    jet coefficients with einsums.  nu is applied first, to dW, W and
    Gammabar, so no term exceeds (n+1)^4 per point:
    d_nu W(nu, b, c, nu) - W(Gammabar(nu, nu), b, c, nu)
    - W(nu, Gammabar(nu, b), c, nu) - W(nu, b, Gammabar(nu, c), nu)
    - W(nu, b, c, Gammabar(nu, nu)), contracted with t_i^b t_j^c.
    """
    if d != 0:
        raise DegreeExhaustedError(
            "the Weyl normal derivative term is evaluated pointwise (degree 0 only)"
        )

    def build(dd):
        n = sctx.dim
        na = n + 1
        B = sctx.nbatch
        amb = sctx.ambient
        nuv = jet_values(normal(sctx, 0), B)
        tv = jet_values(tangents(sctx, 0), B)
        # coefficient 1 + e of a degree-1 jet is its first partial along e
        W1 = jet_coeffs(curvature.weyl(amb, 1), B, na + 1)
        dW = np.einsum("eabcdZ,eZ->abcdZ", W1[1:], nuv)
        dW = np.einsum("abcZ,aZ->bcZ", np.einsum("abcdZ,dZ->abcZ", dW, nuv), nuv)
        Wn = np.einsum("abcdZ,dZ->abcZ", W1[0], nuv)
        Wnn = np.einsum("abcZ,aZ->bcZ", Wn, nuv)
        Gn = np.einsum("feaZ,eZ->faZ", jet_values(amb.gamma(0), B), nuv)
        Gnn = np.einsum("faZ,aZ->fZ", Gn, nuv)
        # the last two terms are the transposes of the first two, by the
        # symmetries W(nu, b, c, f) = W(f, c, b, nu) and Wnn_bc = Wnn_cb
        S = np.einsum("fZ,fbcZ->bcZ", Gnn, Wn) + np.einsum("fbZ,fcZ->bcZ", Gn, Wnn)
        X = dW - S - S.swapaxes(0, 1)
        T = np.einsum("bcZ,ibZ,jcZ->ijZ", X, tv, tv)
        sp = jets.jet_space(n, 0)
        return [[jets.constant(sp, T[i, j]) for j in range(n)] for i in range(n)]

    return sctx.get("nabla0_weyl", 0, build)


def ambient_expression_field(text, ambient_chart):
    """A surface scalar field from an expression in the ambient coordinates."""
    expr = parse_expression(text, ambient_chart.names)
    return Field(0, lambda ctx, d: expr(iota_jets(ctx, d)))
