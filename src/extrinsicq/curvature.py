"""Curvature of a geometry context: Riemann, Ricci, scalar, Schouten, Weyl.

Everything here takes a context from geometry.py and a degree, returns
nested lists of jets, and caches on the context, so ambient and induced
metrics share one code path.

Conventions, pinned jointly by the round-sphere tests: the curvature
operator is

    R^m_{ijk} = d_j Gamma^m_{ik} - d_i Gamma^m_{jk}
                + Gamma^m_{ja} Gamma^a_{ik} - Gamma^m_{ia} Gamma^a_{jk}

lowered on the last slot, R_{ijkl} = g_{lm} R^m_{ijk}.  With these signs the
unit sphere satisfies R_{ijkl} = g_ik g_jl - g_il g_jk, sectional curvatures
of round spheres are positive, Ric = (n-1) g, and scal = n(n-1).

The builder uses the first-kind form, whose symbols cost no products:

    R_{ijkl} = d_j Gamma_{l,ik} - d_i Gamma_{l,jk}
               + Gamma^m_{jk} Gamma_{m,il} - Gamma^m_{ik} Gamma_{m,jl},
    Gamma_{l,ik} = (d_i g_lk + d_k g_li - d_l g_ik) / 2,

with the first-kind symbols from ``geometry.christoffel_first``, the same
function the second-kind ``gamma`` raises.

It and the Weyl builder compute only ``independent_components`` (i < j,
k < l, (i, j) <= (k, l)); ``_fill_curvature`` fills the rest by
R_ijkl = -R_jikl = -R_ijlk = R_klij.
The first Bianchi identity is not used, so it stays a check.
"""

from . import jets
from .geometry import _flat, christoffel_first, symmetric_dots
from .jets import JetError


def independent_components(n):
    """The index quadruples i < j, k < l, (i, j) <= (k, l) of a curvature-type
    4-tensor in n dimensions, in the order ``_fill_curvature`` reads them."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(p + q for a, p in enumerate(pairs) for q in pairs[a:])


def _fill_curvature(comps, n, zero):
    """The 4-tensor with the symmetries of curvature from ``comps``, its
    components at ``independent_components(n)``; the rest follows from
    R_ijkl = -R_jikl = -R_ijlk = R_klij, and i = j or k = l gives ``zero``."""
    out = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, k, l), r in zip(independent_components(n), comps, strict=True):
        m = -r
        out[i][j][k][l] = out[j][i][l][k] = out[k][l][i][j] = out[l][k][j][i] = r
        out[j][i][k][l] = out[i][j][l][k] = out[l][k][i][j] = out[k][l][j][i] = m
    return out


def riemann(ctx, d):
    """Fully covariant curvature tensor R[i][j][k][l]."""

    def build(dd):
        n = ctx.dim
        # first kind, G1[l][i][k] = Gamma_{l,ik} at degree dd + 1; G0 at dd
        G1 = christoffel_first(ctx.g(dd + 2))
        G0 = [[[x.truncate(dd) for x in row] for row in plane] for plane in G1]
        ga = ctx.gamma(dd)

        def row(i, j, k, l):
            xs = [x for m in range(n) for x in (ga[m][j][k], ga[m][i][k])]
            ys = [y for m in range(n) for y in (G0[m][i][l], G0[m][j][l])]
            return xs, ys, G1[l][i][k].partial(j) - G1[l][j][k].partial(i)

        comps = jets.dot_rows((row(*q) for q in independent_components(n)), (False, True) * n)
        return _fill_curvature(comps, n, jets.constant(jets.jet_space(n, dd), 0.0))

    return ctx.get("riemann", d, build)


def ricci(ctx, d):
    """Ric_ab = g^{kl} R_{akbl}."""

    def build(dd):
        n = ctx.dim
        R = riemann(ctx, dd)
        gi = _flat(ctx.ginv(dd))
        return symmetric_dots(
            n, lambda a, b: (gi, [R[a][k][b][l] for k in range(n) for l in range(n)], None)
        )

    return ctx.get("ricci", d, build)


def scal(ctx, d):
    def build(dd):
        ric = ricci(ctx, dd)
        return jets.dot(_flat(ctx.ginv(dd)), _flat(ric))

    return ctx.get("scal", d, build)


def jfun(ctx, d):
    """The trace-adjusted scalar curvature J = scal / (2 (n - 1))."""

    def build(dd):
        return scal(ctx, dd) * (1.0 / (2.0 * (ctx.dim - 1)))

    return ctx.get("J", d, build)


def schouten(ctx, d):
    """rho = (Ric - J g) / (n - 2); needs dimension at least 3."""
    if ctx.dim < 3:
        raise JetError("the Schouten tensor needs dimension >= 3")

    def build(dd):
        n = ctx.dim
        ric = ricci(ctx, dd)
        J = jfun(ctx, dd)
        g = ctx.g(dd)
        c = 1.0 / (n - 2)
        return [
            [(ric[i][j] - J * g[i][j]) * c for j in range(n)] for i in range(n)
        ]

    return ctx.get("schouten", d, build)


def weyl_norm_sq(ctx, d):
    """|W|^2 = 4 tr(G W G W): W as a symmetric matrix over index pairs
    I = (i < j), and G^{IA} = g^ia g^jb - g^ib g^ja the metric on 2-forms."""

    def build(dd):
        n, W, gi = ctx.dim, weyl(ctx, dd), ctx.ginv(dd)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        P = len(pairs)
        G = jets.dot_rows(
            (([gi[i][a], gi[i][b]], [gi[j][b], gi[j][a]], None) for i, j in pairs for a, b in pairs),
            (False, True),
        )
        GW = jets.dot_rows(
            (G[I * P : (I + 1) * P], [W[a][b][k][l] for a, b in pairs], None)
            for I in range(P)
            for k, l in pairs
        )
        col = [GW[K * P + I] for I in range(P) for K in range(P)]
        return jets.dot(GW, col) * 4.0

    return ctx.get("weylnormsq", d, build)


def weyl(ctx, d):
    """Conformally invariant part of curvature: W = R - rho ^ g (KN product).

    Identically zero in dimension 3; an error in dimension 2 where the
    decomposition does not exist.
    """
    if ctx.dim < 3:
        raise JetError("the Weyl tensor needs dimension >= 3")

    def build(dd):
        n = ctx.dim
        R = riemann(ctx, dd)
        rho = schouten(ctx, dd)
        g = ctx.g(dd)

        # R minus the Kulkarni-Nomizu product (rho ^ g)_ijkl
        quads = independent_components(n)
        rows = (
            ([rho[i][k], g[i][k], rho[i][l], g[i][l]], [g[j][l], rho[j][l], g[j][k], rho[j][k]], None)
            for i, j, k, l in quads
        )
        kn = jets.dot_rows(rows, (False, False, True, True))
        comps = [R[i][j][k][l] - p for (i, j, k, l), p in zip(quads, kn)]
        return _fill_curvature(comps, n, jets.constant(jets.jet_space(n, dd), 0.0))

    return ctx.get("weyl", d, build)
