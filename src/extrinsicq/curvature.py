"""Curvature of a geometry context: Riemann, Ricci, scalar, Schouten, Weyl.

Everything here takes a context from geometry.py and a degree, returns a
``jets.Packed`` tensor (a jet for scal and J), and caches on the context, so
ambient and induced metrics share one code path.  Each tensor is one
(ncoeffs, components, batch) coefficient array of the components its
builder computes: Riemann and Weyl their ``independent_components``, Ricci
and Schouten i <= j.  Each contraction is an index table, cached per
dimension, that ``jets.contract`` runs; a curvature entry's sign goes on the
other operand, the x side, as (-x) y = x (-y) exactly.  Indexing, R[i][j][k][l],
gives the nested jets the consumers outside (``hypersurface``, the operator
fields, ``cli``, ``verify``) read: views into the array, one negated copy per
component where the symmetries give a minus sign, and one zero.

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
k < l, (i, j) <= (k, l)); ``curvature_layout`` places the rest as
``_fill_curvature`` fills a nested tensor, by R_ijkl = -R_jikl = -R_ijlk =
R_klij.  The first Bianchi identity is not used, so it stays a check.
"""

import functools

import numpy as np

from . import jets
from .geometry import christoffel_first, full_layout, pack_symmetric, symmetric_layout, upper
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


@functools.lru_cache(maxsize=None)
def curvature_layout(n):
    """The ``jets.Packed`` layout of a curvature-type 4-tensor: its
    ``independent_components``, placed as ``_fill_curvature`` places them."""
    R = np.array(_fill_curvature(list(range(len(independent_components(n)))), n, None),
                 dtype=object)
    pos = np.array([-1 if c is None else abs(c) for c in R.flat]).reshape(R.shape)
    sign = np.ones_like(pos)
    for c, (i, j, k, l) in enumerate(independent_components(n)):
        sign[j, i, k, l] = sign[i, j, l, k] = sign[l, k, i, j] = sign[k, l, j, i] = -1
    return jets.Layout(pos, sign)


def _pair_index(n):
    return {p: c for c, p in enumerate(upper(n))}


@functools.lru_cache(maxsize=None)
def _riemann_table(n):
    """Rows of ``riemann``, one per independent component (i, j, k, l):
    the Christoffel partials of the start d_j Gamma_{l,ik} - d_i Gamma_{l,jk},
    gathered per variable, and the terms Gamma^m_jk Gamma_{m,il} and
    -Gamma^m_ik Gamma_{m,jl} of m = 0 .. n-1."""
    up, P = _pair_index(n), n * (n + 1) // 2

    def sym(m, a, b):
        return m * P + up[min(a, b), max(a, b)]

    quads = independent_components(n)
    need = [(sym(l, i, k), j) for i, j, k, l in quads] + [(sym(l, j, k), i) for i, j, k, l in quads]
    wanted = [sorted({c for c, v in need if v == var}) for var in range(n)]
    at = {}
    for var, comps in enumerate(wanted):
        for c in comps:
            at[c, var] = len(at)
    plus = np.array([at[p] for p in need[: len(quads)]])
    minus = np.array([at[p] for p in need[len(quads) :]])
    xi = np.array([[x for m in range(n) for x in (sym(m, j, k), sym(m, i, k))] for i, j, k, l in quads])
    yi = np.array([[y for m in range(n) for y in (sym(m, i, l), sym(m, j, l))] for i, j, k, l in quads])
    negate = np.tile(np.array([False, True] * n), (len(quads), 1))
    return wanted, plus, minus, xi, yi, negate


def riemann(ctx, d):
    """Fully covariant curvature tensor R[i][j][k][l]."""

    def build(dd):
        n = ctx.dim
        # first kind, G1[l][i][k] = Gamma_{l,ik} at degree dd + 1
        G1 = christoffel_first(ctx.g(dd + 2))
        ga = ctx.gamma(dd)
        wanted, plus, minus, xi, yi, negate = _riemann_table(n)
        u = np.concatenate([G1.narrow()[c] for c in wanted])
        narrow, space, B = u[plus] & u[minus], ga.space, G1.coeffs.shape[2]
        start = jets.empty(space.ncoeffs, len(plus), B)
        fixed = np.empty((space.ncoeffs, len(plus)))
        for s in jets.point_blocks(B, space.ncoeffs * len(u)):
            dG = G1.points(s).partials(wanted)
            jets.fill(start[:, :, s], fixed, narrow,
                      lambda k, w: dG.take(plus[k], w) - dG.take(minus[k], w))
        start = jets.Packed(space, start, G1.batch, uniform=narrow, fixed=fixed)
        comps = jets.contract(ga, xi, G1, yi, start, negate)
        return comps.laid_out(curvature_layout(n))

    return ctx.get("riemann", d, build)


@functools.lru_cache(maxsize=None)
def _ricci_table(n):
    """Rows (a <= b) of Ric_ab = g^{kl} R_{akbl}: g^kl, the component of
    R_akbl (-1 where it is zero) and its sign, put on g^kl."""
    layout = curvature_layout(n)
    pos, sign = layout.pos, layout.sign
    kl = [(k, l) for k in range(n) for l in range(n)]
    xi = np.array([[k * n + l for k, l in kl] for a, b in upper(n)])
    yi = np.array([[pos[a, k, b, l] for k, l in kl] for a, b in upper(n)])
    negate = np.array([[sign[a, k, b, l] < 0 for k, l in kl] for a, b in upper(n)])
    return xi, yi, negate


def ricci(ctx, d):
    """Ric_ab = g^{kl} R_{akbl}."""

    def build(dd):
        n = ctx.dim
        R = riemann(ctx, dd)
        xi, yi, negate = _ricci_table(n)
        ric = jets.contract(ctx.ginv(dd), xi, R, yi, None, negate)
        return ric.laid_out(symmetric_layout(n))

    return ctx.get("ricci", d, build)


def _trace_table(n):
    """The one row g^ij T_ij of a symmetric T."""
    return full_layout(n).pos.reshape(1, -1), symmetric_layout(n).pos.reshape(1, -1)


def scal(ctx, d):
    def build(dd):
        ric = ricci(ctx, dd)
        xi, yi = _trace_table(ctx.dim)
        return jets.contract(ctx.ginv(dd), xi, ric, yi).views[0]

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
        ric, J, g = ricci(ctx, dd), jfun(ctx, dd), pack_symmetric(ctx.g(dd))
        sp = ric.space
        both = g.narrow() & (J.batch is None)
        rho = jets.mul_entries(sp, J.coeffs.reshape(sp.ncoeffs, 1, -1), g.dense(), both)
        np.subtract(ric.dense(), rho, out=rho)
        rho *= 1.0 / (n - 2)
        uniform = ric.narrow() & both
        return jets.Packed(sp, rho, ric.batch or g.batch, symmetric_layout(n), uniform)

    return ctx.get("schouten", d, build)


@functools.lru_cache(maxsize=None)
def _weyl_norm_table(n):
    """The rows of ``weyl_norm_sq``: G^{IA} over pairs I = (i, j), A = (a, b)
    from g^ia g^jb - g^ib g^ja; (G W)^I_K = G^{IA} W_AK from the components
    W_abkl; and the trace of (G W)(G W)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    P, pos = len(pairs), curvature_layout(n).pos
    gx = np.array([[i * n + a, i * n + b] for i, j in pairs for a, b in pairs])
    gy = np.array([[j * n + b, j * n + a] for i, j in pairs for a, b in pairs])
    gneg = np.tile(np.array([False, True]), (P * P, 1))
    wx = np.array([[I * P + A for A in range(P)] for I in range(P) for _ in pairs])
    wy = np.array([[pos[a, b, k, l] for a, b in pairs] for _ in range(P) for k, l in pairs])
    tx = np.arange(P * P).reshape(1, -1)
    ty = np.array([[K * P + I for I in range(P) for K in range(P)]])
    return gx, gy, gneg, wx, wy, tx, ty


def weyl_norm_sq(ctx, d):
    """|W|^2 = 4 tr(G W G W): W as a symmetric matrix over index pairs
    I = (i < j), and G^{IA} = g^ia g^jb - g^ib g^ja the metric on 2-forms."""

    def build(dd):
        W, gi = weyl(ctx, dd), ctx.ginv(dd)
        gx, gy, gneg, wx, wy, tx, ty = _weyl_norm_table(ctx.dim)
        G = jets.contract(gi, gx, gi, gy, None, gneg)
        GW = jets.contract(G, wx, W, wy)
        return jets.contract(GW, tx, GW, ty).views[0] * 4.0

    return ctx.get("weylnormsq", d, build)


@functools.lru_cache(maxsize=None)
def _weyl_table(n):
    """Rows of the Kulkarni-Nomizu product (rho ^ g)_ijkl = rho_ik g_jl +
    g_ik rho_jl - rho_il g_jk - g_il rho_jk, one per independent component,
    over the components of rho and then of g."""
    up, P = _pair_index(n), n * (n + 1) // 2

    def s(a, b):
        return up[min(a, b), max(a, b)]

    quads = independent_components(n)
    xi = np.array([[s(i, k), P + s(i, k), s(i, l), P + s(i, l)] for i, j, k, l in quads])
    yi = np.array([[P + s(j, l), s(j, l), P + s(j, k), s(j, k)] for i, j, k, l in quads])
    negate = np.tile(np.array([False, False, True, True]), (len(quads), 1))
    return xi, yi, negate


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
        rho_g = (schouten(ctx, dd), pack_symmetric(ctx.g(dd)))
        xi, yi, negate = _weyl_table(n)
        kn = jets.contract(rho_g, xi, rho_g, yi, None, negate)
        nc = kn.space.ncoeffs
        return jets.filled(
            kn.space, len(xi), R.batch or kn.batch, R.narrow() & kn.narrow(),
            lambda k, w: R.take(k, w, slice(0, nc)) - kn.take(k, w), curvature_layout(n),
        )

    return ctx.get("weyl", d, build)
