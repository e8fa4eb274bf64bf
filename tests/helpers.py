"""Shared test utilities.

The polynomial oracle works in exact rational arithmetic (Fraction
coefficients, Fraction evaluation points) so derivative values compared
against jets are independently exact, not produced by the code under test.
"""

import math
from fractions import Fraction

import numpy as np

from extrinsicq import curvature, exprlang, jets, verify
from extrinsicq import hypersurface as hs
from extrinsicq import operators as ops
from extrinsicq.geometry import (
    DegreePlan,
    Field,
    MetricContext,
    divdiv,
    hessian,
    inner22,
    jet_coeffs,
    jet_values,
    laplacian,
    norm2sq,
    square2,
    trace_cube,
)


# ---- exact polynomial oracle ---------------------------------------------
# A polynomial is a dict {exponent tuple: Fraction coefficient}.


def poly_random(rng, nvars, degree, nterms=7):
    p = {}
    for _ in range(nterms):
        alpha = tuple(int(rng.integers(0, degree + 1)) for _ in range(nvars))
        if sum(alpha) > degree:
            continue
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        p[alpha] = p.get(alpha, Fraction(0)) + c
    p = {a: c for a, c in p.items() if c != 0}
    if not p:
        p[(0,) * nvars] = Fraction(1)
    return p


def poly_add(p, q):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, Fraction(0)) + c
    return {a: c for a, c in out.items() if c != 0}


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {a: c for a, c in out.items() if c != 0}


def poly_partial(p, var):
    out = {}
    for a, c in p.items():
        if a[var] == 0:
            continue
        b = list(a)
        b[var] -= 1
        out[tuple(b)] = out.get(tuple(b), Fraction(0)) + c * a[var]
    return out


def poly_eval(p, point):
    tot = Fraction(0)
    for a, c in p.items():
        term = c
        for x, k in zip(point, a):
            term *= x**k
        tot += term
    return tot


def poly_derivative_value(p, beta, point):
    """Exact value of the mixed partial d^beta p at ``point``."""
    for var, k in enumerate(beta):
        for _ in range(k):
            p = poly_partial(p, var)
    return poly_eval(p, point)


def poly_substitute(p, inners):
    """p(b_1(x), ..., b_k(x)) as a polynomial in the inner variables."""
    nv = len(next(iter(inners[0])))
    out = {}
    for alpha, c in p.items():
        term = {(0,) * nv: c}
        for v, k in enumerate(alpha):
            for _ in range(k):
                term = poly_mul(term, inners[v])
        out = poly_add(out, term)
    return out


def poly_jet(p, space, point):
    """The jet of polynomial p at ``point``, built through jet arithmetic."""
    xs = [jets.seed_variable(space, v, float(point[v])) for v in range(space.nvars)]
    total = jets.constant(space, 0.0)
    for alpha, c in p.items():
        term = jets.constant(space, float(c))
        for v, k in enumerate(alpha):
            if k:
                term = term * jets.powi(xs[v], k)
        total = total + term
    return total


def jval(j, B=None):
    """A jet's value as a 1-d array regardless of batching."""
    v = np.atleast_1d(np.asarray(j.value, dtype=np.float64))
    if B is not None and v.shape[0] != B:
        v = np.broadcast_to(v, (B,))
    return v


# ---- finite differences ----------------------------------------------------


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_rate(f, exact, x, h0=1e-2):
    """Observed convergence order of the central difference toward ``exact``."""
    e1 = abs(central_difference(f, x, h0) - exact)
    e2 = abs(central_difference(f, x, h0 / 2.0) - exact)
    return math.log2(e1 / e2)


def richardson_partial(f, x, i, h=1e-3):
    """Richardson-extrapolated first partial of callable f at point array x."""
    x = np.asarray(x, dtype=np.float64)

    def diff(step):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        return (f(xp) - f(xm)) / (2.0 * step)

    d1 = diff(h)
    d2 = diff(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


# ---- reference substitutions -----------------------------------------------
# One outer composed at a time, and series evaluated by Horner's rule: the
# direct forms that jets.compose and jets._series share one substitution for.


def reference_compose(outer, args):
    """``outer``'s Taylor polynomial at the offsets of ``args``, alone."""
    inner_space = args[0].space
    d = min(outer.degree, inner_space.degree)
    space = jets.jet_space(inner_space.nvars, d)
    w = []
    for b in args:
        c = b.coeffs[: space.ncoeffs].copy()
        c[0] = 0.0
        w.append(jets.Jet(space, c))
    result = jets.constant(space, outer.coeffs[0])
    prev = {(0,) * outer.nvars: jets.constant(space, 1.0)}
    for q in range(1, d + 1):
        cur = {}
        for alpha in jets._grade_block(outer.nvars, q):
            j = next(i for i, e in enumerate(alpha) if e)
            parent = list(alpha)
            parent[j] -= 1
            m = prev[tuple(parent)] * w[j]
            cur[alpha] = m
            c = outer.coeffs[outer.space.index[alpha]]
            if np.any(c):
                result = result + m * c
        prev = cur
    return result


def reference_series(a, coeffs_for):
    """s_0 + s_1 w + ... + s_d w^d at w = a - a.value, by Horner's rule."""
    d = a.degree
    s = coeffs_for(a.value, d)
    if d == 0:
        return jets.constant(a.space, s[0])
    w = jets.Jet(a.space, a.coeffs.copy())
    w.coeffs[0] = 0.0
    r = jets.constant(a.space, s[d])
    for k in range(d - 1, -1, -1):
        r = r * w + s[k]
    return r


def reference_substitute(args, space, C):
    """``jets._substitute`` with every monomial a full-batch jet product."""
    nc = space.ncoeffs
    w = [jets.Jet(space, b.coeffs[:nc].copy()) for b in args]
    for x in w:
        x.coeffs[0] = 0.0
    batch = max([*C.shape[2:], *(n for b in args for n in b.coeffs.shape[1:])], default=0)
    C = C.reshape(C.shape[0], C.shape[1], 1, -1)
    used = C.any(axis=(1, 2, 3)).tolist()
    out = np.zeros((C.shape[1], nc, batch or 1))
    out[:, 0] = C[0, :, 0]
    rest = out[:, 1:]
    mono = [None]
    for i, (parent, j) in enumerate(jets._monomial_parents(len(w), space.degree), 1):
        m = w[j] if parent == 0 else mono[parent] * w[j]
        mono.append(m)
        if used[i]:
            rest += m.coeffs[1:].reshape(nc - 1, -1) * C[i]
    return out if batch else out[:, :, 0]


def reference_layered(space, ca, cb):
    """The scatter-layer Cauchy kernel: starting from ca[0] * cb, layer r
    adds the r-th pair of every target K with more than r pairs by
    out[K] += ca[I_r] * cb[J_r]."""
    I, J, starts, *_ = space.mul_table()
    counts = np.diff(starts, append=I.size)
    out = ca[0] * cb
    for r in range(1, int(counts.max())):
        K = np.flatnonzero(counts > r)
        p = starts[K] + r
        out[K] += ca[I[p]] * cb[J[p]]
    return out


# ---- reference connection builders -----------------------------------------
# Each formula as its builder wrote it out before geometry.christoffel_first,
# covariant and symmetric: the first-kind symbols twice over, gamma scaling
# after its contraction, and every -Gamma.T correction by hand.


def reference_gamma(ctx, d):
    """gamma[k][i][j] = (g^kl (d_i g_jl + d_j g_il - d_l g_ij)) * 0.5."""
    n = ctx.dim
    g1 = ctx.g(d + 1)
    gi = ctx.ginv(d)
    dg = [[[g1[i][j].partial(k) for j in range(n)] for i in range(n)] for k in range(n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            first = [dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in range(n)]
            for k in range(n):
                out[k][i][j] = out[k][j][i] = jets.dot(gi[k], first) * 0.5
    return out


def reference_riemann_first_kind(ctx, d):
    """R_ijkl from first-kind symbols built in place from the metric partials."""
    n = ctx.dim
    g2 = ctx.g(d + 2)
    ga = ctx.gamma(d)
    dg = [[[g2[i][j].partial(k) for j in range(n)] for i in range(n)] for k in range(n)]
    G1 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for k in range(i, n):
                G1[l][i][k] = G1[l][k][i] = (dg[i][l][k] + dg[k][l][i] - dg[l][i][k]) * 0.5
    G0 = [[[x.truncate(d) for x in row] for row in plane] for plane in G1]
    comps = []
    for i, j, k, l in curvature.independent_components(n):
        xs = [x for m in range(n) for x in (ga[m][j][k], -ga[m][i][k])]
        ys = [y for m in range(n) for y in (G0[m][i][l], G0[m][j][l])]
        comps.append(jets.dot(xs, ys, start=G1[l][i][k].partial(j) - G1[l][j][k].partial(i)))
    return curvature._fill_curvature(comps, n, jets.constant(jets.jet_space(n, d), 0.0))


def reference_weyl_negated_by_hand(ctx, d):
    """W = R - rho ^ g, one ``jets.dot`` per independent component with the
    negated rho and g of the Kulkarni-Nomizu product made by hand."""
    n = ctx.dim
    R, rho, g = curvature.riemann(ctx, d), curvature.schouten(ctx, d), ctx.g(d)
    comps = []
    for i, j, k, l in curvature.independent_components(n):
        xs = [rho[i][k], g[i][k], -rho[i][l], -g[i][l]]
        kn = jets.dot(xs, [g[j][l], rho[j][l], g[j][k], rho[j][k]])
        comps.append(R[i][j][k][l] - kn)
    return curvature._fill_curvature(comps, n, jets.constant(jets.jet_space(n, d), 0.0))


def reference_weyl_norm_sq_negated_by_hand(ctx, d):
    """|W|^2 = 4 tr(G W G W) over index pairs, G^{IA} = g^ia g^jb - g^ib g^ja
    with each -g^ib made by hand, one ``jets.dot`` per entry."""
    n, W, gi = ctx.dim, curvature.weyl(ctx, d), ctx.ginv(d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    G = [
        [jets.dot([gi[i][a], -gi[i][b]], [gi[j][b], gi[j][a]]) for a, b in pairs]
        for i, j in pairs
    ]
    GW = [[jets.dot(row, [W[a][b][k][l] for a, b in pairs]) for k, l in pairs] for row in G]
    P = range(len(pairs))
    return jets.dot([x for row in GW for x in row], [GW[K][I] for I in P for K in P]) * 4.0


def reference_hessian(f):
    """d_k d_i f - Gamma^l_ik d_l f for i <= k, mirrored."""

    def fn(ctx, d):
        n = ctx.dim
        j = f(ctx, d + 2)
        dj = [j.partial(i) for i in range(n)]
        ga = ctx.gamma(d)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(i, n):
                h = jets.dot([-ga[l][i][k] for l in range(n)], dj, start=dj[i].partial(k))
                out[i][k] = out[k][i] = h
        return out

    return Field(2, fn)


def reference_divergence2(T):
    """(div T)_j = g^ik (d_i T_kj - Gamma^a_ik T_aj - Gamma^a_ij T_ka)."""

    def fn(ctx, d):
        n = ctx.dim
        t = T(ctx, d + 1)
        gi = [x for row in ctx.ginv(d) for x in row]
        ga = ctx.gamma(d)
        out = []
        for j in range(n):
            cov = []
            for i in range(n):
                for k in range(n):
                    xs = [-x for a in range(n) for x in (ga[a][i][k], ga[a][i][j])]
                    ys = [y for a in range(n) for y in (t[a][j], t[k][a])]
                    cov.append(jets.dot(xs, ys, start=t[k][j].partial(i)))
            out.append(jets.dot(gi, cov))
        return out

    return Field(1, fn)


# ---- reference extrinsic builders ------------------------------------------
# The direct forms the hypersurface builders replaced: L through the
# derivative of the normal, and the Weyl normal derivative through the full
# five-index covariant derivative before any normal contracts it.


def reference_second_fundamental(sctx, d):
    """L_ij = gbar(nabla_i nu, t_j), with nu at degree d + 1."""
    n = sctx.dim
    na = n + 1
    nu = hs.normal(sctx, d + 1)
    t = hs.tangents(sctx, d)
    gb = hs.ambient_metric_on_surface(sctx, d)
    gab = hs.pulled_christoffel(sctx, d)
    out = []
    for i in range(n):
        tn = [[t[i][b] * nu[c] for c in range(na)] for b in range(na)]
        cov = []
        for a in range(na):
            s = nu[a].partial(i)
            for b in range(na):
                for c in range(na):
                    s = s + gab[a][b][c] * tn[b][c]
            cov.append(s)
        low = [reference_dot([gb[a][b] for a in range(na)], cov) for b in range(na)]
        out.append([reference_dot(low, t[j]) for j in range(n)])
    return out


def reference_normal_tt(sctx, T, d):
    """T(nu, t_i, t_j, nu) with every (b, c) of X_bc = T(nu, b, c, nu) summed
    and every (i, j) of the surface tensor, with no symmetry used."""
    na = sctx.dim + 1
    nu = hs.normal(sctx, d)
    t = hs.tangents(sctx, d)
    nn = [[nu[a] * nu[e] for e in range(na)] for a in range(na)]
    X = [[None] * na for _ in range(na)]
    for b in range(na):
        for c in range(na):
            ae = [(a, e) for a in range(na) for e in range(na) if a != b and e != c]
            X[b][c] = reference_dot([nn[a][e] for a, e in ae], [T[a][b][c][e] for a, e in ae])
    Y = [[reference_dot([X[a][b] for a in range(na)], t[i]) for b in range(na)]
         for i in range(sctx.dim)]
    return [[reference_dot(Y[i], t[j]) for j in range(sctx.dim)] for i in range(sctx.dim)]


def reference_nabla0_weyl_normal(sctx):
    """(nabla_nu Wbar)(nu, t_i, t_j, nu) values, shape (n, n, batch)."""
    na = sctx.dim + 1
    B = sctx.nbatch
    amb = sctx.ambient
    W1 = jet_coeffs(curvature.weyl(amb, 1), B, na + 1)
    Wv, dWv = W1[0], W1[1:]
    Gv = jet_values(amb.gamma(0), B)
    nW = (
        dWv
        - np.einsum("feaZ,fbcdZ->eabcdZ", Gv, Wv)
        - np.einsum("febZ,afcdZ->eabcdZ", Gv, Wv)
        - np.einsum("fecZ,abfdZ->eabcdZ", Gv, Wv)
        - np.einsum("fedZ,abcfZ->eabcdZ", Gv, Wv)
    )
    nuv = jet_values(hs.normal(sctx, 0), B)
    tv = jet_values(hs.tangents(sctx, 0), B)
    X = np.einsum("eabcdZ,eZ->abcdZ", nW, nuv)
    X = np.einsum("abcdZ,aZ->bcdZ", X, nuv)
    X = np.einsum("bcdZ,dZ->bcZ", X, nuv)
    return np.einsum("bcZ,ibZ,jcZ->ijZ", X, tv, tv)


def reference_weyl_norm_sq(ctx, d):
    """|W|^2 with each of the four indices of W raised in turn, 4 n^5 products."""
    n = ctx.dim
    W = curvature.weyl(ctx, d)
    gi = ctx.ginv(d)

    def raise_first(T):
        out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    col = [T[a][j][k][l] for a in range(n)]
                    for i in range(n):
                        out[i][j][k][l] = jets.dot(gi[i], col)
        return out

    def rot(T):
        # cycle indices so each raise_first hits a fresh slot
        return [
            [[[T[j][k][l][i] for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]

    def flat(T):
        return [x for a in T for b in a for c in b for x in c]

    up = W
    for _ in range(4):
        up = rot(raise_first(up))
    return jets.dot(flat(up), flat(W))


# ---- reference nested curvature builders ------------------------------------
# The metric pipeline as it was built on nested lists of jets, one jet per
# entry, before the builders packed each tensor into one coefficient array:
# the Gauss-Jordan inverse entry by entry, the Christoffel symbols, Riemann,
# Ricci, scal, J, Schouten, Weyl and |W|^2.  Each reads only the nested
# metric (``reference_metric``) and the others here, so the packed builders
# can be checked against it bit for bit.


def reference_metric(ctx, d):
    """The metric jets as the context's metric or embedding gives them."""
    if isinstance(ctx, MetricContext):
        return ctx.metric.evaluate(ctx.coords(d))
    return hs._induced_metric(ctx, d)


def reference_invert_spd(gmat, ctx, d):
    n = len(gmat)
    for i in range(n):
        for j in range(i, n):
            finite = np.atleast_1d(np.isfinite(gmat[i][j].coeffs).all(axis=0))
            if not finite.all():
                raise jets.SingularFieldError(
                    f"metric components at {ctx.describe_point(int(np.argmin(finite)))} "
                    "exceed the float range"
                )
    sp = jets.jet_space(ctx.dim, d)
    a = [list(row) for row in gmat]
    inv = [[jets.constant(sp, 1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = a[k][k]
        pv = np.atleast_1d(piv.value)
        base = np.atleast_1d(np.abs(gmat[k][k].value))
        bad = (pv <= 0.0) | (pv <= 1e-12 * base)
        if np.any(bad):
            b = int(np.argmax(bad))
            raise jets.SingularFieldError(
                f"metric is not positive definite at {ctx.describe_point(b)}: "
                f"pivot {k + 1} is {pv[b]:.4e} against diagonal {base[b]:.4e}"
            )
        ip = jets.recip(piv)
        a[k] = [x * ip for x in a[k]]
        inv[k] = [x * ip for x in inv[k]]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if not np.any(f.coeffs):
                continue
            a[i] = [a[i][j] - f * a[k][j] for j in range(n)]
            inv[i] = [inv[i][j] - f * inv[k][j] for j in range(n)]
    return inv


def _symmetric(n, entry):
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = entry(i, j)
    return out


def reference_christoffel_first(g1):
    n = len(g1)
    dg = [_symmetric(n, lambda i, j: g1[i][j].partial(k)) for k in range(n)]
    return [
        _symmetric(n, lambda i, j: (dg[i][l][j] + dg[j][l][i] - dg[l][i][j]) * 0.5)
        for l in range(n)
    ]


def reference_nested(ctx, d):
    """{name: nested tensor} of the reference builders at degree d: ginv,
    gamma, riemann, ricci, scal, J, and from dimension 3 schouten, weyl and
    weylnormsq, on the context's own nested metric."""
    n = ctx.dim
    zero = jets.constant(jets.jet_space(n, d), 0.0)
    g = lambda dd: reference_metric(ctx, dd)  # noqa: E731
    ginv = lambda dd: reference_invert_spd(g(dd), ctx, dd)  # noqa: E731
    G = reference_christoffel_first(g(d + 1))
    gi = ginv(d)
    kij = [(k, i, j) for k in range(n) for i in range(n) for j in range(i, n)]
    v = dict(zip(kij, jets.dot_rows((gi[k], [G[l][i][j] for l in range(n)], None)
                                    for k, i, j in kij)))
    ga = [_symmetric(n, lambda i, j: v[k, i, j]) for k in range(n)]

    G1 = reference_christoffel_first(g(d + 2))
    G0 = [[[x.truncate(d) for x in row] for row in plane] for plane in G1]

    def row(i, j, k, l):
        xs = [x for m in range(n) for x in (ga[m][j][k], ga[m][i][k])]
        ys = [y for m in range(n) for y in (G0[m][i][l], G0[m][j][l])]
        return xs, ys, G1[l][i][k].partial(j) - G1[l][j][k].partial(i)

    quads = curvature.independent_components(n)
    R = curvature._fill_curvature(
        jets.dot_rows((row(*q) for q in quads), (False, True) * n), n, zero)
    gi_flat = [x for r in gi for x in r]
    up = [(a, b) for a in range(n) for b in range(a, n)]
    v = dict(zip(up, jets.dot_rows(
        (gi_flat, [R[a][k][b][l] for k in range(n) for l in range(n)], None) for a, b in up)))
    ric = _symmetric(n, lambda a, b: v[a, b])
    scal = jets.dot(gi_flat, [x for r in ric for x in r])
    J = scal * (1.0 / (2.0 * (n - 1)))
    out = {"ginv": gi, "gamma": ga, "riemann": R, "ricci": ric, "scal": scal, "J": J}
    if n < 3:
        return out
    gd = g(d)
    rho = [[(ric[i][j] - J * gd[i][j]) * (1.0 / (n - 2)) for j in range(n)] for i in range(n)]
    kn = jets.dot_rows(
        (([rho[i][k], gd[i][k], rho[i][l], gd[i][l]], [gd[j][l], rho[j][l], gd[j][k], rho[j][k]],
          None) for i, j, k, l in quads),
        (False, False, True, True),
    )
    W = curvature._fill_curvature(
        [R[i][j][k][l] - p for (i, j, k, l), p in zip(quads, kn)], n, zero)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    P = len(pairs)
    G2 = jets.dot_rows(
        (([gi[i][a], gi[i][b]], [gi[j][b], gi[j][a]], None) for i, j in pairs for a, b in pairs),
        (False, True),
    )
    GW = jets.dot_rows(
        (G2[I * P : (I + 1) * P], [W[a][b][k][l] for a, b in pairs], None)
        for I in range(P) for k, l in pairs
    )
    norm = jets.dot(GW, [GW[K * P + I] for I in range(P) for K in range(P)]) * 4.0
    return out | {"schouten": rho, "weyl": W, "weylnormsq": norm}


# ---- reference fourth-order integrand ----------------------------------------
# Each field written out term by term, as one left-to-right sum: the forms
# that operators.fourth_order_fields builds from shared constituents.


def reference_integrand_i1():
    J = ops.q2()
    return (
        J * J * 2.0
        - norm2sq(ops.schouten_field()) * 2.0
        + norm2sq(ops.normal_weyl_field()) * 4.5
    )


def reference_integrand_i2():
    Lo = ops.tracefree_shape_field()
    H = ops.mean_curvature_field()
    return (
        inner22(Lo, ops.nabla0_rho_field()) * 2.0
        + inner22(Lo, ops.nabla0_weyl_field()) * 4.0
        + inner22(Lo, hessian(H)) * 2.0
        + H * inner22(Lo, ops.schouten_field()) * 2.0
        + H * inner22(Lo, ops.normal_weyl_field()) * 9.0
    )


def reference_integrand_i3():
    Lo = ops.tracefree_shape_field()
    Lo2 = square2(Lo)
    lo_norm = norm2sq(Lo)
    H = ops.mean_curvature_field()
    return (
        inner22(Lo2, ops.schouten_field()) * 8.0
        - ops.rho_bar_nn_field() * lo_norm * 2.0
        - ops.q2() * lo_norm * 3.0
        - H * H * lo_norm * 3.0
        - H * trace_cube(Lo)
        - inner22(Lo2, ops.normal_weyl_field()) * 21.0
    )


def reference_c_invariant():
    Lo = ops.tracefree_shape_field()
    H = ops.mean_curvature_field()
    rho = ops.schouten_field()
    W = ops.normal_weyl_field()
    Lo2 = square2(Lo)
    lo_norm = norm2sq(Lo)
    return (
        inner22(Lo, ops.nabla0_rho_field()) * 2.0
        + inner22(Lo, ops.nabla0_weyl_field()) * 4.0
        + inner22(Lo, hessian(H)) * 2.0
        + H * inner22(Lo, rho) * 2.0
        + H * inner22(Lo, W) * 9.0
        + inner22(Lo2, rho) * 8.0
        - ops.rho_bar_nn_field() * lo_norm * 2.0
        - ops.q2() * lo_norm * 3.0
        - H * H * lo_norm * 3.0
        - H * trace_cube(Lo)
        + divdiv(Lo2) * 2.0
        + laplacian(lo_norm) * 0.5
    )


# ---- reference contraction -------------------------------------------------


def reference_dot(xs, ys, start=None):
    """start + xs[0]*ys[0] + ..., one jet product and one addition per term."""
    r = start
    for x, y in zip(xs, ys, strict=True):
        r = x * y if r is None else r + x * y
    return r


def reference_det(M):
    """Laplace expansion of a square jet matrix along its first row, one
    ``jets.dot`` per minor, recursively."""
    if len(M) == 1:
        return M[0][0]
    signed = [-x if j % 2 else x for j, x in enumerate(M[0])]
    minors = [reference_det([row[:j] + row[j + 1 :] for row in M[1:]]) for j in range(len(M))]
    return jets.dot(signed, minors)


def count_products(monkeypatch):
    """Count jet products from here on: each ``Jet * Jet``, each term of
    each row of a ``jets.dot_rows`` (so of a ``jets.dot``) or of a packed
    ``jets.contract``, and each entry of a ``jets.mul_entries`` adds one to
    ``counter[0]`` of the returned one-item list."""
    counter = [0]
    mul, dot_rows = jets.Jet.__mul__, jets.dot_rows
    contract, mul_entries = jets.contract, jets.mul_entries

    def counting_mul(self, other):
        counter[0] += isinstance(other, jets.Jet)
        return mul(self, other)

    def counted(rows):
        for row in rows:
            counter[0] += len(row[0])
            yield row

    def counting_contract(x, xi, *args):
        counter[0] += xi.size
        return contract(x, xi, *args)

    def counting_mul_entries(space, ca, cb, *args):
        counter[0] += max(ca.shape[1], cb.shape[1])
        return mul_entries(space, ca, cb, *args)

    monkeypatch.setattr(jets.Jet, "__mul__", counting_mul)
    monkeypatch.setattr(jets, "dot_rows", lambda rows, negate=None: dot_rows(counted(rows), negate))
    monkeypatch.setattr(jets, "contract", counting_contract)
    monkeypatch.setattr(jets, "mul_entries", counting_mul_entries)
    return counter


# ---- series expansions and expression memos ----------------------------------

SERIES = ("exp", "log", "sin", "cos", "powf", "sqrt", "recip")


def count_series(monkeypatch):
    """Count series expansions from here on, as perfbench's tracer does.

    Each call of a jets series function, directly or through the expression
    language's function table, adds one to ``counter[0]`` of the returned
    one-item list; one made inside another (sqrt calls powf) does not.
    """
    counter = [0]
    depth = [0]

    def counting(fn):
        def call(*args):
            counter[0] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return call

    for name in SERIES:
        monkeypatch.setattr(jets, name, counting(getattr(jets, name)))
    for name in exprlang._FUNCS:
        monkeypatch.setitem(exprlang._FUNCS, name, getattr(jets, name))
    return counter


def evaluate_each(exprs, args):
    """Expressions, or nested lists of them, each evaluated on ``args`` with
    its own memo, so that no subexpression is shared between two of them."""
    if isinstance(exprs, (list, tuple)):
        return [evaluate_each(e, args) for e in exprs]
    return exprs(args)


def assert_same_bits(got, want):
    """Equal arrays with equal sign bits, so -0.0 differs from 0.0."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ---- reference conformal checks --------------------------------------------
# verify's conformal checks as they ran before their draws were batched: the
# control and each random factor a text of its own, with a fresh base and
# rescaled context each, one after another.


def _reference_control_and_draws(name, scn, cfg, seed, rng, pts, draws, defect):
    nb = pts.shape[1]
    err0, scale0 = defect("0")
    out = [verify.CheckResult.build(f"{name}[phi=0]", scn.name, nb, err0, scale0,
                                    cfg.tol_control, seed)]
    basis = scn.ambient_basis if scn.kind == "embedded" else scn.basis
    err, scale = 0.0, 1.0
    for _ in range(draws):
        e, s = defect(verify._random_text(basis, rng))
        err, scale = max(err, e), max(scale, s)
    out.append(verify.CheckResult.build(name, scn.name, nb * draws, err, scale,
                                        cfg.tol_point, seed))
    return out


def _reference_pair(scn, phi_text, pts, plan, base_ctx=None):
    if base_ctx is None:
        base_ctx = scn.context(pts, plan.cap, plan)
    hat_ctx = scn.rescaled(phi_text).context(pts, plan.cap, plan)
    return base_ctx, hat_ctx, verify._phi_field(scn, phi_text)


def reference_check_covariance(scn, op_name, cfg, seed, pairs=1):
    make_op, order, _ = ops.OPERATORS[op_name]
    rng = np.random.default_rng(seed)
    pts = verify._points(scn, verify._npoints(scn.dim), rng)
    plan = DegreePlan(cfg.degree)
    w_in, w_out = 0.5 * (scn.dim - order), 0.5 * (scn.dim + order)

    def defect(phi_text):
        f = verify._sfield(verify._random_text(scn.basis, rng), scn.chart)
        base_ctx, hat_ctx, phi = _reference_pair(scn, phi_text, pts, plan)
        lhs = verify._at(base_ctx, make_op(verify._exp_weight(phi, w_in) * f))
        rhs = np.exp(w_out * verify._at(base_ctx, phi)) * verify._at(hat_ctx, make_op(f))
        return verify._defect(lhs, rhs)

    return _reference_control_and_draws(f"{op_name}_covariance", scn, cfg, seed, rng, pts,
                                        pairs, defect)


def reference_check_q_law(scn, which, cfg, seed, pairs=1):
    q_name, p_name = verify._Q_LAWS[which]
    q_op, p_op, n = ops.OPERATORS[q_name][0], ops.OPERATORS[p_name][0], scn.dim
    sign = -1.0 if n == 2 else 1.0
    rng = np.random.default_rng(seed)
    pts = verify._points(scn, verify._npoints(scn.dim), rng)
    plan = DegreePlan(cfg.degree)

    def defect(phi_text):
        base_ctx, hat_ctx, phi = _reference_pair(scn, phi_text, pts, plan)
        lhs = np.exp(n * verify._at(base_ctx, phi)) * verify._at(hat_ctx, q_op())
        rhs = verify._at(base_ctx, q_op()) + sign * verify._at(base_ctx, p_op(phi))
        return verify._defect(lhs, rhs)

    return _reference_control_and_draws(f"{which}_law", scn, cfg, seed, rng, pts, pairs, defect)


def _reference_weight4_defect(scn, ctx, field):
    base = verify._at(ctx, field)

    def defect(phi_text):
        _, hat_ctx, phi = _reference_pair(scn, phi_text, ctx.points, ctx.plan, ctx)
        lhs = np.exp(4.0 * verify._at(ctx, phi)) * verify._at(hat_ctx, field)
        return verify._defect(lhs, base, np.max(np.abs(base)))

    return defect


def reference_check_c_invariance(scn, cfg, seed, phis=3):
    rng = np.random.default_rng(seed)
    pts = verify._points(scn, verify._npoints(4), rng)
    ctx = scn.context(pts, degree_cap=cfg.degree)
    defect = _reference_weight4_defect(scn, ctx, ops.c_invariant())
    return _reference_control_and_draws("c_invariance", scn, cfg, seed, rng, pts, phis, defect)


def reference_check_ads_decomposition(scn, cfg, seed):
    parts = ops.ads_parts()
    total = ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()
    invariance = []

    def rows(ctx, rng):
        defect = _reference_weight4_defect(scn, ctx, parts[1])
        whole = verify._at(ctx, total)
        res = whole - sum(verify._at(ctx, p) for p in parts)
        invariance.extend(_reference_control_and_draws("ads_invariant", scn, cfg, seed, rng,
                                                       ctx.points, 3, defect))
        return [("ads_identity", res, np.max(np.abs(whole)), 1e-10)]

    return verify._pointwise_checks(scn, cfg, seed, rows) + invariance
