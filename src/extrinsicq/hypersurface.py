"""Embedded hypersurfaces: induced metric, second fundamental form, and the
ambient curvature data that extrinsic operators consume.

An Embedding is a chart-to-ambient map given componentwise as expressions,
together with an ambient metric and an orientation sign.  Evaluation happens
in an EmbeddedSurfaceContext, which is a full GeometryContext for the
induced metric (so all intrinsic machinery applies unchanged) and also owns
an ambient MetricContext whose jets are seeded along the image of the
embedding.  Ambient quantities come across in two steps: curvature is
computed as jets in the ambient variables, then composed with the embedding
component jets to become jets in the surface variables, each packed tensor
in its own layout (``jets.compose`` reads its coefficient array as it is).
The normal is contracted first: L comes from the Gauss formula
-gbar(nu, nabla_i t_j), and nabla0_weyl_normal applies nu to each ambient
tensor before the tangents.

Every builder returns a ``jets.Packed`` tensor (a jet for the scalars H and
rhobar(nu, nu)), and every contraction is one ``geometry.contraction``: the
tangents are the embedding's first partials (``jets.Packed.partials``), and
a symmetric result is summed for i <= j only.

The unit normal is built from the generalized cross product of the tangent
frame (cofactor covector, raised with the ambient metric and normalized);
its overall sign is the embedding's sigma.  With sigma = +1 a graph's last
ambient component points upward and the standard spherical parametrization
points outward, so round spheres get H = +1/r.
"""

import functools
import itertools

import numpy as np

from . import curvature, jets
from .exprlang import ExprError, parse_expression, shared_memo
from .geometry import (
    Field,
    GeometryContext,
    MetricContext,
    _invert_spd,
    christoffel_layout,
    contraction,
    covariant,
    jet_values,
    pack_symmetric,
    upper,
)
from .jets import DegreeExhaustedError, JetError


class Embedding:
    """A hypersurface chart, its ambient metric, the map, and an orientation."""

    __slots__ = ("chart", "ambient_metric", "iota_texts", "iota_exprs", "sigma", "_memo")

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
        self._memo = shared_memo(self.iota_exprs)

    def evaluate(self, args):
        """The embedding's components at ``args``, one jet per surface variable,
        each shared subexpression evaluated once."""
        memo = dict(self._memo)
        return [e(args, memo) for e in self.iota_exprs]

    def __repr__(self):
        return f"Embedding(dim {self.chart.dim} -> {self.ambient_metric.chart.dim})"


class EmbeddedSurfaceContext(GeometryContext):
    """GeometryContext of the induced metric, plus the ambient context.

    Intrinsic quantities (curvature of the induced metric, intrinsic
    operators) see this as an ordinary geometry context; the functions below
    add the extrinsic ones, cached here alongside everything else.
    """

    def __init__(self, embedding, points, degree_cap=6, plan=None):
        super().__init__(embedding.chart, points, degree_cap, plan)
        self.embedding = embedding
        sp0 = jets.jet_space(self.dim, 0)
        args0 = [jets.constant(sp0, self.points[i]) for i in range(self.dim)]
        B = self.nbatch
        rows = []
        for e in embedding.iota_exprs:
            v = np.atleast_1d(np.asarray(e(args0).value, dtype=np.float64))
            rows.append(np.broadcast_to(v, (B,)))
        self.ambient = MetricContext(
            embedding.ambient_metric, np.array(rows), degree_cap, self.plan.ambient
        )

    def g(self, d):
        return self.get("g", d, lambda dd: _induced_metric(self, dd))


def iota_jets(sctx, d):
    """Embedding components as surface jets."""
    return sctx.get("iota", d, lambda dd: sctx.embedding.evaluate(sctx.coords(dd)))


def tangents(sctx, d):
    """t[i][a] = d iota^a / dx^i."""

    def build(dd):
        io = iota_jets(sctx, dd + 1)
        space = min((j.space for j in io), key=lambda sp: sp.degree)
        t = jets.pack(space, io).partials([range(len(io))] * sctx.dim)
        return t.laid_out(jets.dense_layout((sctx.dim, len(io))))

    return sctx.get("tangents", d, build)


def ambient_metric_on_surface(sctx, d):
    """The ambient metric components evaluated along the embedding, packed."""
    m = sctx.embedding.ambient_metric
    return sctx.get("gbar", d, lambda dd: pack_symmetric(m.evaluate(iota_jets(sctx, dd))))


def ambient_inverse_on_surface(sctx, d):
    return sctx.get("gbar_inv", d,
                    lambda dd: _invert_spd(ambient_metric_on_surface(sctx, dd), sctx, dd))


def _induced_metric(sctx, d):
    t = tangents(sctx, d)
    return _tangential(ambient_metric_on_surface(sctx, d), t)


def _tangential(X, t):
    """The surface 2-tensor X_ab t_i^a t_j^b of a symmetric ambient 2-tensor X.

    One tangent is contracted first, Y_ib = X_ab t_i^a; the result is summed
    for i <= j only.
    """
    return contraction("ib,jb->ij", contraction("ab,ia->ib", X, t), t, symmetric=True)


@functools.lru_cache(maxsize=None)
def _minor_table(n, size):
    """The ``jets.contract`` tables of the minors of ``size`` of the last
    ``size`` rows of an n x (n + 1) matrix t (components i (n + 1) + c), one
    row per column set S in lexicographic order: t[n - size][S_j] times the
    minor of S without S_j, every second term negated.  Those minors are t's
    last row at size 2, else the rows of the call for size - 1."""
    below = {S: r for r, S in enumerate(itertools.combinations(range(n + 1), size - 1))}
    keys = list(itertools.combinations(range(n + 1), size))
    xi = [[(n - size) * (n + 1) + c for c in S] for S in keys]
    yi = [[(n - 1) * (n + 1) + S[1 - j] if size == 2 else below[S[:j] + S[j + 1 :]]
           for j in range(size)] for S in keys]
    return np.array(xi), np.array(yi), np.tile(np.arange(size) % 2 == 1, (len(keys), 1))


@functools.lru_cache(maxsize=None)
def _minor_layout(n, signed=False):
    """The maximal minors of an n x (n + 1) matrix, made in lexicographic
    order of their columns, placed by the column a each leaves out; signed,
    the cofactors: negated where n + a is odd."""
    a = np.arange(n + 1)
    return jets.Layout(n - a, np.where((n + a) % 2 * signed, -1, 1))


def _maximal_minors(t):
    """The determinants of the n x n minors of the n x (n + 1) matrix t, the
    a-th without column a.  Each is expanded along its first row, into the
    entries, every second one negated, dotted with the minors of the rows
    below; a minor of the last L rows on columns S is made once however many
    minors hold it, and all of one size by one ``jets.contract`` call."""
    n, det = len(t), t
    for size in range(2, n + 1):
        xi, yi, negate = _minor_table(n, size)
        det = jets.contract(t, xi, det, yi, None, negate)
    return det.laid_out(_minor_layout(n))


def normal(sctx, d):
    """Unit normal nu^a (ambient index up), oriented by the embedding's sigma."""

    def build(dd):
        n = sctx.dim
        cof = _maximal_minors(tangents(sctx, dd)).laid_out(_minor_layout(n, signed=True))
        raised = contraction("ab,b->a", ambient_inverse_on_surface(sctx, dd), cof)
        scale = jets.recip(jets.sqrt(contraction("b,b->", raised, cof))) * sctx.embedding.sigma
        return jets.times(scale, raised)

    return sctx.get("normal", d, build)


def pulled_christoffel(sctx, d):
    """Ambient Christoffel symbols composed with the embedding."""
    return sctx.get("gammabar", d, lambda dd: pull(sctx, sctx.ambient.gamma(dd), dd))


@functools.lru_cache(maxsize=None)
def _frame_partials(n, na):
    """(wanted, layout): the tangent components (j, a), j >= i, to
    differentiate along each i, and the layout [i][j][a] of those partials
    (no component for j < i)."""
    wanted = [[j * na + a for j in range(i, n) for a in range(na)] for i in range(n)]
    pos = np.full((n, n, na), -1)
    pos[np.triu_indices(n)] = np.arange(n * (n + 1) // 2 * na).reshape(-1, na)
    return wanted, jets.Layout(pos)


def second_fundamental(sctx, d):
    """L_ij = gbar(nabla_i nu, t_j) by the Gauss formula, as gbar(nu, t_j) = 0:
    L_ij = -nu_a (d_i t_j^a + Gammabar^a_bc t_i^b t_j^c), with nu at degree d,
    nu_a Gammabar^a_bc contracted once, and i <= j summed."""

    def build(dd):
        n, na = sctx.dim, sctx.dim + 1
        wanted, layout = _frame_partials(n, na)
        dt = tangents(sctx, dd + 1).partials(wanted).laid_out(layout)
        nu = normal(sctx, dd)
        nu_low = contraction("ab,b->a", ambient_metric_on_surface(sctx, dd), nu)
        P = contraction("a,abc->bc", nu_low, pulled_christoffel(sctx, dd), symmetric=True)
        Pt = _tangential(P, tangents(sctx, dd))
        S = contraction("a,ija->ij", nu_low, dt, symmetric=True)
        return jets.mapped(lambda s, p: -(s + p), S, Pt)

    return sctx.get("second_fundamental", d, build)


def mean_curvature(sctx, d):
    """H = (1/n) h^{ij} L_ij."""

    def build(dd):
        L = second_fundamental(sctx, dd)
        return contraction("ij,ij->", sctx.ginv(dd), L) * (1.0 / sctx.dim)

    return sctx.get("mean_curvature", d, build)


def tracefree_second_fundamental(sctx, d):
    """Lo = L - H h."""
    return sctx.get("tracefree_L", d, lambda dd: jets.mapped(
        lambda a, b: a - b, second_fundamental(sctx, dd),
        jets.times(mean_curvature(sctx, dd), sctx.g(dd))))


def pull(sctx, T, d):
    """Compose the packed ambient-variable tensor T with the embedding at
    surface degree d, in T's layout."""
    return jets.compose(T, iota_jets(sctx, d))


def pulled_schouten(sctx, d):
    """Ambient Schouten tensor along the surface, ambient indices."""
    return sctx.get("rhobar", d, lambda dd: pull(sctx, curvature.schouten(sctx.ambient, dd), dd))


def _pulled_curvature(sctx, tensor, d):
    """An ambient curvature-type 4-tensor composed with the embedding."""
    return pull(sctx, tensor(sctx.ambient, d), d)


def pulled_weyl(sctx, d):
    """Ambient Weyl tensor along the surface, ambient indices."""
    return sctx.get("weylbar", d, lambda dd: _pulled_curvature(sctx, curvature.weyl, dd))


def _normal_squared(nu):
    """The products nu^a nu^b, as [a][b]."""
    na = len(nu)
    a = np.arange(na)
    return jets.products(nu, np.repeat(a, na), nu, np.tile(a, na), jets.dense_layout((na, na)))


def rho_bar_nn(sctx, d):
    """rhobar(nu, nu)."""

    def build(dd):
        rb = pulled_schouten(sctx, dd)
        return contraction("ab,ab->", rb, _normal_squared(normal(sctx, dd)))

    return sctx.get("rhobar_nn", d, build)


def rho_bar_tangential(sctx, d):
    """The pullback iota* rhobar as a surface 2-tensor."""
    return sctx.get("rhobar_tt", d,
                    lambda dd: _tangential(pulled_schouten(sctx, dd), tangents(sctx, dd)))


def _covector(Y, sctx, d):
    """The surface covector Y_b t_i^b of an ambient covector Y."""
    return contraction("b,ib->i", Y, tangents(sctx, d))


def rho_bar_normal_tangential(sctx, d):
    """rhobar(nu, t_i) as a surface covector."""

    def build(dd):
        rb = pulled_schouten(sctx, dd)
        return _covector(contraction("a,ab->b", normal(sctx, dd), rb), sctx, dd)

    return sctx.get("rhobar_nt", d, build)


def _normal_tt(sctx, T, d):
    """The surface 2-tensor T(nu, t_i, t_j, nu) of an ambient curvature-type
    4-tensor T, whose entries for a = b or c = e have no component and are
    left out.  X_bc = T(nu, b, c, nu) is symmetric, as T_abce = T_ecba, so
    it is summed for b <= c."""
    nn = _normal_squared(normal(sctx, d))
    return _tangential(contraction("ae,abce->bc", nn, T, symmetric=True), tangents(sctx, d))


def normal_riemann(sctx, d):
    """The 2-tensor Rbar(nu, t_i, t_j, nu) of normal ambient curvature."""
    return sctx.get("normal_riemann", d, lambda dd: _normal_tt(
        sctx, _pulled_curvature(sctx, curvature.riemann, dd), dd))


def normal_weyl(sctx, d):
    """The 2-tensor Wbar(nu, t_i, t_j, nu), conformally invariant of weight 0."""
    return sctx.get("normal_weyl", d, lambda dd: _normal_tt(sctx, pulled_weyl(sctx, dd), dd))


def fialkow(sctx, d):
    """iota* rhobar - rho + H Lo + (1/2) H^2 h; needs surface dimension >= 3."""

    def build(dd):
        rt, rho = rho_bar_tangential(sctx, dd), curvature.schouten(sctx, dd)
        H = mean_curvature(sctx, dd)
        HLo = jets.times(H, tracefree_second_fundamental(sctx, dd))
        return jets.mapped(lambda a, b, c, e: a - b + c + e, rt, rho, HLo,
                           jets.times(H * H * 0.5, sctx.g(dd)))

    return sctx.get("fialkow", d, build)


def _pulled_nabla_rho(sctx, d):
    """Ambient covariant derivative of Schouten along the surface: N[c][a][b]."""

    def build(dd):
        na = sctx.dim + 1
        rows = [(c, (a, b)) for c in range(na) for a, b in upper(na)]
        N = covariant(curvature.schouten(sctx.ambient, dd + 1), sctx.ambient.gamma(dd), rows,
                      christoffel_layout(na))
        return pull(sctx, N, dd)

    return sctx.get("nabla_rhobar", d, build)


def nabla0_rho_tangential(sctx, d):
    """(nabla_nu rhobar)(t_i, t_j) as a surface 2-tensor."""

    def build(dd):
        N = _pulled_nabla_rho(sctx, dd)
        X = contraction("c,cab->ab", normal(sctx, dd), N, symmetric=True)
        return _tangential(X, tangents(sctx, dd))

    return sctx.get("nabla0_rho_tt", d, build)


def nabla0_rho_normal(sctx, d):
    """(nabla_nu rhobar)(nu, t_i) as a surface covector."""

    def build(dd):
        N = _pulled_nabla_rho(sctx, dd)
        return _covector(contraction("ca,cab->b", _normal_squared(normal(sctx, dd)), N), sctx, dd)

    return sctx.get("nabla0_rho_n", d, build)


def _einsum_blocks(B, size):
    """Slices of B points for the pointwise einsums, of at most
    ``jets._BLOCK_ELEMENTS`` elements of ``size`` per point where they can
    be, each starting at a multiple of 64 points and of two points at least
    (B > 1): an einsum runs each point at the place in its vector lanes it
    has over the whole batch, so each point gets the bits of one einsum."""
    step = max(64, jets._BLOCK_ELEMENTS // size // 64 * 64)
    edges = [*range(0, B, step), B]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def nabla0_weyl_normal(sctx, d=0):
    """(nabla_nu Wbar)(nu, t_i, t_j, nu) as a surface 2-tensor of values.

    Only needed, and only computed, at degree 0, from the constant and linear
    jet coefficients with einsums.  nu is applied first, to dW, W and
    Gammabar, so no term exceeds (n+1)^4 per point:
    d_nu W(nu, b, c, nu) - W(Gammabar(nu, nu), b, c, nu)
    - W(nu, Gammabar(nu, b), c, nu) - W(nu, b, Gammabar(nu, c), nu)
    - W(nu, b, c, Gammabar(nu, nu)), contracted with t_i^b t_j^c.  The
    entries of W come from its packed components (signs and zeros from its
    layout) a block of points at a time (``_einsum_blocks``).
    """
    if d != 0:
        raise DegreeExhaustedError(
            "the Weyl normal derivative term is evaluated pointwise (degree 0 only)"
        )

    def build(dd):
        n, na, B, amb = sctx.dim, sctx.dim + 1, sctx.nbatch, sctx.ambient
        nu, tv = jet_values(normal(sctx, 0), B), jet_values(tangents(sctx, 0), B)
        Gv = jet_values(amb.gamma(0), B)
        W = curvature.weyl(amb, 1)
        # a lone point runs doubled: an einsum of one point may round it otherwise
        pick = slice(None) if B > 1 else [0, 0]
        nu, tv, Gv, W = nu[..., pick], tv[..., pick], Gv[..., pick], W.points(pick)
        T = np.empty((n, n, max(B, 2)))
        for s in _einsum_blocks(max(B, 2), (na + 1) * na**4):
            # coefficient 1 + e of a degree-1 jet is its first partial along
            # e; contiguous, as the einsums' bits need
            W1 = jets.expanded(W.points(s)).dense()
            W1 = np.ascontiguousarray(np.broadcast_to(W1, W1.shape[:2] + (s.stop - s.start,)))
            W1 = W1.reshape(na + 1, na, na, na, na, -1)
            nuv = np.ascontiguousarray(nu[:, s])
            dW = np.einsum("eabcdZ,eZ->abcdZ", W1[1:], nuv)
            dW = np.einsum("abcZ,aZ->bcZ", np.einsum("abcdZ,dZ->abcZ", dW, nuv), nuv)
            Wn = np.einsum("abcdZ,dZ->abcZ", W1[0], nuv)
            Wnn = np.einsum("abcZ,aZ->bcZ", Wn, nuv)
            Gn = np.einsum("feaZ,eZ->faZ", np.ascontiguousarray(Gv[..., s]), nuv)
            Gnn = np.einsum("faZ,aZ->fZ", Gn, nuv)
            # the last two terms are the transposes of the first two, by the
            # symmetries W(nu, b, c, f) = W(f, c, b, nu) and Wnn_bc = Wnn_cb
            S = np.einsum("fZ,fbcZ->bcZ", Gnn, Wn) + np.einsum("fbZ,fcZ->bcZ", Gn, Wnn)
            X = dW - S - S.swapaxes(0, 1)
            t = np.ascontiguousarray(tv[..., s])
            T[..., s] = np.einsum("bcZ,ibZ,jcZ->ijZ", X, t, t)
        sp = jets.jet_space(n, 0)
        return jets.Packed(sp, T[..., :B].reshape(1, n * n, B), B, jets.dense_layout((n, n)))

    return sctx.get("nabla0_weyl", 0, build)


def ambient_expression_field(text, ambient_chart, columns=None):
    """A surface scalar field from an expression in the ambient coordinates,
    which may use the arrays ``columns`` names."""
    expr = parse_expression(text, ambient_chart.names, columns)
    return Field(0, lambda ctx, d: expr(iota_jets(ctx, d)))
