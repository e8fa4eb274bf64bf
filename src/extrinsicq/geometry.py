"""Charts, metrics, and cached evaluation contexts for tensor calculus.

The central object is a context: it pins a geometry to a batch of chart
points and hands out jets of everything derived from it (metric, inverse,
Christoffel symbols, and through the builders in curvature.py the curvature
tensors), each computed once per degree and memoized.  Degree bookkeeping is
demand driven: every quantity requests exactly the jet depth it consumes,
and the context refuses to exceed its configured cap rather than silently
return shallow data.  A deeper cached copy serves shallower requests by
truncation, which is exact.  The contexts of one job (one verify check, one
``integrate`` call) share a ``DegreePlan``, the deepest degree requested so
far per cache key, so a later context builds each quantity once, at the
depth its siblings needed, instead of a shallow copy first and a deep one
later.

Scalar and tensor fields are closures fn(ctx, degree) wrapped in Field so
results can be cached per context; the calculus combinators (differential,
divergence, laplacian, hessian, traces and inner products) assemble fields
into new fields without fixing a degree prematurely.  Tensors are always
fully covariant; indices are raised explicitly with the inverse metric where
needed, and a context raises a 2-tensor once however many inner products
read it (``GeometryContext.raised``).

Tensors are ``jets.Packed``: one (ncoeffs, components, batch) coefficient
array each, with only the components the builder computes (the full n x n
inverse that Gauss-Jordan produces, the Christoffel symbols for i <= j, a
symmetric result for i <= j), placed by a layout cached per dimension
(``jets.dense_layout``, ``christoffel_layout``, ``symmetric_layout``).  The
metric alone stays nested lists of jets as its expressions give them;
``as_packed`` packs it, or any nested tensor a field returns.  Every
contraction is one ``jets.contract`` whose tables are cached per spec and
layouts: ``contraction`` writes them as einsum does ("ik,kj->ij"), and
``covariant`` gives every Christoffel term a minus sign there, so no
negated symbol is made.  Sums, differences and scalings of tensor fields
are array operations (``jets.mapped``) and a scalar field times a tensor
one product per entry (``jets.times``), bit for bit the jet operations
entry by entry.  Indexing a packed tensor, t[i][j], gives jet views into its
array, made when first read, so ``operators``, ``cli`` and ``verify`` read
it as nested jets.  Every module takes first-kind Christoffel symbols from
``christoffel_first`` (sums of the metric's partials, ``jets.partial_sums``)
and covariant derivatives from ``covariant``; ``gamma`` raises the symbols
``curvature.riemann`` made where it can.  ``jet_values`` and ``jet_coeffs``
turn a tensor into one numpy array, batch axis last.
"""

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .exprlang import ExprError, parse_expression, shared_memo
from .jets import DegreeExhaustedError, JetError, SingularFieldError

# relative pivot floor for the positive-definiteness check; absolute pivots
# on polar charts legitimately reach the 1e-30 range near poles
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class Axis:
    """One chart coordinate with its domain; periodic axes wrap at hi."""

    name: str
    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self):
        if not self.hi > self.lo:
            raise JetError(f"axis '{self.name}' has empty range [{self.lo}, {self.hi}]")


class Chart:
    """An ordered tuple of named axes.  Dimension 2 through 6.

    Dimension 6 exists so that 5-dimensional hypersurfaces still get an
    ambient chart; intrinsic work tops out at dimension 5.
    """

    __slots__ = ("axes", "names")

    def __init__(self, axes):
        axes = tuple(axes)
        if not 2 <= len(axes) <= 6:
            raise JetError(f"charts support dimension 2..6, got {len(axes)}")
        names = tuple(a.name for a in axes)
        if len(set(names)) != len(names):
            raise JetError(f"duplicate axis names in {names}")
        self.axes = axes
        self.names = names

    @property
    def dim(self):
        return len(self.axes)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


_COMP_KEY = re.compile(r"^g([1-9])([1-9])$")


class Metric:
    """A symmetric matrix of expression strings over a chart.

    Components are parsed once at construction; evaluation happens through
    contexts.  ``texts`` is the full dim x dim matrix of strings, and
    ``columns`` names arrays they may use (``exprlang.parse_expression``).
    """

    __slots__ = ("chart", "texts", "exprs", "_memo")

    def __init__(self, chart, texts, columns=None):
        n = chart.dim
        texts = tuple(tuple(row) for row in texts)
        if len(texts) != n or any(len(row) != n for row in texts):
            raise JetError(f"metric needs a {n}x{n} component matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if texts[i][j] != texts[j][i]:
                    raise JetError(
                        f"metric components g{i+1}{j+1} and g{j+1}{i+1} disagree: "
                        f"{texts[i][j]!r} vs {texts[j][i]!r}"
                    )

        def parse(i, j):
            try:
                return parse_expression(texts[i][j], chart.names, columns)
            except ExprError as err:
                err.args = (f"metric component g{i+1}{j+1}: {err.args[0]}",)
                raise

        self.chart = chart
        self.texts = texts
        self.exprs = tuple(tuple(row) for row in symmetric(n, parse))
        self._memo = shared_memo(self.exprs[i][j] for i in range(n) for j in range(i, n))

    def evaluate(self, args):
        """The component matrix at ``args``, one jet per chart variable.

        Components share one memo, so a subexpression common to several of
        them, such as the factor of a conformal rescaling, is evaluated once.
        """
        memo = dict(self._memo)
        return symmetric(self.chart.dim, lambda i, j: self.exprs[i][j](args, memo))

    @classmethod
    def from_dict(cls, chart, mapping):
        """Build from {"g11": text, "g12": text, ...}; omitted off-diagonal
        components are zero, omitted diagonal ones are an error."""
        n = chart.dim
        texts = [["0"] * n for _ in range(n)]
        seen = {}
        for key, val in mapping.items():
            m = _COMP_KEY.match(str(key))
            if not m:
                raise JetError(f"bad metric component key {key!r}, expected like 'g12'")
            i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
            if i >= n or j >= n:
                raise JetError(f"component {key!r} out of range for dimension {n}")
            lo, hi = min(i, j), max(i, j)
            if (lo, hi) in seen and seen[lo, hi] != val:
                raise JetError(
                    f"components g{lo+1}{hi+1} and g{hi+1}{lo+1} were both given "
                    "and disagree"
                )
            seen[lo, hi] = val
            texts[i][j] = texts[j][i] = str(val)
        missing = [f"g{i+1}{i+1}" for i in range(n) if (i, i) not in seen]
        if missing:
            raise JetError(f"metric is missing diagonal components: {', '.join(missing)}")
        return cls(chart, texts)

    def __repr__(self):
        return f"Metric(dim={self.chart.dim})"


def conformal_rescale(metric, phi_text, columns=None):
    """The metric exp(2 phi) g, assembled at the expression level; ``phi_text``
    may use the arrays ``columns`` names."""
    parse_expression(phi_text, metric.chart.names, columns)  # surface bad text here, with position
    factor = f"exp(2*({phi_text}))"
    texts = [[f"{factor}*({t})" for t in row] for row in metric.texts]
    return Metric(metric.chart, texts, columns)


def _leaves(tensor):
    """(shape, jets) of a nested jet tensor, its entries row by row."""
    shape, leaves = [], [tensor]
    while isinstance(leaves[0], (list, tuple)):
        shape.append(len(leaves[0]))
        leaves = [x for row in leaves for x in row]
    return shape, leaves


def jet_coeffs(tensor, nbatch, ncoeffs):
    """The first ``ncoeffs`` Taylor coefficients of a jet tensor, nested or
    packed, as one array.

    A rank-r tensor (a bare jet when r = 0) gives shape
    (ncoeffs, n_1, ..., n_r, nbatch); unbatched leaves are broadcast over the
    batch.  In the graded layout coefficient 0 is the value and coefficient
    1 + e the first partial along variable e.
    """
    shape, leaves = _leaves(tensor)
    cols = [
        np.broadcast_to(j.coeffs[:ncoeffs].reshape(ncoeffs, -1), (ncoeffs, nbatch))
        for j in leaves
    ]
    return np.stack(cols, axis=1).reshape(ncoeffs, *shape, nbatch)


def as_packed(tensor):
    """A tensor of rank 1 or more as a ``jets.Packed`` one: itself, or nested
    lists of jets packed at their lowest degree, each entry a component
    (``jets.dense_layout``)."""
    if isinstance(tensor, jets.Packed):
        return tensor
    shape, leaves = _leaves(tensor)
    space = min((j.space for j in leaves), key=lambda sp: sp.degree)
    return jets.pack(space, leaves, jets.dense_layout(tuple(shape)))


def jet_values(tensor, nbatch):
    """Values of a nested jet tensor as one array of shape (n_1, ..., n_r, nbatch)."""
    return jet_coeffs(tensor, nbatch, 1)[0]


def upper(n):
    """The index pairs (i, j), i <= j, of an n x n matrix, row by row."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@functools.lru_cache(maxsize=None)
def symmetric_layout(n):
    """The ``jets.Packed`` layout of a symmetric n x n tensor: components
    ``upper(n)``, each at [i][j] and [j][i]."""
    pos = np.empty((n, n), dtype=np.intp)
    for c, (i, j) in enumerate(upper(n)):
        pos[i, j] = pos[j, i] = c
    return jets.Layout(pos)


@functools.lru_cache(maxsize=None)
def christoffel_layout(n):
    """The ``jets.Packed`` layout of Christoffel symbols [k][i][j], symmetric
    in i and j: component k * n(n+1)/2 + c for the c-th pair of ``upper(n)``."""
    pos = symmetric_layout(n).pos
    return jets.Layout(np.arange(n)[:, None, None] * (n * (n + 1) // 2) + pos)


def pack_symmetric(entries):
    """A symmetric n x n nested jet tensor as one ``jets.Packed`` tensor at
    its lowest degree; a packed one as it is."""
    if isinstance(entries, jets.Packed):
        return entries
    n = len(entries)
    flat = [entries[i][j] for i, j in upper(n)]
    space = min((j.space for j in flat), key=lambda sp: sp.degree)
    return jets.pack(space, flat, symmetric_layout(n))


def symmetric(n, entry):
    """The n x n nested list with ``entry(i, j)`` at [i][j] and [j][i] for
    i <= j, called row by row."""
    out = [[None] * n for _ in range(n)]
    for i, j in upper(n):
        out[i][j] = out[j][i] = entry(i, j)
    return out


@functools.lru_cache(maxsize=None)
def _tables(spec, symmetric, xl, yl):
    """The ``jets.contract`` tables (xi, yi, negate or None) of the
    contraction ``spec`` of tensors laid out by xl and yl, and the layout of
    its result (None for rank 0): see ``contraction``."""
    ins, out = spec.split("->")
    xs, ys = ins.split(",")
    dims = dict(zip(xs, xl.pos.shape)) | dict(zip(ys, yl.pos.shape))
    summed = [c for c in dict.fromkeys(xs + ys) if c not in out]
    xi, yi, neg = [], [], []
    for r in itertools.product(*(range(dims[c]) for c in out)):
        if symmetric and list(r) != sorted(r):
            continue
        at, terms = dict(zip(out, r)), []
        for t in itertools.product(*(range(dims[c]) for c in summed)):
            at.update(zip(summed, t))
            ix, iy = tuple(at[c] for c in xs), tuple(at[c] for c in ys)
            if xl.pos[ix] >= 0 and yl.pos[iy] >= 0:
                terms.append((xl.pos[ix], yl.pos[iy], (xl.sign[ix] < 0) != (yl.sign[iy] < 0)))
        xi.append([t[0] for t in terms])
        yi.append([t[1] for t in terms])
        neg.append([t[2] for t in terms])
    shape = tuple(dims[c] for c in out)
    layout = symmetric_layout(shape[0]) if symmetric else jets.dense_layout(shape) if out else None
    neg = np.array(neg, dtype=bool)
    return np.array(xi, np.intp), np.array(yi, np.intp), (neg if neg.any() else None), layout


def contraction(spec, x, y, symmetric=False):
    """The contraction ``spec`` of the tensors x and y (packed with
    ``as_packed``) by one ``jets.contract``, written as for einsum:
    "ab,ia->ib" is the rows (i, b), i outermost, each the sum over a of
    X_ab t_ia.  The summed indices run in the order they first appear, the
    last fastest; a term's sign is the product of its entries' signs, and a
    term with an entry of no component (a zero of the layout) is left out.
    With ``symmetric`` only the rows i <= j of a symmetric 2-tensor are
    summed (``symmetric_layout``).  A result of rank 0 is a jet; others are
    laid out entry by entry.  The tables are made once per spec and
    layouts."""
    x, y = as_packed(x), as_packed(y)
    xi, yi, negate, layout = _tables(spec, symmetric, x.layout, y.layout)
    out = jets.contract(x, xi, y, yi, None, negate)
    return out.views[0] if layout is None else out.laid_out(layout)


@functools.lru_cache(maxsize=None)
def _christoffel_table(n):
    """The variables and metric components (pairs of ``upper(n)``) of the
    partials d_i g_lj, d_j g_li and d_l g_ij of each symbol (l, i <= j)."""
    pos = symmetric_layout(n).pos
    rows = [((i, j, l), (pos[l, j], pos[l, i], pos[i, j])) for l in range(n) for i, j in upper(n)]
    return tuple(np.array(c) for c in zip(*rows))


def christoffel_first(g1):
    """Christoffel symbols of the first kind, one degree below the metric
    ``g1``, packed: G[l][i][j] = Gamma_{l,ij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    for i <= j, from the metric's components i <= j (``jets.partial_sums``)."""
    var, comp = _christoffel_table(len(g1))
    G = jets.partial_sums(pack_symmetric(g1), var, comp, (False, False, True), 0.5)
    return G.laid_out(christoffel_layout(len(g1)))


@functools.lru_cache(maxsize=None)
def _covariant_table(gl, tl, cidx, layout):
    """(wanted, xi, yi, layout) of ``covariant`` over symbols laid out by gl
    and a tensor by tl: the rows taken in ascending order of c, so that the
    partials d_c T_idx (``wanted[c]``, ``jets.Packed.partials``) come in row
    order, and ``layout`` over the rows of cidx moved to that order."""
    order = sorted(range(len(cidx)), key=lambda r: cidx[r][0])
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    wanted = [[] for _ in range(gl.pos.shape[0])]
    xi, yi = [], []
    for c, idx in (cidx[r] for r in order):
        wanted[c].append(tl.pos[idx])
        slots = [(e, s) for e in range(gl.pos.shape[0]) for s in range(len(idx))]
        xi.append([gl.pos[e, c, idx[s]] for e, s in slots])
        yi.append([tl.pos[idx[:s] + (e,) + idx[s + 1 :]] for e, s in slots])
    return wanted, np.array(xi), np.array(yi), jets.Layout(rank[layout.pos], layout.sign)


def covariant(T, ga, cidx, layout=None):
    """Components of a covariant derivative of a covariant tensor T,
    (nabla_c T)_idx = d_c T_idx - sum_e sum_s Gamma^e_{c idx_s} T_(idx, e in slot s),
    one for each (c, idx) of ``cidx``, from one ``jets.contract``, laid out
    by ``layout`` over the rows (one entry per row by default): in each row
    e outermost, the slots of ``idx`` in order, every term with a minus
    sign.  T is one degree deeper than the symbols ``ga``; the partials
    d_c T_idx start the rows."""
    T, cidx = as_packed(T), tuple(cidx)
    if T.layout.zero or T.layout.negated:  # each entry a component of its own
        T = jets.expanded(T)
    wanted, xi, yi, layout = _covariant_table(ga.layout, T.layout, cidx,
                                              layout or jets.dense_layout((len(cidx),)))
    out = jets.contract(ga, xi, T, yi, T.partials(wanted), np.ones(xi.shape, bool))
    return out.laid_out(layout)


def _truncate_any(obj, d):
    if isinstance(obj, (jets.Jet, jets.Packed)):
        return obj.truncate(d)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_truncate_any(x, d) for x in obj)
    return obj


class DegreePlan(dict):
    """{cache key: deepest degree requested so far}, shared by the contexts
    of one job that have the same degree cap.

    The contexts of one job, such as one verify check or one ``integrate``
    call, ask for nearly the same quantities at the same degrees, so the
    requests of the first plan the builds of the others.  A degree is
    recorded once a build at it succeeds, and never above the cap.
    ``ambient`` is the plan of the ambient contexts of embedded surface
    contexts on this plan, as those use the same keys for other quantities.
    """

    def __init__(self, cap):
        super().__init__()
        self.cap = cap
        self._ambient = None

    @property
    def ambient(self):
        if self._ambient is None:
            self._ambient = DegreePlan(self.cap)
        return self._ambient


class GeometryContext:
    """Points plus a per-(quantity, degree) cache.  Subclasses supply g().

    ``plan`` is a DegreePlan shared with sibling contexts of the same cap; a
    context given none keeps its own.
    """

    def __init__(self, chart, points, degree_cap=6, plan=None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] != chart.dim:
            raise JetError(
                f"points must have shape ({chart.dim}, batch), got {pts.shape}"
            )
        if not 0 <= degree_cap <= jets.MAX_DEGREE:
            raise JetError(f"degree cap must be in 0..{jets.MAX_DEGREE}, got {degree_cap}")
        if plan is None:
            plan = DegreePlan(degree_cap)
        elif plan.cap != degree_cap:
            raise JetError(
                f"a degree plan for cap {plan.cap} cannot serve a context capped at {degree_cap}"
            )
        self.chart = chart
        self.points = pts
        self.degree_cap = degree_cap
        self.plan = plan
        self._cache = {}
        self._raised = {}

    @property
    def dim(self):
        return self.chart.dim

    @property
    def nbatch(self):
        return self.points.shape[1]

    def describe_point(self, b):
        vals = ", ".join(f"{v:.6g}" for v in self.points[:, b])
        return f"({vals})"

    def get(self, key, d, build):
        """Memoized lookup of ``key`` at degree d.

        A deeper cached copy serves shallower requests by truncation, which
        is exact.  On a miss the quantity is built at the deepest degree the
        plan has seen requested for it, if that is deeper than d, and that
        copy is cached too; so a context that shares a plan builds each key
        once, at the depth its siblings needed.
        """
        hit = self._cache.get((key, d))
        if hit is not None:
            return hit
        for dd in range(d + 1, self.degree_cap + 1):
            deep = self._cache.get((key, dd))
            if deep is not None:
                out = _truncate_any(deep, d)
                self._cache[(key, d)] = out
                return out
        planned = self.plan.get(key, d)
        if planned > d:
            deep = self._cache[(key, planned)] = build(planned)
            out = self._cache[(key, d)] = _truncate_any(deep, d)
            return out
        out = self._cache[(key, d)] = build(d)
        if d <= self.degree_cap:
            self.plan[key] = d
        return out

    def raised(self, T, d):
        """g^-1 T of a 2-tensor field T at degree d, made once per context
        and tensor however many fields contract it.  The key is the tensor
        T returns, a cached result that every field reading the same
        quantity shares; it is held with its raised form, so that its id
        stays its own."""
        gi, X = self.ginv(d), T(self, d)
        hit = self._raised.get((id(X), d))
        if hit is None or hit[0] is not X:
            hit = self._raised[id(X), d] = (X, matrix_product(gi, X))
        return hit[1]

    def coords(self, d):
        if d > self.degree_cap:
            raise DegreeExhaustedError(
                f"jets of degree {d} requested but this context caps at "
                f"{self.degree_cap}; raise the degree setting or lower the "
                "operator order"
            )

        def build(dd):
            sp = jets.jet_space(self.dim, dd)
            if dd == 0:
                return [jets.constant(sp, self.points[i]) for i in range(self.dim)]
            return [jets.seed_variable(sp, i, self.points[i]) for i in range(self.dim)]

        return self.get("coords", d, build)

    def g(self, d):
        raise NotImplementedError

    def ginv(self, d):
        # the key keeps its name: perfbench's tracer maps it to a layer
        return self.get("invdet", d, lambda dd: _invert_spd(self.g(dd), self, dd))

    def gamma(self, d, first=None):
        """Christoffel symbols of the second kind, gamma[k][i][j] = g^kl Gamma_{l,ij},
        raised from ``first`` (``curvature.riemann``'s) where deep enough, else its own."""

        def build(dd):
            deep = first is not None and first.space.degree >= dd
            G = first.truncate(dd) if deep else christoffel_first(self.g(dd + 1))
            xi, yi = _gamma_table(self.dim)
            out = jets.contract(self.ginv(dd), xi, G, yi)
            return out.laid_out(christoffel_layout(self.dim))

        return self.get("gamma", d, build)


@functools.lru_cache(maxsize=None)
def _gamma_table(n):
    """Rows (k, i <= j) of gamma = g^kl Gamma_{l,ij}: the g^kl and the
    Gamma_{l,ij} of l = 0 .. n-1."""
    P = n * (n + 1) // 2
    rows = [(k, c) for k in range(n) for c in range(P)]
    xi = np.array([[k * n + l for l in range(n)] for k, c in rows])
    yi = np.array([[l * P + c for l in range(n)] for k, c in rows])
    return xi, yi


class MetricContext(GeometryContext):
    """Evaluation context for an explicitly given metric."""

    def __init__(self, metric, points, degree_cap=6, plan=None):
        super().__init__(metric.chart, points, degree_cap, plan)
        self.metric = metric

    def g(self, d):
        return self.get("g", d, lambda dd: self.metric.evaluate(self.coords(dd)))


def _invert_spd(gmat, ctx, d):
    """Gauss-Jordan over the jet ring; returns the inverse, a packed n x n
    matrix (``jets.dense_layout``), of the symmetric matrix ``gmat`` at
    degree d.

    No pivoting: for a positive-definite matrix every pivot is a ratio of
    leading principal minors, so positivity of the pivots IS the positivity
    check.  The threshold is relative to the matrix's own diagonal because
    polar-chart metrics are legitimately tiny near coordinate poles.  A
    component beyond the float range is refused first, as it would read as a
    non-positive pivot.

    The augmented matrix [g | 1] is one coefficient array.  Each step scales
    the pivot row as row * ip and eliminates row i as row_i - f * row, f its
    entry in the pivot column, skipping an f that is zero at every
    coefficient; every entry's product is the jet product it would be
    alone (``jets.mul_entries``), and the difference a subtraction, but
    from 128 points on some products of zeros are left out (``_eliminate``).
    """
    g = pack_symmetric(gmat)
    n = len(g)
    for x in g.views:
        finite = np.atleast_1d(np.isfinite(x.coeffs).all(axis=0))
        if not finite.all():
            raise SingularFieldError(
                f"metric components at {ctx.describe_point(int(np.argmin(finite)))} "
                "exceed the float range"
            )
    sp = jets.jet_space(ctx.dim, d)
    nc, B = sp.ncoeffs, g.coeffs.shape[2]
    pos = symmetric_layout(n).pos
    a = np.zeros((n, 2 * n, nc, B)).transpose(2, 0, 1, 3)  # each entry contiguous
    for i, j in itertools.product(range(n), repeat=2):
        a[:, i, j] = g.views[pos[i, j]].coeffs[:nc].reshape(nc, -1)
    a[0, range(n), range(n, 2 * n)] = 1.0
    uniform = np.ones((n, 2 * n), bool)  # the entries that are constants
    uniform[:, :n] = g.narrow()[pos]
    diag = np.abs(a[0, range(n), range(n)])
    for k in range(n):
        pv, base = a[0, k, k], diag[k]
        bad = (pv <= 0.0) | (pv <= _PIVOT_RTOL * base)
        if np.any(bad):
            b = int(np.argmax(bad))
            raise SingularFieldError(
                f"metric is not positive definite at {ctx.describe_point(b)}: "
                f"pivot {k + 1} is {pv[b]:.4e} against diagonal {base[b]:.4e}"
            )
        narrow = g.batch is None or uniform[k, k]
        ip = jets.recip(jets.Jet(sp, a[:, k, k, 0] if narrow else a[:, k, k]))
        uniform[k] &= narrow
        a[:, k] = jets.mul_entries(sp, a[:, k], ip.coeffs.reshape(nc, 1, -1), uniform[k])
        zero = ~a[:, k].any(axis=(0, 2)) if jets.layered(B) else None
        for i in range(n):
            if i == k:
                continue
            f = a[:, i, k : k + 1]
            if not np.any(f):
                continue  # structural zero, common for diagonal metrics
            both = uniform[i, k] & uniform[k]
            _eliminate(sp, a, i, k, both, zero)
            uniform[i] &= both
    inv = jets.empty(nc, n * n, B)
    for i in range(n):
        inv[:, i * n : (i + 1) * n] = a[:, i, n:]
    return jets.Packed(sp, inv, g.batch, jets.dense_layout((n, n)), uniform[:, n:].ravel())


def _eliminate(sp, a, i, k, both, zero):
    """Row i of the augmented matrix ``a`` less f (its entry k) times pivot
    row k, in place, each product by ``jets.mul_entries``.  That of a finite
    f and an entry marked in ``zero`` (None: none), ±0 at every coefficient
    and point, is ±0, and x - (±0) = x but for x = -0: it is left out where
    x holds no -0."""
    f = a[:, i, k : k + 1]
    if zero is None or not (zero.any() and np.isfinite(f).all()):
        a[:, i] -= jets.mul_entries(sp, f, a[:, k], both)
        return
    f = f.copy()  # entry k changes on the way
    for j in range(a.shape[2]):  # each entry a view, as a gather would copy the row
        if not zero[j] or (a[:, i, j].view(np.int64) == jets._NEG_ZERO_BITS).any():
            a[:, i, j] -= jets.mul_entries(sp, f, a[:, k, j : j + 1], both[j : j + 1])[:, 0]


# ---- fields ----------------------------------------------------------------

_field_uids = itertools.count()


class Field:
    """A rank-r tensor field as a closure fn(ctx, degree) -> a tensor of jets.

    Rank 0 returns a bare jet, higher ranks a ``jets.Packed`` tensor (or
    nested lists of jets, which the combinators pack).  Results are cached on
    the context under the field's identity, so shared subexpressions
    evaluate once per degree.
    """

    __slots__ = ("rank", "fn", "_uid")

    def __init__(self, rank, fn):
        self.rank = rank
        self.fn = fn
        self._uid = next(_field_uids)

    def __call__(self, ctx, d):
        return ctx.get(("field", self._uid), d, lambda dd: self.fn(ctx, dd))

    def _zip(self, other, op):
        if not isinstance(other, Field):
            raise JetError(f"cannot combine a field with {type(other).__name__}")
        if other.rank != self.rank:
            raise JetError(f"rank mismatch: {self.rank} vs {other.rank}")
        return Field(
            self.rank, lambda ctx, d: entrywise(op, self.rank, self(ctx, d), other(ctx, d))
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return Field(self.rank, lambda ctx, d: entrywise(lambda a: -a, self.rank, self(ctx, d)))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Field(
                self.rank,
                lambda ctx, d: entrywise(lambda a: a * other, self.rank, self(ctx, d)),
            )
        if isinstance(other, Field):
            if self.rank == 0 and other.rank == 0:
                return Field(0, lambda ctx, d: self(ctx, d) * other(ctx, d))
            if self.rank == 0:
                return Field(other.rank,
                             lambda ctx, d: jets.times(self(ctx, d), as_packed(other(ctx, d))))
            if other.rank == 0:
                return other.__mul__(self)
            raise JetError("tensor-tensor products need explicit index contractions")
        raise JetError(f"cannot multiply a field by {type(other).__name__}")

    __rmul__ = __mul__


def entrywise(fn, rank, *tensors):
    """fn of the entries of tensors of one rank: of the jets themselves at
    rank 0, else of the coefficient arrays of their packed forms
    (``jets.mapped``), which gives the same bits for sums, differences and
    scalings."""
    if rank == 0:
        return fn(*tensors)
    return jets.mapped(fn, *map(as_packed, tensors))


def expression_field(expr):
    """Scalar field evaluating a parsed chart expression."""
    return Field(0, lambda ctx, d: expr(ctx.coords(d)))


def constant_field(value):
    return Field(0, lambda ctx, d: jets.constant(jets.jet_space(ctx.dim, d), value))


def metric_field():
    return Field(2, lambda ctx, d: pack_symmetric(ctx.g(d)))


def matrix_product(A, B):
    """The matrix product A B of two 2-tensors, every entry its own row."""
    return contraction("ik,kj->ij", A, B)


# ---- calculus combinators --------------------------------------------------


def differential(f):
    """Exterior derivative of a scalar field, as a covector field."""

    def fn(ctx, d):
        j = f(ctx, d + 1)
        dj = jets.pack(j.space, [j]).partials([[0]] * ctx.dim)
        return dj.laid_out(jets.dense_layout((ctx.dim,)))

    return Field(1, fn)


def divergence(w):
    """Metric trace of the covariant derivative of a covector field.

    No sign is applied here: with this convention the Laplacian
    divergence(differential(f)) is non-positive definite, and integration by
    parts reads integral (df, w) = -integral f divergence(w).
    """

    def fn(ctx, d):
        n = ctx.dim
        om, gi = w(ctx, d + 1), ctx.ginv(d)
        nabla = covariant(om, ctx.gamma(d), [(i, (j,)) for i in range(n) for j in range(n)],
                          jets.dense_layout((n, n)))
        return contraction("ij,ij->", gi, nabla)

    return Field(0, fn)


def laplacian(f):
    return divergence(differential(f))


def hessian(f):
    """Covariant Hessian of a scalar field (symmetric rank 2)."""

    def fn(ctx, d):
        n = ctx.dim
        j = f(ctx, d + 2)
        dj = jets.pack(j.space, [j]).partials([[0]] * n).laid_out(jets.dense_layout((n,)))
        return covariant(dj, ctx.gamma(d), [(k, (i,)) for i, k in upper(n)], symmetric_layout(n))

    return Field(2, fn)


def divergence2(T):
    """Divergence of a symmetric 2-tensor field: (div T)_j = g^{ik} nabla_i T_kj."""

    def fn(ctx, d):
        n = ctx.dim
        t, gi = T(ctx, d + 1), ctx.ginv(d)
        rows = [(i, (k, j)) for j in range(n) for i in range(n) for k in range(n)]
        return contraction("ik,jik->j", gi, covariant(t, ctx.gamma(d), rows,
                                                     jets.dense_layout((n, n, n))))

    return Field(1, fn)


def divdiv(T):
    return divergence(divergence2(T))


def apply2(T, w):
    """Action of a covariant 2-tensor on a covector: (T w)_i = T_ij g^jk w_k."""

    def fn(ctx, d):
        return contraction("ik,k->i", T(ctx, d), contraction("kj,j->k", ctx.ginv(d), w(ctx, d)))

    return Field(1, fn)


def inner22(S, T):
    """Full contraction g^{ik} g^{jl} S_ij T_kl, i.e. trace(g^-1 S g^-1 T)."""

    def fn(ctx, d):
        return contraction("ij,ji->", ctx.raised(S, d), ctx.raised(T, d))

    return Field(0, fn)


def norm2sq(T):
    return inner22(T, T)


def square2(T):
    """(T g^-1 T)_ij, the metric square of a symmetric 2-tensor."""

    def fn(ctx, d):
        t = T(ctx, d)
        return matrix_product(matrix_product(t, ctx.ginv(d)), t)

    return Field(2, fn)


def trace_cube(T):
    """trace((g^-1 T)^3), from the diagonal of (g^-1 T)^2 (g^-1 T)."""

    def fn(ctx, d):
        up = ctx.raised(T, d)
        diagonal = contraction("ik,ki->i", matrix_product(up, up), up).views
        return sum(diagonal[1:], diagonal[0])

    return Field(0, fn)
