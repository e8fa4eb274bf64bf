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

The inverse metric and the Christoffel symbols of both kinds are
``jets.Packed`` tensors: one (ncoeffs, components, batch) coefficient array
each, with only the components the builder computes (the full n x n inverse
that Gauss-Jordan produces, the symbols for i <= j), built by index tables
cached per dimension (``full_layout``, ``christoffel_layout``,
``symmetric_layout``).  Indexing one, t[i][j], gives jet views into its
array, made once per tensor, so every other consumer (``hypersurface``,
``operators``, the Field combinators, ``cli`` and ``verify``) still reads
it as nested lists of jets, as it reads the metric, which stays nested.  A
nested contraction makes every entry of a tensor with one ``jets.dot_rows``
call, one row per entry (``dots``, ``symmetric_dots``); ``covariant`` gives
every Christoffel term a minus sign there, so no negated symbol is made.
Every module fills a symmetric nested tensor with ``symmetric``, takes
first-kind Christoffel symbols from ``christoffel_first`` and covariant
derivatives from ``covariant``.  ``jet_values`` and ``jet_coeffs`` turn a
tensor into one numpy array, batch axis last.
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


def jet_coeffs(tensor, nbatch, ncoeffs):
    """The first ``ncoeffs`` Taylor coefficients of a nested jet tensor as one array.

    A rank-r tensor (a bare jet when r = 0) gives shape
    (ncoeffs, n_1, ..., n_r, nbatch); unbatched leaves are broadcast over the
    batch.  In the graded layout coefficient 0 is the value and coefficient
    1 + e the first partial along variable e.
    """
    shape, leaves = [], [tensor]
    while isinstance(leaves[0], (list, tuple)):
        shape.append(len(leaves[0]))
        leaves = [x for row in leaves for x in row]
    cols = [
        np.broadcast_to(j.coeffs[:ncoeffs].reshape(ncoeffs, -1), (ncoeffs, nbatch))
        for j in leaves
    ]
    return np.stack(cols, axis=1).reshape(ncoeffs, *shape, nbatch)


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
def full_layout(n):
    """The ``jets.Packed`` layout of an n x n matrix, its entries row by row."""
    return jets.Layout(np.arange(n * n).reshape(n, n))


@functools.lru_cache(maxsize=None)
def christoffel_layout(n):
    """The ``jets.Packed`` layout of Christoffel symbols [k][i][j], symmetric
    in i and j: component k * n(n+1)/2 + c for the c-th pair of ``upper(n)``."""
    pos = symmetric_layout(n).pos
    return jets.Layout(np.arange(n)[:, None, None] * (n * (n + 1) // 2) + pos)


def pack_symmetric(entries):
    """A symmetric n x n nested jet tensor as one ``jets.Packed`` tensor at
    its lowest degree."""
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


def dots(keys, row):
    """{key: jets.dot(*row(*key))} for each of ``keys``, all from one
    ``jets.dot_rows`` call; ``row`` gives (xs, ys, start)."""
    keys = list(keys)
    return dict(zip(keys, jets.dot_rows(row(*key) for key in keys)))


def symmetric_dots(n, row):
    """``symmetric(n, ...)`` of jets.dot(*row(i, j)), from one ``jets.dot_rows`` call."""
    v = dots(upper(n), row)
    return symmetric(n, lambda i, j: v[i, j])


@functools.lru_cache(maxsize=None)
def _christoffel_table(n):
    """The three partials each first-kind symbol (l, i <= j) sums, as indices
    into the metric partials var * n(n+1)/2 + pair."""
    pos, P = symmetric_layout(n).pos, n * (n + 1) // 2
    rows = [(i * P + pos[l, j], j * P + pos[l, i], l * P + pos[i, j])
            for l in range(n) for i, j in upper(n)]
    return tuple(np.array(c) for c in zip(*rows))


def christoffel_first(g1):
    """Christoffel symbols of the first kind, one degree below the metric
    ``g1``, packed: G[l][i][j] = Gamma_{l,ij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2.
    The metric is symmetric, so each partial is taken for i <= j only, one
    gather per variable (``jets.Packed.partials``), a block of points at a
    time (``jets.point_blocks``)."""
    g1 = pack_symmetric(g1)
    n, B = len(g1), g1.coeffs.shape[2]
    P = n * (n + 1) // 2
    a, b, c = _christoffel_table(n)
    u = np.tile(g1.narrow(), n)  # the partials of constants are constants
    narrow = u[a] & u[b] & u[c]
    space = jets.jet_space(n, g1.space.degree - 1)
    G, fixed = jets.empty(space.ncoeffs, n * P, B), np.empty((space.ncoeffs, n * P))
    for s in jets.point_blocks(B, space.ncoeffs * n * P):
        dg = g1.points(s).partials([range(P)] * n)

        def values(k, w):
            v = dg.take(a[k], w) + dg.take(b[k], w)
            v -= dg.take(c[k], w)
            v *= 0.5
            return v

        jets.fill(G[:, :, s], fixed, narrow, values)
    return jets.Packed(space, G, g1.batch, christoffel_layout(n), narrow, fixed)


def covariant(T, ga, cidx):
    """Components of a covariant derivative of a covariant tensor T,
    (nabla_c T)_idx = d_c T_idx - sum_e sum_s Gamma^e_{c idx_s} T_(idx, e in slot s),
    one for each (c, idx) of ``cidx``, all from one ``jets.dot_rows``: in each
    row e outermost, the slots of ``idx`` in order.  T is one degree deeper
    than the symbols ``ga``."""

    def at(ix):
        x = T
        for i in ix:
            x = x[i]
        return x

    def row(c, idx):
        slots = [(e, s) for e in range(len(ga)) for s in range(len(idx))]
        xs = [ga[e][c][idx[s]] for e, s in slots]
        ys = [at(idx[:s] + (e,) + idx[s + 1 :]) for e, s in slots]
        return xs, ys, at(idx).partial(c)

    return jets.dot_rows((row(c, idx) for c, idx in cidx), [True] * len(ga) * len(cidx[0][1]))


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
            hit = self._raised[id(X), d] = (X, _matmul(gi, X))
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

    def gamma(self, d):
        """Christoffel symbols of the second kind, gamma[k][i][j] = g^kl Gamma_{l,ij}."""

        def build(dd):
            G = christoffel_first(self.g(dd + 1))
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
    matrix (``full_layout``), of the nested symmetric matrix ``gmat`` at
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
    alone (``jets.mul_entries``), and the difference a subtraction.
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
        for i in range(n):
            if i == k:
                continue
            f = a[:, i, k : k + 1]
            if not np.any(f):
                continue  # structural zero, common for diagonal metrics
            both = uniform[i, k] & uniform[k]
            a[:, i] -= jets.mul_entries(sp, f, a[:, k], both)
            uniform[i] &= both
    inv = jets.empty(nc, n * n, B)
    for i in range(n):
        inv[:, i * n : (i + 1) * n] = a[:, i, n:]
    return jets.Packed(sp, inv, g.batch, full_layout(n), uniform[:, n:].ravel())


# ---- fields ----------------------------------------------------------------

_field_uids = itertools.count()


class Field:
    """A rank-r tensor field as a closure fn(ctx, degree) -> nested jet lists.

    Rank 0 returns a bare jet.  Results are cached on the context under the
    field's identity, so shared subexpressions evaluate once per degree.
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
            self.rank, lambda ctx, d: _emap2(op, self(ctx, d), other(ctx, d), self.rank)
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return Field(self.rank, lambda ctx, d: _emap(lambda a: -a, self(ctx, d), self.rank))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Field(
                self.rank,
                lambda ctx, d: _emap(lambda a: a * other, self(ctx, d), self.rank),
            )
        if isinstance(other, Field):
            if self.rank == 0:
                return Field(
                    other.rank,
                    lambda ctx, d: _emap(
                        lambda b: self(ctx, d) * b, other(ctx, d), other.rank
                    ),
                )
            if other.rank == 0:
                return other.__mul__(self)
            raise JetError("tensor-tensor products need explicit index contractions")
        raise JetError(f"cannot multiply a field by {type(other).__name__}")

    __rmul__ = __mul__


def _emap(fn, val, rank):
    if rank == 0:
        return fn(val)
    return [_emap(fn, v, rank - 1) for v in val]


def _emap2(fn, a, b, rank):
    if rank == 0:
        return fn(a, b)
    return [_emap2(fn, x, y, rank - 1) for x, y in zip(a, b)]


def expression_field(expr):
    """Scalar field evaluating a parsed chart expression."""
    return Field(0, lambda ctx, d: expr(ctx.coords(d)))


def constant_field(value):
    return Field(0, lambda ctx, d: jets.constant(jets.jet_space(ctx.dim, d), value))


def metric_field():
    return Field(2, lambda ctx, d: ctx.g(d))


def _matmul(A, B):
    n = len(A)
    prod = jets.dot_rows(
        (A[i], [B[k][j] for k in range(n)], None) for i in range(n) for j in range(n)
    )
    return [prod[i * n : (i + 1) * n] for i in range(n)]


def _flat(M):
    return [x for row in M for x in row]


# ---- calculus combinators --------------------------------------------------


def differential(f):
    """Exterior derivative of a scalar field, as a covector field."""

    def fn(ctx, d):
        j = f(ctx, d + 1)
        return [j.partial(i) for i in range(ctx.dim)]

    return Field(1, fn)


def divergence(w):
    """Metric trace of the covariant derivative of a covector field.

    No sign is applied here: with this convention the Laplacian
    divergence(differential(f)) is non-positive definite, and integration by
    parts reads integral (df, w) = -integral f divergence(w).
    """

    def fn(ctx, d):
        n = ctx.dim
        om = w(ctx, d + 1)
        gi = _flat(ctx.ginv(d))
        ga = ctx.gamma(d)
        return jets.dot(gi, covariant(om, ga, [(i, (j,)) for i in range(n) for j in range(n)]))

    return Field(0, fn)


def laplacian(f):
    return divergence(differential(f))


def hessian(f):
    """Covariant Hessian of a scalar field (symmetric rank 2)."""

    def fn(ctx, d):
        n = ctx.dim
        j = f(ctx, d + 2)
        dj = [j.partial(i) for i in range(n)]
        ga = ctx.gamma(d)
        v = dict(zip(upper(n), covariant(dj, ga, [(k, (i,)) for i, k in upper(n)])))
        return symmetric(n, lambda i, k: v[i, k])

    return Field(2, fn)


def divergence2(T):
    """Divergence of a symmetric 2-tensor field: (div T)_j = g^{ik} nabla_i T_kj."""

    def fn(ctx, d):
        n = ctx.dim
        t = T(ctx, d + 1)
        gi = _flat(ctx.ginv(d))
        ga = ctx.gamma(d)
        nabla = covariant(t, ga, [(i, (k, j)) for j in range(n) for i in range(n) for k in range(n)])
        return jets.dot_rows((gi, nabla[j * n * n : (j + 1) * n * n], None) for j in range(n))

    return Field(1, fn)


def divdiv(T):
    return divergence(divergence2(T))


def apply2(T, w):
    """Action of a covariant 2-tensor on a covector: (T w)_i = T_ij g^jk w_k."""

    def fn(ctx, d):
        n = ctx.dim
        t = T(ctx, d)
        gi = ctx.ginv(d)
        om = w(ctx, d)
        raised = jets.dot_rows((gi[k], om, None) for k in range(n))
        return jets.dot_rows((t[i], raised, None) for i in range(n))

    return Field(1, fn)


def inner22(S, T):
    """Full contraction g^{ik} g^{jl} S_ij T_kl, i.e. trace(g^-1 S g^-1 T)."""

    def fn(ctx, d):
        su, tu = ctx.raised(S, d), ctx.raised(T, d)
        return jets.dot(_flat(su), _flat(zip(*tu)))

    return Field(0, fn)


def norm2sq(T):
    return inner22(T, T)


def square2(T):
    """(T g^-1 T)_ij, the metric square of a symmetric 2-tensor."""

    def fn(ctx, d):
        t = T(ctx, d)
        return _matmul(_matmul(t, ctx.ginv(d)), t)

    return Field(2, fn)


def trace_cube(T):
    """trace((g^-1 T)^3)."""

    def fn(ctx, d):
        n = ctx.dim
        up = ctx.raised(T, d)
        cube = _matmul(_matmul(up, up), up)
        return sum((cube[i][i] for i in range(1, n)), cube[0][0])

    return Field(0, fn)
