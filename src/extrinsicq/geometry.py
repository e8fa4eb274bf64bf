"""Charts, metrics, and cached evaluation contexts for tensor calculus.

The central object is a context: it pins a geometry to a batch of chart
points and hands out jets of everything derived from it (metric, inverse,
Christoffel symbols, and through the builders in curvature.py the curvature
tensors), each computed once per degree and memoized.  Degree bookkeeping is
demand driven: every quantity requests exactly the jet depth it consumes,
and the context refuses to exceed its configured cap rather than silently
return shallow data.

Scalar and tensor fields are closures fn(ctx, degree) wrapped in Field so
results can be cached per context; the calculus combinators (differential,
divergence, laplacian, hessian, traces and inner products) assemble fields
into new fields without fixing a degree prematurely.  Tensors are nested
lists of jets, always fully covariant; indices are raised explicitly with
the inverse metric where needed.  Each index contraction is one ``jets.dot``
per entry, with a subtracted term as a negated factor, which is exact; the
factor is negated per call, so no negated tensor is kept.  Every module
fills a symmetric tensor with ``symmetric``, takes first-kind Christoffel
symbols from ``christoffel_first`` and covariant derivatives from
``covariant``.  ``jet_values`` and ``jet_coeffs`` turn a tensor into one numpy
array, batch axis last.
"""

import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .exprlang import ExprError, parse_expression
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
    contexts.  ``texts`` is the full dim x dim matrix of strings.
    """

    __slots__ = ("chart", "texts", "exprs")

    def __init__(self, chart, texts):
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
                return parse_expression(texts[i][j], chart.names)
            except ExprError as err:
                err.args = (f"metric component g{i+1}{j+1}: {err.args[0]}",)
                raise

        self.chart = chart
        self.texts = texts
        self.exprs = tuple(tuple(row) for row in symmetric(n, parse))

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


def conformal_rescale(metric, phi_text):
    """The metric exp(2 phi) g, assembled at the expression level."""
    parse_expression(phi_text, metric.chart.names)  # surface bad text here, with position
    factor = f"exp(2*({phi_text}))"
    texts = [[f"{factor}*({t})" for t in row] for row in metric.texts]
    return Metric(metric.chart, texts)


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


def symmetric(n, entry):
    """The n x n nested list with ``entry(i, j)`` at [i][j] and [j][i] for
    i <= j, called row by row."""
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = entry(i, j)
    return out


def christoffel_first(g1):
    """Christoffel symbols of the first kind, one degree below the metric jets
    ``g1``: G[l][i][j] = Gamma_{l,ij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2."""
    n = len(g1)
    dg = [[[g1[i][j].partial(k) for j in range(n)] for i in range(n)] for k in range(n)]
    return [
        symmetric(n, lambda i, j: (dg[i][l][j] + dg[j][l][i] - dg[l][i][j]) * 0.5)
        for l in range(n)
    ]


def covariant(T, ga, c, idx):
    """One component of a covariant derivative of a covariant tensor T,
    (nabla_c T)_idx = d_c T_idx - sum_e sum_s Gamma^e_{c idx_s} T_(idx, e in slot s),
    as one ``jets.dot``: e outermost, the slots of ``idx`` in order.  T is one
    degree deeper than the symbols ``ga``."""

    def at(ix):
        x = T
        for i in ix:
            x = x[i]
        return x

    xs, ys = [], []
    for e, plane in enumerate(ga):
        for s, a in enumerate(idx):
            xs.append(-plane[c][a])
            ys.append(at(idx[:s] + (e,) + idx[s + 1 :]))
    return jets.dot(xs, ys, start=at(idx).partial(c))


def _truncate_any(obj, d):
    if isinstance(obj, jets.Jet):
        return obj.truncate(d)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_truncate_any(x, d) for x in obj)
    return obj


class GeometryContext:
    """Points plus a per-(quantity, degree) cache.  Subclasses supply g()."""

    def __init__(self, chart, points, degree_cap=6):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] != chart.dim:
            raise JetError(
                f"points must have shape ({chart.dim}, batch), got {pts.shape}"
            )
        if not 0 <= degree_cap <= jets.MAX_DEGREE:
            raise JetError(f"degree cap must be in 0..{jets.MAX_DEGREE}, got {degree_cap}")
        self.chart = chart
        self.points = pts
        self.degree_cap = degree_cap
        self._cache = {}

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
        """Memoized lookup; a deeper cached copy serves shallower requests."""
        hit = self._cache.get((key, d))
        if hit is not None:
            return hit
        for dd in range(d + 1, self.degree_cap + 1):
            deep = self._cache.get((key, dd))
            if deep is not None:
                out = _truncate_any(deep, d)
                self._cache[(key, d)] = out
                return out
        out = build(d)
        self._cache[(key, d)] = out
        return out

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
            n = self.dim
            G = christoffel_first(self.g(dd + 1))
            gi = self.ginv(dd)
            return [
                symmetric(n, lambda i, j: jets.dot(gi[k], [G[l][i][j] for l in range(n)]))
                for k in range(n)
            ]

        return self.get("gamma", d, build)


class MetricContext(GeometryContext):
    """Evaluation context for an explicitly given metric."""

    def __init__(self, metric, points, degree_cap=6):
        super().__init__(metric.chart, points, degree_cap)
        self.metric = metric

    def g(self, d):
        def build(dd):
            xs = self.coords(dd)
            return symmetric(self.dim, lambda i, j: self.metric.exprs[i][j](xs))

        return self.get("g", d, build)


def _invert_spd(gmat, ctx, d):
    """Gauss-Jordan over the jet ring; returns the inverse.

    No pivoting: for a positive-definite matrix every pivot is a ratio of
    leading principal minors, so positivity of the pivots IS the positivity
    check.  The threshold is relative to the matrix's own diagonal because
    polar-chart metrics are legitimately tiny near coordinate poles.
    """
    n = len(gmat)
    sp = jets.jet_space(ctx.dim, d)
    a = [list(row) for row in gmat]
    inv = [
        [jets.constant(sp, 1.0 if i == j else 0.0) for j in range(n)] for i in range(n)
    ]
    for k in range(n):
        piv = a[k][k]
        pv = np.atleast_1d(piv.value)
        base = np.atleast_1d(np.abs(gmat[k][k].value))
        bad = (pv <= 0.0) | (pv <= _PIVOT_RTOL * base)
        if np.any(bad):
            b = int(np.argmax(bad))
            raise SingularFieldError(
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
                continue  # structural zero, common for diagonal metrics
            a[i] = [a[i][j] - f * a[k][j] for j in range(n)]
            inv[i] = [inv[i][j] - f * inv[k][j] for j in range(n)]
    return inv


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
    return [[jets.dot(A[i], [B[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]


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
        return jets.dot(gi, [covariant(om, ga, i, (j,)) for i in range(n) for j in range(n)])

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
        return symmetric(n, lambda i, k: covariant(dj, ga, k, (i,)))

    return Field(2, fn)


def divergence2(T):
    """Divergence of a symmetric 2-tensor field: (div T)_j = g^{ik} nabla_i T_kj."""

    def fn(ctx, d):
        n = ctx.dim
        t = T(ctx, d + 1)
        gi = _flat(ctx.ginv(d))
        ga = ctx.gamma(d)
        return [
            jets.dot(gi, [covariant(t, ga, i, (k, j)) for i in range(n) for k in range(n)])
            for j in range(n)
        ]

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
        raised = [jets.dot(gi[k], om) for k in range(n)]
        return [jets.dot(t[i], raised) for i in range(n)]

    return Field(1, fn)


def inner22(S, T):
    """Full contraction g^{ik} g^{jl} S_ij T_kl, i.e. trace(g^-1 S g^-1 T)."""

    def fn(ctx, d):
        su = _matmul(ctx.ginv(d), S(ctx, d))
        tu = _matmul(ctx.ginv(d), T(ctx, d))
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
        up = _matmul(ctx.ginv(d), T(ctx, d))
        cube = _matmul(_matmul(up, up), up)
        return sum((cube[i][i] for i in range(1, n)), cube[0][0])

    return Field(0, fn)
