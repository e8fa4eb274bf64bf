"""Truncated multivariate Taylor expansions (jets) with batched coefficients.

A jet holds the Taylor coefficients of a smooth quantity about a point, up
to a fixed total degree, in a dense graded-lexicographic layout.  Arithmetic
is exact on the retained coefficients: operations never approximate, they
only truncate.  The coefficient array may carry a trailing batch axis so a
single jet represents the expansion of the same field at many points at
once; unbatched and batched operands mix freely.

Products are truncated Cauchy products over a cached pair table, and every
kernel sums each target's pairs left to right in table order, so a point's
bits never depend on how many points share its batch, or on the kernel.
Small batches (and unbatched jets) gather the pairs into a table of one
column per target, -0.0 past its pairs, and reduce its rows in order
(``_cauchy_padded``); x + (-0) = x for every x, signed zeros included.
From ``_LAYERED_MIN_BATCH`` points on, where that table outgrows the cache,
the pairs are added in layers: layer r holds the r-th pair of every target
with more than r pairs, and the accumulator keeps the targets sorted by pair
count, so each layer is added in place to one block of rows, with no scatter
(``BENCH_prefix_layers.json``).

The jets of a whole tensor are one ``Packed`` coefficient array (ncoeffs,
components, batch), holding only the components its builder makes, with a
``Layout`` placing them in the tensor; its entries are jet views into the
array, made when first read.  A component that is the same at every point
(a constant) is marked uniform: its view is unbatched and its work is done
at one point, as for an unbatched jet.  Sums, differences and scalings of
whole tensors are array operations (``mapped``), and a jet times each entry
is one product per entry (``mul_entries``), bit for bit the jet operations.

``contract`` is the one contraction: row r of it is start_r + x_a*y_b +
x_c*y_d + ... from integer tables of the components, bit for bit the loop
of products and additions but with no jet per term.  A term may carry a
minus sign: its x coefficients are negated, never its product, as negating
a product whose sum cancels to +0 would give -0.  Below
``_LAYERED_MIN_BATCH`` points the rows' operands are gathered chunk by chunk
into contiguous arrays, and one padded product makes the products of a
chunk (``_dot_core``).  From there on each row's products are layered into
one accumulator, and a term whose product is zero at every coefficient and
point (one operand all zero, the other all finite) is left out.  Adding
such a product turns a -0 sum into +0 and changes nothing else, so the row
is mended where its sum holds -0: by a left-out +0 term, or else by making
the left-out products after all.  The sum keeps the loop's bits, sign of
zero included (``BENCH_vanishing_terms.json``).

Composition substitutes inner jets into a stack of outer Taylor polynomials,
such as the components of a packed tensor: the monomials of the inner
offsets are built once, one product each, and every outer is a coefficient
sum against them.  The elementary functions are the one-variable case of
the same substitution.  An offset with the same bits at every point (a
chart coordinate's, under sin or cos) keeps one column, and so do the
monomials of such offsets alone (``BENCH_prefix_layers.json``,
"series_rows").

Degrees are bookkept explicitly.  Asking for information beyond the stored
degree raises DegreeExhaustedError rather than returning garbage, and
domain violations (log of a nonpositive value, division by zero) raise
SingularFieldError.
"""

import functools
import math

import numpy as np

MAX_NVARS = 6
MAX_DEGREE = 8

# reciprocal refuses anything this close to zero
_DIV_FLOOR = 1e-300

# Batch size from which products use the layered kernel and ``contract``
# sums each row on its own; a speed setting only, as every kernel sums in one
# order.  At 4-5 variables and degrees 2-3 the padded kernel takes 0.4-1.0x
# the layered one's time up to 128 points and 0.9-5x from 256 on, where its
# table outgrows the cache; at degree 6 it is slower from 8 points on, at
# degrees 0-1 always, by a few microseconds (BENCH_one_order.json, "rows").
_LAYERED_MIN_BATCH = 128

# Largest padded table, in float64 elements (slots x products x batch), that
# one stacked product of ``contract`` makes below ``_LAYERED_MIN_BATCH``.  At
# 8 points, 5 variables and degrees 0-4 the rows of a 6-55-entry tensor take
# 0.58x the time of one contraction each at 2**14, 0.53x at 2**15 and 0.47x
# at 2**16 (geometric means; BENCH_one_order.json, "stack_bound").  With
# reduceat's gathers paper-points gained nothing past 2**14 end to end and
# held more memory (BENCH_dot_rows.json); the bound stays until a gain shows.
_STACK_ELEMENTS = 2**14

# Largest block, in float64 elements, of the elementwise work on a packed
# tensor (``filled``): 2 MB, a few jets at a thousand points.  Taking the
# components of a thousand-point tensor a block at a time keeps its
# intermediates near that size, not several times the tensor's: at 2**20,
# gauss-bonnet's peak RSS read 80-81 MB, at 2**18 75-77 MB, against 70-71 MB
# for nested jets (the maximum RSS of one process running six passes).
_BLOCK_ELEMENTS = 2**18

# -0.0 is the one float64 whose bits, read as an int64, are the least int64
_NEG_ZERO_BITS = np.iinfo(np.int64).min

# _flags(value, count): one read-only array of count flags per pair (``Packed.narrow``)
_flags = functools.lru_cache(maxsize=None)(np.broadcast_to)


class JetError(ValueError):
    """Structural misuse of the jet algebra: spaces, shapes, arguments."""


class DegreeExhaustedError(JetError):
    """A coefficient or derivative beyond the stored degree was requested."""


class SingularFieldError(ArithmeticError):
    """An operation left the domain of the function being expanded."""


@functools.lru_cache(maxsize=None)
def _grade_block(nvars, grade):
    """Multi-indices of exact total degree ``grade``, lexicographic order."""
    if nvars == 1:
        return ((grade,),)
    return tuple(
        (k,) + rest
        for k in range(grade, -1, -1)
        for rest in _grade_block(nvars - 1, grade - k)
    )


class JetSpace:
    """Shared coefficient layout for jets in ``nvars`` variables at ``degree``.

    Multi-indices are ordered by total degree, then lexicographically with
    earlier variables dominant.  The grading means the degree-d space is a
    prefix of every higher-degree space over the same variables, so
    truncation is a slice and no reindexing ever happens.

    Do not construct directly; go through :func:`jet_space` so tables are
    shared.
    """

    __slots__ = ("nvars", "degree", "mi", "index", "ncoeffs", "_mul", "_partials")

    def __init__(self, nvars, degree):
        self.nvars = nvars
        self.degree = degree
        mi = []
        for q in range(degree + 1):
            mi.extend(_grade_block(nvars, q))
        self.mi = tuple(mi)
        self.index = {a: i for i, a in enumerate(self.mi)}
        self.ncoeffs = len(self.mi)
        self._mul = None
        self._partials = {}

    def prefix_count(self, d):
        """Number of multi-indices of total degree at most d."""
        return math.comb(d + self.nvars, self.nvars)

    def mul_table(self):
        """Pair tables (I, J, starts, layers, order) driving truncated Cauchy products.

        Target k = index(mi[I[p]] + mi[J[p]]) collects the pairs p in
        ``starts[k]:starts[k+1]``, ordered by I.  Every target has at least
        one pair, and its first is (0, k) (alpha = 0 + alpha), which keeps
        ``starts`` strictly increasing.

        The layered kernel keeps its accumulator with the targets sorted by
        pair count, ascending and stable: ``order = (perm, rank)`` puts
        target ``perm[q]`` at row q and takes it back from row ``rank[k]``,
        or is None where that order is the graded one (degree 0 or 1, or one
        variable).
        ``layers[r-1] = (lo, I_r, J_r)`` holds the r-th pair of every target
        with more than r pairs; those targets are the rows ``lo:`` of the
        accumulator, so ``acc[lo:] += a[I_r] * b[J_r]`` adds a layer to one
        contiguous block.  Starting from ``a[0] * b`` and adding the layers
        in order sums every target's pairs in table order.
        """
        if self._mul is None:
            ks, iis, jjs = [], [], []
            for i, a in enumerate(self.mi):
                jmax = self.prefix_count(self.degree - sum(a))
                for j in range(jmax):
                    b = self.mi[j]
                    ks.append(self.index[tuple(x + y for x, y in zip(a, b))])
                    iis.append(i)
                    jjs.append(j)
            order = np.argsort(np.asarray(ks), kind="stable")
            k_sorted = np.asarray(ks)[order]
            I = np.asarray(iis, dtype=np.intp)[order]
            J = np.asarray(jjs, dtype=np.intp)[order]
            starts = np.searchsorted(k_sorted, np.arange(self.ncoeffs))
            counts = np.diff(starts, append=I.size)
            perm = np.argsort(counts, kind="stable")
            layers = []
            for r in range(1, int(counts.max())):
                lo = int(np.searchsorted(counts[perm], r, side="right"))
                p = starts[perm[lo:]] + r
                layers.append((lo, I[p], J[p]))
            rows = None
            if np.any(perm != np.arange(self.ncoeffs)):
                rows = (perm, np.argsort(perm))
            self._mul = (I, J, starts, tuple(layers), rows)
        return self._mul

    def partial_table(self, var):
        """(src, fac) arrays so that (d/dx_var a)[r] = fac[r] * a[src[r]]."""
        tab = self._partials.get(var)
        if tab is None:
            n_out = self.prefix_count(self.degree - 1)
            src = np.empty(n_out, dtype=np.intp)
            fac = np.empty(n_out)
            for r, beta in enumerate(self.mi[:n_out]):
                alpha = list(beta)
                alpha[var] += 1
                src[r] = self.index[tuple(alpha)]
                fac[r] = beta[var] + 1
            self._partials[var] = tab = (src, fac)
        return tab


@functools.lru_cache(maxsize=None)
def jet_space(nvars, degree):
    """The (cached) jet space in ``nvars`` variables truncated at ``degree``."""
    if not 1 <= nvars <= MAX_NVARS:
        raise JetError(f"nvars must be in 1..{MAX_NVARS}, got {nvars}")
    if not 0 <= degree <= MAX_DEGREE:
        raise JetError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    return JetSpace(nvars, degree)


def _one_below(space):
    """The space of the first partials of jets in ``space``, a degree lower."""
    if space.degree == 0:
        raise DegreeExhaustedError("cannot differentiate a degree-0 jet; "
                                   "request a higher working degree")
    return jet_space(space.nvars, space.degree - 1)


def _as_value(c):
    c = np.asarray(c, dtype=np.float64)
    if c.ndim not in (0, 1):
        raise JetError(f"scalar operand must be a number or a 1-d batch, got shape {c.shape}")
    return c


def _align(x, y):
    """Lift unbatched coefficients against batched ones; check batch sizes."""
    if x.ndim == y.ndim:
        if x.ndim == 2 and x.shape[1] != y.shape[1]:
            raise JetError(f"batch sizes differ: {x.shape[1]} vs {y.shape[1]}")
        return x, y
    if x.ndim == 1:
        return x[:, None], y
    return x, y[:, None]


@functools.lru_cache(maxsize=None)
def _pad(space):
    """(I, J, empty): the pair table as (most pairs of a target, ncoeffs)
    index arrays, target k's pairs down column k in table order, and the
    slots past them, which take pair 0 and are marked in ``empty``."""
    I, J, starts, _, _ = space.mul_table()
    counts = np.diff(starts, append=I.size)
    slot = np.arange(counts.max())[:, None]
    empty = slot >= counts
    p = np.where(empty, 0, starts + slot)
    return I[p], J[p], empty


def _cauchy_padded(space, ca, cb):
    """Truncated product of aligned coefficient arrays of any trailing shape:
    the pairs are gathered into ``_pad``'s table with -0.0 in its empty
    slots, and np.add.reduce adds its rows in order from -0.0, which sums
    each target's pairs left to right (x + (-0) = x for every x)."""
    I, J, empty = _pad(space)
    P = ca[I] * cb[J]
    P[empty] = -0.0
    return np.add.reduce(P, axis=0, initial=-0.0)


def _cauchy_layered(space, ca, cb):
    """Truncated product of aligned coefficient arrays, by layers.

    Each layer's products are added in place to a block of rows of the
    accumulator (``JetSpace.mul_table``); the rows go back to graded order
    once at the end."""
    _, _, _, layers, order = space.mul_table()
    acc = ca[0] * (cb if order is None else cb[order[0]])
    for lo, I, J in layers:
        acc[lo:] += ca[I] * cb[J]
    return acc if order is None else acc[order[1]]


def layered(batch):
    """Whether work at ``batch`` points takes the layered paths, where a
    product is layered and a contraction row summed on its own."""
    return batch >= _LAYERED_MIN_BATCH


def _product(space, ca, cb):
    """Truncated product of aligned coefficient arrays by the kernel for their batch."""
    # two comparisons, not max(): this runs on every small product
    if ca.ndim == 2 and (ca.shape[1] >= _LAYERED_MIN_BATCH or cb.shape[1] >= _LAYERED_MIN_BATCH):
        return _cauchy_layered(space, ca, cb)
    return _cauchy_padded(space, ca, cb)


def _stack_plan(space, B, m):
    """(rows, terms): how many rows of m terms at B points one chunk of
    ``contract`` stacks, and how many of a row's terms one gather takes, so
    that the padded table (``_pad``) holds at most ``_STACK_ELEMENTS``
    elements, or one product's where a single product is larger."""
    products = max(1, _STACK_ELEMENTS // (_pad(space)[0].size * B))
    return max(1, products // m), min(m, products)


def _dot_core(space, X, Y, S, step):
    """The sums of stacked rows, as (ncoeffs, rows, B): X and Y (ncoeffs,
    rows, terms, B), contiguous, hold each row's operands, X already
    carrying the terms' signs, and S (ncoeffs, rows, B) their starts or is
    None.  One padded product (``_cauchy_padded``) makes the products of
    ``step`` terms at a time, and each row's are added in order, after its
    start, one term position at a time (a loop of in-place additions, which
    here runs faster than one accumulate along the term axis)."""
    nc, r, m, B = X.shape
    k = int(S is not None)
    terms = np.empty((nc, r, k + m, B))
    if k:
        terms[:, :, 0] = S
    for lo in range(0, m, step):
        s = slice(lo, lo + step)
        terms[:, :, k + lo : k + lo + step] = _cauchy_padded(space, X[:, :, s], Y[:, :, s])
    out = terms[:, :, 0]
    for t in range(1, k + m):
        out += terms[:, :, t]
    return out


def _finite(checks, c):
    if checks[2] is None:
        checks[2] = bool(np.isfinite(c).all())
    return checks[2]


def _vanishing(memo, xs, ys, cs):
    """Indices of the terms of a row, of operand jets xs and ys with
    coefficients ``cs`` = [*xs', *ys'], whose products are zero at every
    coefficient and point: one operand is all zero and the other all finite
    (0 * inf would be NaN).

    ``memo`` keeps [jet, all zero, all finite (None until asked)] of each
    operand by truncation and id for one ``contract`` call, and holds the
    jet, so that its id stays its own."""
    seen = memo.setdefault(cs[0].shape[0], {})
    checks = []
    for j, c in zip((*xs, *ys), cs):
        got = seen.get(id(j))
        if got is None:
            # the value at the first point, then the value row, rule out most
            # operands at a fraction of the cost of a full scan
            seen[id(j)] = got = [j, not (c.item(0) or c[0].any() or c.any()), None]
        checks.append(got)
    m = len(xs)
    return [
        t
        for t in range(m)
        if (checks[t][1] and _finite(checks[m + t], cs[m + t]))
        or (checks[m + t][1] and _finite(checks[t], cs[t]))
    ]


def _plus_zero(a, b, negate):
    """Whether the vanishing term x*y (-x*y if ``negate``) of coefficients a
    and b is +0 at every coefficient and point: both value rows (the
    negated x's if ``negate``) hold no sign bit, and an operand holds +0
    only.  Then each target's pair of that operand with the other's value
    row is +0, and a sum of zeros with one +0 is +0."""
    if (np.signbit(a[0]) != negate).any() or np.signbit(b[0]).any():
        return False
    plus_x = _NEG_ZERO_BITS if negate else 0  # the bits of an x that makes +0
    return bool((a.view(np.int64) == plus_x).all()) or not b.view(np.int64).any()


def _dot_layered(space, B, cs, k, negate, vanishing=()):
    """One row's sum from ``_LAYERED_MIN_BATCH`` points on: each product is
    layered, of the negated x for a term marked in ``negate``, and added to
    one accumulator, as a stacked gather would outgrow the cache.

    The terms ``vanishing`` (``_vanishing``) are left out.  Adding their
    ±0 products changes a partial sum only from -0 to +0, and a sum that
    once holds +0 where the one without them holds -0 keeps it, so leaving
    them out changes nothing but some of the sum's -0.  Where the sum holds
    -0, a +0 term (``_plus_zero``) gives the loop's +0 at each of them;
    without one the left-out products are made and added after all, as
    adding ±0 in any order gives -0 only where every term is -0.  A row with
    no start starts from -0, which is the additive identity."""
    nc, m = space.ncoeffs, (len(cs) - k) // 2

    def prods(terms):
        for t in terms:
            x = -cs[k + t] if negate[t] else cs[k + t]
            yield _product(space, *_align(x, cs[k + m + t])).reshape(nc, -1)

    kept = prods(t for t in range(m) if t not in vanishing)
    out = cs[0].reshape(nc, -1) if k else next(kept, np.full((nc, 1), -0.0))
    if k or out.shape[1] < B:  # the accumulator must be a new array with every point
        out = np.broadcast_to(out, (nc, B)).copy()
    for p in kept:
        out += p
    if vanishing and out.view(np.int64).min() == _NEG_ZERO_BITS:
        if any(_plus_zero(cs[k + t], cs[k + m + t], negate[t]) for t in vanishing):
            out += 0.0
        else:
            for p in prods(vanishing):
                out += p
    return out


class Packed(list):
    """The jets of one tensor as one coefficient array.

    ``coeffs`` has shape (ncoeffs, components, batch), or (ncoeffs,
    components, 1) with ``batch`` None when no component varies from point to
    point.  ``uniform``, None or a boolean per component, marks the
    components that hold the same coefficients at every point, as an
    unbatched jet (a constant) does.  Their coefficients are ``fixed[:, c]``,
    one point's, and their slots in ``coeffs`` are not read, so a constant
    costs no more than an unbatched jet; ``take`` and ``dense`` read either
    kind.  ``views`` holds one jet per component, a view into ``coeffs``, or
    an unbatched one into ``fixed``, made when first asked for.  A ``Layout``
    places the components in the tensor; with one the list holds the nested
    entries, made when it is first read, so ``t[i][j]`` indexes the tensor as
    nested jets do.  Without one the list is empty.
    """

    __slots__ = ("space", "coeffs", "batch", "layout", "uniform", "fixed", "_views", "_nested")

    def __init__(self, space, coeffs, batch, layout=None, uniform=None, fixed=None):
        super().__init__()
        if batch is None and fixed is not None and uniform is not None and uniform.any():
            coeffs[:, uniform, 0] = fixed[:, uniform]  # every component is at its one point
        if batch is None or uniform is None or not uniform.any():
            uniform = fixed = None
        elif fixed is None:  # every slot holds its component
            fixed = coeffs[:, :, 0]
        self.space, self.coeffs, self.batch, self.layout = space, coeffs, batch, layout
        self.uniform, self.fixed = uniform, fixed
        self._views = None
        self._nested = layout is None

    def _nest(self):
        if not self._nested:
            self._nested = True
            self.extend(self.layout.nest(self.views, self.space))

    def __getitem__(self, i):
        self._nest()
        return list.__getitem__(self, i)

    def __iter__(self):
        self._nest()
        return list.__iter__(self)

    def __len__(self):
        return 0 if self.layout is None else len(self.layout.pos)

    @property
    def views(self):
        if self._views is None:
            c = self.coeffs if self.batch else self.coeffs[:, :, 0]
            u = [False] * c.shape[1] if self.uniform is None else self.uniform.tolist()
            self._views = [Jet(self.space, self.fixed[:, k] if n else c[:, k])
                           for k, n in enumerate(u)]
        return self._views

    def laid_out(self, layout):
        """The same components placed by ``layout``."""
        return Packed(self.space, self.coeffs, self.batch, layout, self.uniform, self.fixed)

    def narrow(self):
        """A boolean per component: whether it holds the same coefficients
        at every point, as every component of an unbatched tensor does."""
        if self.uniform is not None:
            return self.uniform
        return _flags(self.batch is None, self.coeffs.shape[1])

    def take(self, k, w, rows=slice(None)):
        """The coefficients ``rows`` (a slice) of the components ``k`` at w
        points, 1 or the batch, as (rows, len(k), w): a uniform component's
        broadcast from its one point.  An unbatched tensor gives its one
        point, which broadcasts."""
        if self.batch is None:
            return self.coeffs[rows, k]
        u = self.narrow()[k]
        if u.all() and w == 1:
            return self.fixed[rows, k][..., None]
        out = self.coeffs[rows, k, :w]
        if u.any():
            out[:, u] = self.fixed[rows, k[u]][..., None]
        return out

    def dense(self, nc=None):
        """The first ``nc`` coefficients (all by default) of every component
        at every point, as one (nc, components, batch) array."""
        count, B = self.coeffs.shape[1:]
        if self.uniform is None:
            return self.coeffs[:nc]
        return self.take(np.arange(count), B, slice(0, nc))

    def truncate(self, d):
        """The same tensor at degree d: a prefix slice of ``coeffs``."""
        if d == self.space.degree:
            return self
        if d > self.space.degree:
            raise DegreeExhaustedError(
                f"cannot extend a degree-{self.space.degree} tensor to degree {d}"
            )
        space = jet_space(self.space.nvars, d)
        nc = space.ncoeffs
        fixed = None if self.fixed is None else self.fixed[:nc]
        return Packed(space, self.coeffs[:nc], self.batch, self.layout, self.uniform, fixed)

    def points(self, s):
        """The same components at the points ``s`` (a slice), as views."""
        coeffs = self.coeffs[:, :, s] if self.batch else self.coeffs
        return Packed(self.space, coeffs, coeffs.shape[2] if self.batch else None,
                      self.layout, self.uniform, self.fixed)

    def partials(self, wanted):
        """The first partials of the components ``wanted[var]`` along each var, in
        that order, as one ``Packed`` tensor without a layout (``partial_sums``)."""
        rows = np.array([(v, c) for v, comps in enumerate(wanted) for c in comps], np.intp)
        return partial_sums(self, rows[:, :1], rows[:, 1:], (False,))


def partial_sums(t, var, comp, minus, scale=None):
    """The ``Packed`` tensor, without a layout, whose row k sums the first
    partials d_var[k, s] t_comp[k, s] of components of t left to right, the
    terms s > 0 marked in ``minus`` subtracted, then scales by ``scale`` if
    given: bit for bit those ``Jet.partial`` and jet operations.  A row of
    uniform components is uniform, made at one point.  Below
    ``_LAYERED_MIN_BATCH`` points each term is one gather over a block of
    rows (``filled``); from there on such gathers cost more than they save,
    and each row is made in its slot from views of its components."""
    space = _one_below(t.space)
    src, fac = (np.array(a).T for a in zip(*map(t.space.partial_table, range(space.nvars))))
    nc, B, m = space.ncoeffs, t.coeffs.shape[2], var.shape[1]
    narrow = t.narrow()[comp].all(axis=1)
    if B < _LAYERED_MIN_BATCH:
        X = t.dense()

        def values(k, w):
            d = [X[src[:, var[k, p]], comp[k, p], :w] * fac[:, var[k, p], None] for p in range(m)]
            for p in range(1, m):
                (np.subtract if minus[p] else np.add)(d[0], d[p], out=d[0])
            return d[0] if scale is None else np.multiply(d[0], scale, out=d[0])

        return filled(space, len(var), t.batch, narrow, values)
    out, fixed = empty(nc, len(var), B), np.empty((nc, len(var)))
    views, buf = [x.coeffs.reshape(len(x.coeffs), -1) for x in t.views], np.empty((nc, B))
    for k, (vs, cs) in enumerate(zip(var.tolist(), comp.tolist())):
        row = fixed[:, k, None] if narrow[k] else out[:, k]
        for p, (v, x) in enumerate(zip(vs, (views[c] for c in cs))):
            into = None if x.shape[1] == 1 else row if p == 0 else buf  # uniform: at one point
            d = np.take(x, src[:, v], 0, out=into, mode="clip")
            d *= fac[:, v, None]
            if p == 0 and d is not row:
                row[...] = d
            elif p:
                (np.subtract if minus[p] else np.add)(row, d, out=row)
        if scale is not None:
            row *= scale
    return Packed(space, out, t.batch, uniform=narrow, fixed=fixed)


def filled(space, count, batch, narrow, values, layout=None):
    """The ``Packed`` tensor of ``count`` components in ``space`` whose
    components k at w points are values(k, w): at one point (w = 1) for
    those marked ``narrow``, which hold the same coefficients at every
    point, else at the batch, a block of at most ``_BLOCK_ELEMENTS``
    elements (one component at least) at a time."""
    nc, B = space.ncoeffs, batch or 1
    out, fixed = empty(nc, count, B), np.empty((nc, count))
    wide, step = np.flatnonzero(~narrow), max(1, _BLOCK_ELEMENTS // (nc * B))
    for k in (wide[lo : lo + step] for lo in range(0, len(wide), step)):
        if len(k) == 1:  # a view of the component, not a scatter
            out[:, k[0]] = values(k, B)[:, 0]
        else:
            out[:, k] = values(k, B)
    k = np.flatnonzero(narrow)
    if len(k):
        fixed[:, k] = values(k, 1)[:, :, 0]
    return Packed(space, out, batch, layout, narrow, fixed)


class Layout:
    """Where the components of a ``Packed`` tensor sit: the entry at index
    ix is ``sign[ix]`` times component ``pos[ix]``, or +0 where ``pos[ix]``
    is -1 (``sign`` all +1 if omitted).  ``negated`` lists the components some
    entry negates, and ``zero`` says whether an entry has no component."""

    __slots__ = ("pos", "sign", "negated", "zero", "_recipe")

    def __init__(self, pos, sign=None):
        self.pos = pos
        self.sign = np.ones_like(pos) if sign is None else sign
        flat = list(zip(pos.ravel().tolist(), self.sign.ravel().tolist()))
        count = int(pos.max()) + 1
        self.negated = sorted({c for c, s in flat if c >= 0 and s < 0})
        slot = {c: count + i for i, c in enumerate(self.negated)}
        self.zero = any(c < 0 for c, _ in flat)
        zero = count + len(self.negated)
        self._recipe = [zero if c < 0 else c if s > 0 else slot[c] for c, s in flat]

    def nest(self, views, space):
        """The nested entries over the component views: a view, its negation
        (one copy per component) or one constant zero."""
        entries = views + [-views[c] for c in self.negated]
        if self.zero:
            entries.append(constant(space, 0.0))
        flat = [entries[i] for i in self._recipe]
        for size in reversed(self.pos.shape[1:]):
            flat = [flat[i : i + size] for i in range(0, len(flat), size)]
        return flat


def pack(space, entries, layout=None):
    """A ``Packed`` tensor of the jets ``entries``, one per component, in
    ``space`` (a deeper entry is truncated to it)."""
    nc, batch = space.ncoeffs, _batch_of(entries)
    coeffs, fixed = empty(nc, len(entries), batch or 1), np.empty((nc, len(entries)))
    uniform = np.array([j.batch is None for j in entries])
    for c, j in enumerate(entries):
        if uniform[c]:
            fixed[:, c] = j.coeffs[:nc]
        else:
            coeffs[:, c] = j.coeffs[:nc].reshape(nc, -1)
    return Packed(space, coeffs, batch, layout, uniform, fixed)


def _batch_of(tensors):
    """The one batch size among jets or packed tensors, None if none has one."""
    batches = {t.batch for t in tensors} - {None}
    if len(batches) > 1:
        raise JetError(f"batch sizes differ: {sorted(batches)}")
    return batches.pop() if batches else None


def mul_entries(space, ca, cb, narrow=None):
    """The truncated products ca[:, e] * cb[:, e] of (ncoeffs, entries,
    batch) coefficient arrays in ``space``, bit for bit a jet product per
    entry; either side may hold one entry or one point for all.  Below
    ``_LAYERED_MIN_BATCH`` points one padded product makes every entry's;
    from there on each entry is layered on its own, as one layered product
    per whole array outgrows the cache.  The entries marked in ``narrow``
    have operands that hold the same coefficients at every point; their
    products are made at one point and broadcast."""
    B = max(ca.shape[2], cb.shape[2])
    if B < _LAYERED_MIN_BATCH:
        return _cauchy_padded(space, ca, cb)
    ea, eb = ca.shape[1] - 1, cb.shape[1] - 1
    out = empty(space.ncoeffs, max(ea, eb) + 1, B)
    for e in range(out.shape[1]):
        x, y = ca[:, min(e, ea)], cb[:, min(e, eb)]
        if narrow is not None and narrow[e]:
            out[:, e] = _cauchy_padded(space, x[:, 0], y[:, 0])[:, None]
        else:
            out[:, e] = _cauchy_layered(space, x, y)
    return out


def empty(nc, count, B):
    """An uninitialised (nc, count, B) coefficient array of ``count``
    components, each one contiguous block, as a jet's coefficients are."""
    return np.empty((count, nc, B)).transpose(1, 0, 2)


def _source(tensors, nc, B, signed=False, zero=False):
    """The components of ``tensors`` one after another, at ``nc``
    coefficients and B points, then their negations if ``signed``, then one
    +0 component if ``zero``, as one contiguous (nc, components, B) array,
    from which each chunk's operands are gathered into contiguous arrays."""
    parts = [np.broadcast_to(t.dense(nc), (nc, t.coeffs.shape[1], B)) for t in tensors]
    if signed:
        parts += [-p for p in parts]
    if zero:
        parts.append(np.zeros((nc, 1, B)))
    return np.concatenate(parts, axis=1) if len(parts) > 1 else np.ascontiguousarray(parts[0])


def contract(x, xi, y, yi, start=None, negate=None):
    """Rows r of start_r + sum_t x_(xi[r, t]) * y_(yi[r, t]), summed left to
    right, bit for bit that loop of jet products and additions, as a
    ``Packed`` tensor with one component per row.

    ``x`` and ``y`` are ``Packed`` tensors, or tuples of them whose
    components are numbered one tensor after another; ``xi`` and ``yi`` are
    (rows, terms) integer tables of component numbers, -1 for +0, which
    only ``yi`` may hold.  ``negate``, a (rows, terms) boolean table or
    None, marks the terms whose x coefficients are negated; ``start`` is a
    ``Packed`` tensor of one component per row, or None.  The sums are at
    the lowest degree among the operands.  A row whose operands are all
    uniform is uniform too.

    Below ``_LAYERED_MIN_BATCH`` points the operands are gathered from one
    contiguous copy of the coefficient arrays (``_source``), the negated x's
    from their negation, chunk by chunk (``_stack_plan``) into contiguous
    arrays, and summed by ``_dot_core``.  From there on each row's terms are
    the tensors' views, and each row is layered on its own with its
    vanishing terms left out (``_dot_layered``); a uniform row at one
    point."""
    xs = x if isinstance(x, tuple) else (x,)
    ys = y if isinstance(y, tuple) else (y,)
    space = min((t.space for t in xs + ys), key=lambda sp: sp.degree)
    if len({t.space.nvars for t in xs + ys}) > 1:
        raise JetError("jets live over different variables")
    batch = _batch_of(xs + ys + ((start,) if start is not None else ()))
    nc, B = space.ncoeffs, batch or 1
    R, m = xi.shape
    xu = np.concatenate([t.narrow() for t in xs])
    yu = np.concatenate([*(t.narrow() for t in ys), [True]])
    narrow = (xu[xi] & yu[yi]).all(axis=1)
    if start is not None:
        narrow &= start.narrow()
    out, fixed = empty(nc, R, B), np.empty((nc, R))
    k = int(start is not None)
    if B >= _LAYERED_MIN_BATCH:
        zero = constant(space, 0.0)
        xv = [v for t in xs for v in t.views]
        yv = [v for t in ys for v in t.views] + [zero]
        neg = [(False,) * m] * R if negate is None else negate.tolist()
        memo = {}
        for r, (xr, yr) in enumerate(zip(xi.tolist(), yi.tolist())):
            xrow, yrow = [xv[i] for i in xr], [yv[i] for i in yr]
            cs = [j.coeffs[:nc] for j in (*xrow, *yrow)]
            gone = _vanishing(memo, xrow, yrow, cs)
            if k:
                cs.insert(0, start.views[r].coeffs[:nc])
            if narrow[r]:
                fixed[:, r] = _dot_layered(space, 1, cs, k, neg[r], gone)[:, 0]
            else:
                out[:, r] = _dot_layered(space, B, cs, k, neg[r], gone)
        return Packed(space, out, batch, uniform=narrow, fixed=fixed)
    X = _source(xs, nc, B, signed=negate is not None)
    if negate is not None:
        xi = np.where(negate, xi + sum(t.coeffs.shape[1] for t in xs), xi)
    Y = _source(ys, nc, B, zero=bool((yi < 0).any()))
    rows, step = _stack_plan(space, B, m)
    S = np.broadcast_to(start.dense(nc), (nc, R, B)) if k else None
    for lo in range(0, R, rows):
        sl = slice(lo, lo + rows)
        out[:, sl] = _dot_core(space, np.take(X, xi[sl], axis=1), np.take(Y, yi[sl], axis=1),
                               S[:, sl] if k else None, step)
    return Packed(space, out, batch, uniform=narrow)


@functools.lru_cache(maxsize=None)
def dense_layout(shape):
    """The ``Layout`` of a tensor of ``shape`` with every entry its own
    component, row by row."""
    return Layout(np.arange(math.prod(shape)).reshape(shape))


def expanded(T):
    """The packed tensor T with every entry of its layout a component of its
    own (``dense_layout``), as the nested entries are: a negated component
    negated, an entry of no component +0."""
    shape = T.layout.pos.shape
    if T.layout is dense_layout(shape):
        return T
    pos, sign = T.layout.pos.ravel(), T.layout.sign.ravel()
    zero, src = pos < 0, np.maximum(pos, 0)

    def values(k, w):
        v = T.take(src[k], w)
        neg = sign[k] < 0
        v[:, neg] = -v[:, neg]
        v[:, zero[k]] = 0.0
        return v

    return filled(T.space, pos.size, T.batch, T.narrow()[src] | zero, values, dense_layout(shape))


def mapped(fn, *tensors):
    """The packed tensor of fn(a, b, ...) of the coefficients of each entry
    of the packed ``tensors`` at their lowest degree, a block at a time
    (``filled``): bit for bit fn of their jets entry by entry, for an fn that
    commutes with negation, as sums, differences and scalings do.  Tensors
    of one layout with no entry of no component keep it; others are taken
    entry by entry (``expanded``)."""
    if len({id(t.layout) for t in tensors}) > 1 or tensors[0].layout.zero:
        tensors = [expanded(t) for t in tensors]
    space = min((t.space for t in tensors), key=lambda sp: sp.degree)
    rows = slice(0, space.ncoeffs)
    narrow = np.logical_and.reduce([t.narrow() for t in tensors])
    return filled(space, len(narrow), _batch_of(tensors), narrow,
                  lambda k, w: fn(*(t.take(k, w, rows) for t in tensors)), tensors[0].layout)


def products(x, xk, y, yk, layout=None):
    """The packed tensor of the jet products x_(xk[e]) * y_(yk[e]), x first,
    of components of the packed tensors x and y at their lower degree, by
    ``mul_entries`` a block at a time: bit for bit those products."""
    space = min(x.space, y.space, key=lambda sp: sp.degree)
    rows = slice(0, space.ncoeffs)
    return filled(space, len(xk), _batch_of((x, y)), x.narrow()[xk] & y.narrow()[yk],
                  lambda k, w: mul_entries(space, x.take(xk[k], w, rows), y.take(yk[k], w, rows)),
                  layout)


def times(j, T):
    """The jet products j * T_e of every entry of the packed tensor T, in its
    layout (``expanded`` if an entry has no component, as j * 0 need not be
    +0)."""
    if T.layout.zero:
        T = expanded(T)
    count = T.coeffs.shape[1]
    return products(pack(j.space, [j]), np.zeros(count, np.intp), T, np.arange(count), T.layout)


def _common(a, b):
    """Truncate two jets to their shared degree; insist on matching variables."""
    if a.space.nvars != b.space.nvars:
        raise JetError(
            f"jets live over different variables: {a.space.nvars} vs {b.space.nvars}"
        )
    d = min(a.space.degree, b.space.degree)
    return a.truncate(d), b.truncate(d)


class Jet:
    """Taylor coefficients of one scalar quantity in a fixed JetSpace.

    ``coeffs`` has shape (ncoeffs,) or (ncoeffs, batch), float64.
    """

    __slots__ = ("space", "coeffs")

    # numpy arrays defer to Jet's reflected operators: an array of one
    # number per point times a jet scales it point by point
    __array_ufunc__ = None

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] != space.ncoeffs:
            raise JetError(
                f"coefficient shape {coeffs.shape} does not fit a space "
                f"with {space.ncoeffs} coefficients"
            )
        self.space = space
        self.coeffs = coeffs

    @property
    def nvars(self):
        return self.space.nvars

    @property
    def degree(self):
        return self.space.degree

    @property
    def batch(self):
        return None if self.coeffs.ndim == 1 else self.coeffs.shape[1]

    @property
    def value(self):
        """Value at the expansion point: the constant coefficient."""
        return self.coeffs[0]

    def __repr__(self):
        b = "" if self.batch is None else f", batch={self.batch}"
        return f"Jet(nvars={self.nvars}, degree={self.degree}{b})"

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            ca, cb = _align(a.coeffs, b.coeffs)
            return Jet(a.space, ca + cb)
        return self._shift(_as_value(other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            ca, cb = _align(a.coeffs, b.coeffs)
            return Jet(a.space, ca - cb)
        return self._shift(-_as_value(other))

    def __rsub__(self, other):
        return (-self)._shift(_as_value(other))

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            return Jet(a.space, _product(a.space, *_align(a.coeffs, b.coeffs)))
        return self._scale(_as_value(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * recip(other)
        c = _as_value(other)
        if np.min(np.abs(c)) < _DIV_FLOOR:
            raise SingularFieldError("division by zero")
        return self._scale(1.0 / c)

    def __rtruediv__(self, other):
        return recip(self)._scale(_as_value(other))

    def __pow__(self, r):
        if isinstance(r, (int, np.integer)) or (isinstance(r, float) and r.is_integer()):
            return powi(self, int(r))
        return powf(self, r)

    def _shift(self, c):
        if c.ndim == 1 and self.coeffs.ndim == 1:
            out = np.repeat(self.coeffs[:, None], c.shape[0], axis=1)
        else:
            out = self.coeffs.copy()
        out[0] = out[0] + c
        return Jet(self.space, out)

    def _scale(self, c):
        if c.ndim == 1 and self.coeffs.ndim == 1:
            return Jet(self.space, self.coeffs[:, None] * c)
        return Jet(self.space, self.coeffs * c)

    # ---- calculus --------------------------------------------------------

    def partial(self, var):
        """Derivative with respect to variable ``var``; costs one degree."""
        if not 0 <= var < self.nvars:
            raise JetError(f"variable index {var} out of range for {self.nvars} variables")
        out_space = _one_below(self.space)
        src, fac = self.space.partial_table(var)
        f = fac if self.coeffs.ndim == 1 else fac[:, None]
        return Jet(out_space, self.coeffs[src] * f)

    def truncate(self, d):
        """Forget coefficients above degree d.  A prefix slice, never a copy."""
        if d == self.degree:
            return self
        if d > self.degree:
            raise DegreeExhaustedError(
                f"cannot extend a degree-{self.degree} jet to degree {d}"
            )
        space = jet_space(self.nvars, d)
        return Jet(space, self.coeffs[: space.ncoeffs])

    def coeff(self, alpha):
        """Raw Taylor coefficient of the monomial with exponents ``alpha``."""
        alpha = tuple(int(k) for k in alpha)
        if len(alpha) != self.nvars or any(k < 0 for k in alpha):
            raise JetError(f"bad multi-index {alpha} for {self.nvars} variables")
        if sum(alpha) > self.degree:
            raise DegreeExhaustedError(
                f"coefficient {alpha} has degree {sum(alpha)}, jet stores {self.degree}"
            )
        return self.coeffs[self.space.index[alpha]]

    def extract(self, alpha):
        """Mixed partial derivative at the expansion point: alpha! * coeff."""
        c = self.coeff(alpha)
        scale = 1.0
        for k in alpha:
            scale *= math.factorial(int(k))
        return c * scale


def constant(space, value):
    """Jet of a constant.  ``value`` may be a scalar or a (batch,) array."""
    value = _as_value(value)
    if value.ndim == 0:
        coeffs = np.zeros(space.ncoeffs)
    else:
        coeffs = np.zeros((space.ncoeffs, value.shape[0]))
    coeffs[0] = value
    return Jet(space, coeffs)


def seed_variable(space, var, value):
    """Jet of the coordinate function x_var expanded where it equals ``value``."""
    if not 0 <= var < space.nvars:
        raise JetError(f"variable index {var} out of range for {space.nvars} variables")
    if space.degree < 1:
        raise JetError("coordinate seeds need degree >= 1 to carry their linear term")
    j = constant(space, value)
    e = tuple(1 if k == var else 0 for k in range(space.nvars))
    j.coeffs[space.index[e]] = 1.0
    return j


# ---- elementary functions ----------------------------------------------
#
# Each is the composition of a one-variable Taylor series s_0 + s_1 w + ...
# with the offset jet w = a - a.value: the one-variable case of the
# substitution behind ``compose``.  Since w has no constant term, the series
# only needs degree+1 coefficients and the result is exact through the
# truncation degree.


def _series(a, coeffs_for):
    s = np.asarray(coeffs_for(a.value, a.degree))
    return Jet(a.space, _substitute([a], a.space, s[:, None])[0])


def exp(a):
    def series(a0, d):
        e = np.exp(a0)
        return [e / math.factorial(k) for k in range(d + 1)]

    return _series(a, series)


def log(a):
    def series(a0, d):
        if np.any(a0 <= 0.0):
            raise SingularFieldError("log of a nonpositive value")
        out = [np.log(a0)]
        for k in range(1, d + 1):
            out.append((-1.0) ** (k - 1) / (k * a0**k))
        return out

    return _series(a, series)


def sin(a):
    def series(a0, d):
        s, c = np.sin(a0), np.cos(a0)
        cyc = (s, c, -s, -c)
        return [cyc[k % 4] / math.factorial(k) for k in range(d + 1)]

    return _series(a, series)


def cos(a):
    def series(a0, d):
        s, c = np.sin(a0), np.cos(a0)
        cyc = (c, -s, -c, s)
        return [cyc[k % 4] / math.factorial(k) for k in range(d + 1)]

    return _series(a, series)


def powf(a, r):
    """a**r for a real exponent; the base value must be positive."""

    def series(a0, d):
        if np.any(a0 <= 0.0):
            raise SingularFieldError(f"power {r} of a nonpositive value")
        out = []
        b = 1.0  # running binom(r, k)
        for k in range(d + 1):
            out.append(b * a0 ** (r - k))
            b = b * (r - k) / (k + 1)
        return out

    return _series(a, series)


def sqrt(a):
    return powf(a, 0.5)


def recip(a):
    def series(a0, d):
        if np.min(np.abs(a0)) < _DIV_FLOOR:
            raise SingularFieldError("division by a vanishing value")
        inv = 1.0 / a0
        out = [inv]
        for k in range(1, d + 1):
            out.append(out[-1] * -inv)
        return out

    return _series(a, series)


def powi(a, n):
    """Integer power by binary exponentiation; negative n goes through recip."""
    n = int(n)
    if n < 0:
        return recip(powi(a, -n))
    out = None
    base = a
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out if out is not None else constant(a.space, 1.0)


@functools.lru_cache(maxsize=None)
def _monomial_parents(nvars, degree):
    """(index of alpha - e_j, j) for each alpha > 0 in graded order, j its first variable."""
    mi, index = jet_space(nvars, degree).mi[1:], jet_space(nvars, degree).index
    js = [next(k for k, e in enumerate(a) if e) for a in mi]
    return tuple((index[a[:j] + (a[j] - 1,) + a[j + 1 :]], j) for a, j in zip(mi, js))


def _same_every_point(c):
    """Whether a (rows, batch) array holds the same bits in every column
    (bits, so that -0.0 and +0.0 differ)."""
    v = c.view(np.int64)
    return bool((v == v[:, :1]).all())


def _substitute(args, space, C):
    """Coefficients, shape (nout, ncoeffs[, batch]), of sum_i C[i] w^alpha_i
    at the offsets w = args - args.value in ``space``.

    The monomials w^alpha are built grade by grade, each from a parent one
    grade down: one jet product each from grade 2 on, shared by all outers.
    ``C[i]``, shape (nout,) or (nout, batch), holds the outers' coefficients
    of the i-th monomial in graded order, and each outer sums its terms in
    that order, by one contraction over the used monomials
    (``BENCH_draw_batch.json``, "passes").

    An offset whose coefficients have the same bits at every point (a
    chart coordinate's, say) is kept as one unbatched column, and so are the
    monomials of such offsets alone: every kernel sums one column as it
    sums each column of a batch.
    """
    nc = space.ncoeffs
    w = []
    for b in args:
        c = b.coeffs[:nc]
        c = (c[:, 0] if c.ndim == 2 and _same_every_point(c[1:]) else c).copy()
        c[0] = 0.0
        w.append(Jet(space, c))
    batch = max([*C.shape[2:], *(n for b in args for n in b.coeffs.shape[1:])], default=0)
    C = C.reshape(C.shape[0], C.shape[1], -1)
    parents = _monomial_parents(len(w), space.degree)
    used = C.any(axis=(1, 2)).tolist()  # monomials some outer has a coefficient for
    idx = [i for i in range(1, len(used)) if used[i]]
    # the used monomials, one after another, written as they are made
    M = np.empty((len(idx), nc, batch or 1))
    slot = dict(zip(idx, range(len(idx))))
    needed = used[:]  # a used monomial or the parent of a needed one
    for i in range(len(parents), 0, -1):
        needed[parents[i - 1][0]] = needed[parents[i - 1][0]] or needed[i]
    mono = {}  # the monomials made, read as parents
    for i, (parent, j) in enumerate(parents, 1):
        if not needed[i]:
            continue
        m = w[j] if parent == 0 else mono[parent] * w[j]
        if used[i]:
            M[slot[i]] = m.coeffs.reshape(nc, -1)
            if m.batch is not None and parent:
                m = Jet(space, M[slot[i]])  # the product's own array goes
        mono[i] = m
    out = np.empty((C.shape[1], nc, batch or 1))
    if idx:
        # zeroes ``out`` and adds each outer's terms in monomial order, as a
        # loop of += from +0 would; a slice, not a copy, where every
        # monomial is used
        used_C = C[1 : len(idx) + 1] if idx[-1] == len(idx) else C[idx]
        np.einsum("iop,icp->ocp", used_C, M, out=out)
    else:
        out.fill(0.0)
    # a monomial's constant term is zero: coefficient 0 is C[0]
    out[:, 0] = C[0]
    return out if batch else out[:, :, 0]


def compose(outers, args):
    """Substitute inner jets into the Taylor polynomials of a stack of outers.

    ``outers`` is a packed tensor, or a list of jets that share one jet
    space.  ``args[j]`` is the expansion of the j-th outer variable as a jet
    over the inner variables.  Its constant term must be the point the outers
    were expanded about; only the offsets ``args[j] - args[j].value`` enter,
    so a mismatch is the caller's bug and is not detectable here.  The
    results are truncated to min(outer degree, inner degree): coefficients of
    an outer beyond its stored degree are unknown and would pollute anything
    higher.

    The offset monomials are built once for the whole stack (``_substitute``),
    and a packed tensor's coefficient array is read as the outers' as it is.
    Returns one jet per outer, or for a packed tensor the packed tensor of
    the results in its layout.
    """
    packed = isinstance(outers, Packed)
    outer_space = outers.space if packed else outers[0].space
    if not packed and any(o.space is not outer_space for o in outers):
        raise JetError("composed outer jets must share a single jet space")
    if len(args) != outer_space.nvars:
        raise JetError(f"outer jets have {outer_space.nvars} variables, got {len(args)} arguments")
    inner_space = args[0].space
    if any(b.space is not inner_space for b in args):
        raise JetError("composition arguments must share a single jet space")
    d = min(outer_space.degree, inner_space.degree)
    space = jet_space(inner_space.nvars, d)
    nc = outer_space.prefix_count(d)
    if packed:
        C = outers.dense(nc) if outers.batch else outers.coeffs[:nc, :, 0]
        out = _substitute(args, space, C)
        if out.ndim == 2:
            return Packed(space, out.T[:, :, None], None, outers.layout)
        return Packed(space, out.transpose(1, 0, 2), out.shape[2], outers.layout)
    C = [o.coeffs[:nc] for o in outers]
    if any(c.ndim == 2 for c in C):
        C = np.broadcast_arrays(*[c.reshape(nc, -1) for c in C])
    return [Jet(space, r) for r in _substitute(args, space, np.stack(C, axis=1))]
