"""Truncated multivariate Taylor expansions (jets) with batched coefficients.

A jet holds the Taylor coefficients of a smooth quantity about a point, up
to a fixed total degree, in a dense graded-lexicographic layout.  Arithmetic
is exact on the retained coefficients: operations never approximate, they
only truncate.  The coefficient array may carry a trailing batch axis so a
single jet represents the expansion of the same field at many points at
once; unbatched and batched operands mix freely.

Products are truncated Cauchy products over a cached pair table.  Small
batches (and unbatched jets) sum each target's pairs with one
``np.add.reduceat``; from ``_LAYERED_MIN_BATCH`` points on, the pairs are
added in layers, which avoids reduceat's slow per-segment walk over long
rows.  Layer r holds the r-th pair of every target with more than r pairs;
the accumulator keeps the targets sorted by pair count, so each layer is
added in place to one block of rows, with no scatter
(``BENCH_prefix_layers.json``).  The layered kernel adds each target's
pairs left to right; reduceat may group three or more of them differently,
so the two kernels agree to rounding, not bit for bit.

A contraction start + xs[0]*ys[0] + xs[1]*ys[1] + ... is one ``dot``, bit
for bit the loop of products and additions but with no jet per term, and
the contractions of a whole tensor are the rows of one ``dot_rows`` call,
of which ``dot`` is the one-row case.  A call may give a term position a
minus sign in every row: that term's x coefficients are negated, never its
product, as negating a product whose sum cancels to +0 would give -0.  Below
``_LAYERED_MIN_BATCH`` points the rows' operands are stacked chunk by chunk,
and one gather and one reduceat make the products of a chunk; reduceat
groups each target's pairs the same way whatever the trailing shape, so
stacking changes no bit.  From there on each row's products are layered
into one accumulator, and a term whose product is zero at every coefficient
and point (one operand all zero, the other all finite) is left out.  Adding
such a product turns a -0 sum into +0 and changes nothing else, so the row
is mended where its sum holds -0: by a left-out +0 term, or else by making
the left-out products after all.  The sum keeps the loop's bits, sign of
zero included (``BENCH_vanishing_terms.json``).

The jets of a whole tensor can be one ``Packed`` coefficient array
(ncoeffs, components, batch), holding only the components its builder
makes; its entries are jet views into the array, made once.  ``contract``
computes the rows of a contraction from two packed tensors and integer
tables of their components: below ``_LAYERED_MIN_BATCH`` points it gathers
the operands straight from the arrays into ``_dot_core``, the stacked
product and accumulate that ``dot_rows`` feeds with stacked nested rows; from
there on each row goes to ``_dot_layered`` on the tensors' views.
``mul_entries`` makes one product per entry of such arrays by the kernel a
jet product would take.  A component that is the same at every point (a
constant) is marked uniform: its view is unbatched and its work is done at
one point, as for an unbatched jet.

Composition substitutes inner jets into a stack of outer Taylor polynomials:
the monomials of the inner offsets are built once, one product each, and
every outer is a coefficient sum against them.  The elementary functions
are the one-variable case of the same substitution.  From
``_LAYERED_MIN_BATCH`` points on, an offset with the same bits at every
point (a chart coordinate's, under sin or cos) keeps one column, and its
monomials are built on that column by the layered kernel, which gives each
point the bits the full batch would (``BENCH_prefix_layers.json``,
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

# Batch size from which products use the layered kernel.  Below it the
# per-layer Python overhead can outweigh reduceat's per-segment cost: at 4-5
# variables and degrees 1-6 the layered kernel runs at 0.36-1.5x of reduceat's
# speed at 8 points and 0.73-4.5x at 64 (slower at degree 2 only); from 128 on
# it is faster everywhere, 1.1-6.7x at 128 (BENCH_prefix_layers.json,
# "kernels").  Moving the threshold would change how every product of a
# 64-127-point chunk is summed, so it stays.
_LAYERED_MIN_BATCH = 128

# Largest gathered array, in float64 elements (pairs x products x batch), that
# one stacked reduceat of ``dot_rows`` makes below ``_LAYERED_MIN_BATCH``.  At
# 8 points, 5 variables and degrees 0-4, the rows of a 6-55-entry tensor take
# 0.68x the time of one ``dot`` each at 2**14, against 0.93x at 2**12, 0.78x at
# 2**13 and 0.60-0.66x from 2**15 to 2**18 (geometric means;
# BENCH_dot_rows.json, "stack_bound" picks the smallest bound within 15% of
# the fastest).  Past 2**14 the end-to-end run gains nothing and holds more
# memory: paper-points read a median run_s of 2.51 s and peak RSS of 44.4 MB
# at 2**15 against 2.42 s and 43.9 MB at 2**14 (10 pairs each, same parent).
_STACK_ELEMENTS = 2**14

# Largest block, in float64 elements, of the elementwise work on a packed
# tensor (``fill``, ``point_blocks``): 2 MB, a few jets at a thousand points.
# Taking the points of a thousand-point tensor a block at a time keeps its
# intermediates near that size, not several times the tensor's: at 2**20,
# gauss-bonnet's peak RSS read 80-81 MB, at 2**18 75-77 MB, against 70-71 MB
# for nested jets (the maximum RSS of one process running six passes).
_BLOCK_ELEMENTS = 2**18

# -0.0 is the one float64 whose bits, read as an int64, are the least int64
_NEG_ZERO_BITS = np.iinfo(np.int64).min


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
        ``starts`` strictly increasing and reduceat's empty-segment quirk out
        of play.

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


def _cauchy_reduceat(space, ca, cb):
    """Truncated product of aligned coefficient arrays by one reduceat."""
    I, J, starts, _, _ = space.mul_table()
    return np.add.reduceat(ca[I] * cb[J], starts, axis=0)


def _cauchy_layered(space, ca, cb):
    """Truncated product of aligned coefficient arrays, by layers.

    Each layer's products are added in place to a block of rows of the
    accumulator (``JetSpace.mul_table``); the rows go back to graded order
    once at the end.  Every point is its own column, so an operand of one
    column gets the bits each column of a full batch would."""
    _, _, _, layers, order = space.mul_table()
    acc = ca[0] * (cb if order is None else cb[order[0]])
    for lo, I, J in layers:
        acc[lo:] += ca[I] * cb[J]
    return acc if order is None else acc[order[1]]


def _product(space, ca, cb):
    """Truncated product of aligned coefficient arrays by the kernel for their batch."""
    # two comparisons, not max(): this runs on every small product
    if ca.ndim == 2 and (ca.shape[1] >= _LAYERED_MIN_BATCH or cb.shape[1] >= _LAYERED_MIN_BATCH):
        return _cauchy_layered(space, ca, cb)
    return _cauchy_reduceat(space, ca, cb)


def _stack(cs, nc, B, mixed, negate=()):
    """(nc,) or (nc, B) coefficient arrays, both kinds if ``mixed``, as one
    (nc, len(cs), B) array.  ``negate``, a boolean per term, marks the
    terms negated when ``cs`` holds rows of len(negate) terms one after
    another.  They are negated before the transpose, where each term's
    coefficients are one contiguous block, as a masked negation after it
    would loop over the short batch axis.  The negation is masked, not one
    in-place np.negative per term: in numpy 2.4 that reads the wrong
    elements of a view whose stride is eight float64s, the layout of one of
    eight terms of one coefficient at one point."""
    if mixed:
        a = np.empty((len(cs), nc, B))
        for i, c in enumerate(cs):
            a[i] = c.reshape(nc, -1)
    else:
        a = np.concatenate(cs)
    if negate and all(negate):
        np.negative(a, out=a)
    elif any(negate):
        terms = a.reshape(-1, len(negate), nc * B)
        np.negative(terms, out=terms, where=np.array(negate)[:, None])
    return np.ascontiguousarray(a.reshape(len(cs), nc, B).transpose(1, 0, 2))


def _operands(xs, ys, start):
    """(space, batch or None, mixed, coefficients [start, *xs, *ys]) of one
    row of ``dot_rows``: the space is the lowest-degree operand's, every
    operand is truncated to it, and ``mixed`` says whether batched and
    unbatched operands meet."""
    m = len(xs)
    if len(ys) != m or not m:
        raise JetError(f"dot needs as many xs as ys, and one at least: got {m} and {len(ys)}")
    ops = [*xs, *ys] if start is None else [start, *xs, *ys]
    spaces = {j.space for j in ops}
    if len(spaces) == 1:
        (space,) = spaces
        cs = [j.coeffs for j in ops]
    else:
        if len({sp.nvars for sp in spaces}) > 1:
            raise JetError("jets live over different variables")
        space = min(spaces, key=lambda sp: sp.degree)
        cs = [j.coeffs[: space.ncoeffs] for j in ops]
    shapes = {c.shape for c in cs}
    batches = {s[1] for s in shapes if len(s) == 2}
    if len(batches) > 1:
        raise JetError(f"batch sizes differ: {sorted(batches)}")
    return space, (batches.pop() if batches else None), len(shapes) > 1, cs


def _stack_plan(space, B, m):
    """(rows, terms): how many rows of m terms at B points one chunk of
    ``dot_rows`` stacks, and how many of a row's terms one gather takes, so
    that the gathered array holds at most ``_STACK_ELEMENTS`` elements, or
    one product's where a single product is larger."""
    products = max(1, _STACK_ELEMENTS // (space.mul_table()[0].size * B))
    return max(1, products // m), min(m, products)


def _dot_core(space, X, Y, S, step):
    """The sums of stacked rows below ``_LAYERED_MIN_BATCH`` points, as
    (ncoeffs, rows, B): X and Y (ncoeffs, rows, terms, B) hold each row's
    operands, X already carrying the terms' signs, and S (ncoeffs, rows, B)
    their starts or is None.  One gather and one reduceat make the products
    of ``step`` terms at a time; one accumulate adds each row's in order,
    after its start.  ``dot_rows`` stacks nested rows into it and
    ``contract`` gathers packed ones."""
    nc, r, m, B = X.shape
    I, J, starts, _, _ = space.mul_table()
    k = int(S is not None)
    terms = np.empty((nc, r, k + m, B))
    if k:
        terms[:, :, 0] = S
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        P = X[:, :, lo:hi][I]
        P *= Y[:, :, lo:hi][J]
        np.add.reduceat(P, starts, axis=0, out=terms[:, :, k + lo : k + hi])
    np.add.accumulate(terms, axis=2, out=terms)
    return terms[:, :, -1]


def _dot_stacked(space, B, rows, k, mixed, negate):
    """The rows' sums below ``_LAYERED_MIN_BATCH`` points, as (len(rows),
    ncoeffs, B): the operands are stacked (ncoeffs, rows, terms, B), the xs
    marked in ``negate`` negated as they are stacked, and summed by
    ``_dot_core``, after each row's start if k is 1."""
    nc, r, m = space.ncoeffs, len(rows), (len(rows[0]) - k) // 2
    X = _stack([c for cs in rows for c in cs[k : k + m]], nc, B, mixed, negate)
    Y = _stack([c for cs in rows for c in cs[k + m :]], nc, B, mixed)
    S = _stack([cs[0] for cs in rows], nc, B, mixed) if k else None
    sums = _dot_core(space, X.reshape(nc, r, m, B), Y.reshape(nc, r, m, B), S,
                     _stack_plan(space, B, m)[1])
    return sums.transpose(1, 0, 2).copy()


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
    operand by truncation and id for one ``dot_rows`` call, and holds the
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


def dot_rows(rows, negate=None):
    """[dot(xs, ys, start, negate) for xs, ys, start in rows], bit for bit,
    for rows with the same number of terms m.  ``negate``, m booleans or None
    for none, marks the terms whose x coefficients are negated, never their
    products, in every row.

    Below ``_LAYERED_MIN_BATCH`` points, consecutive rows over one space and
    batch, all with a start or all without, are stacked chunk by chunk
    (``_dot_stacked``, ``_stack_plan``), so the rows of a whole tensor cost
    a few gathers and reduceats, not one each.  From there on each row is
    taken from ``rows`` when it is reached and layered on its own, leaving
    out the terms whose products vanish (``_dot_layered``), so an iterator
    of rows keeps one row's starts alive at a time.  Its xs and ys are held
    until the call returns, so that each is checked for zeros once."""
    out, chunk, key, m, memo = [], [], None, None, {}

    def flush():
        space, batch, k = key
        sums = _dot_stacked(space, batch or 1, [cs for cs, _ in chunk], k,
                            any(mx for _, mx in chunk), negate)
        out.extend(Jet(space, s if batch else s[:, 0]) for s in sums)
        chunk.clear()

    for xs, ys, start in rows:
        if m is None:
            m = len(xs)
            negate = (False,) * m if negate is None else tuple(negate)
            if len(negate) != m:
                raise JetError(f"dot_rows needs one sign per term: got {len(negate)} for {m}")
        elif len(xs) != m:
            raise JetError(f"dot_rows needs rows of one length: got {m} and {len(xs)} terms")
        space, batch, mixed, cs = _operands(xs, ys, start)
        k = int(start is not None)
        if chunk and ((space, batch, k) != key or len(chunk) == limit):
            flush()
        if batch is not None and batch >= _LAYERED_MIN_BATCH:
            gone = _vanishing(memo, xs, ys, cs[k:])
            out.append(Jet(space, _dot_layered(space, batch, cs, k, negate, gone)))
            continue
        if not chunk:
            key, limit = (space, batch, k), _stack_plan(space, batch or 1, m)[0]
        chunk.append((cs, mixed))
    if chunk:
        flush()
    return out


def dot(xs, ys, start=None, negate=None):
    """start + xs[0]*ys[0] + xs[1]*ys[1] + ..., summed left to right, at the
    lowest degree among the operands: bit-identical to that loop of products
    and additions, with no jet per term, and with the xs marked in ``negate``
    negated (their coefficients, never the products).  From
    ``_LAYERED_MIN_BATCH`` points on, a term with an all-zero operand
    against an all-finite one makes no product where the loop's bits do
    not need it.  The one-row case of ``dot_rows``."""
    return dot_rows([(xs, ys, start)], negate)[0]


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
    an unbatched one into ``fixed``, made once.  A ``Layout`` places the
    components in the tensor; with one the list holds the nested entries, so
    ``t[i][j]`` indexes the tensor as nested jets do.  Without one the list
    is empty.
    """

    __slots__ = ("space", "coeffs", "batch", "layout", "uniform", "fixed", "_views")

    def __init__(self, space, coeffs, batch, layout=None, uniform=None, fixed=None):
        super().__init__()
        if batch is None or uniform is None or not uniform.any():
            uniform = fixed = None
        elif fixed is None:  # every slot holds its component
            fixed = coeffs[:, :, 0]
        self.space, self.coeffs, self.batch, self.layout = space, coeffs, batch, layout
        self.uniform, self.fixed = uniform, fixed
        self._views = None
        if layout is not None:
            self.extend(layout.nest(self.views, space))

    @property
    def views(self):
        if self._views is None:
            c = self.coeffs if self.batch else self.coeffs[:, :, 0]
            narrow = self.narrow().tolist()
            self._views = [Jet(self.space, self.fixed[:, k] if n else c[:, k])
                           for k, n in enumerate(narrow)]
        return self._views

    def laid_out(self, layout):
        """The same components placed by ``layout``."""
        return Packed(self.space, self.coeffs, self.batch, layout, self.uniform, self.fixed)

    def narrow(self):
        """``uniform`` as a boolean per component, all False for None."""
        return np.zeros(self.coeffs.shape[1], bool) if self.uniform is None else self.uniform

    def take(self, k, w, rows=slice(None)):
        """The coefficients ``rows`` (a slice or an index array) of the
        components ``k`` at w points, 1 or the batch, as (rows, len(k), w):
        a uniform component's broadcast from its one point."""
        r = rows if isinstance(rows, slice) else rows[:, None]
        u = self.narrow()[k]
        if u.all() and w == 1:
            return self.fixed[r, k][..., None]
        out = self.coeffs[r, k, :w]
        if u.any():
            out[:, u] = self.fixed[r, k[u]][..., None]
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
                      uniform=self.uniform, fixed=self.fixed)

    def partials(self, wanted):
        """The first partials of the components ``wanted[var]`` along each
        var, one gather per variable, as one ``Packed`` tensor without a
        layout, in that order: bit for bit ``Jet.partial`` of each
        component's jet."""
        if self.space.degree == 0:
            raise DegreeExhaustedError(
                "cannot differentiate a degree-0 jet; request a higher working degree"
            )
        space = jet_space(self.space.nvars, self.space.degree - 1)
        count = sum(map(len, wanted))
        out, fixed = empty(space.ncoeffs, count, self.coeffs.shape[2]), np.empty((space.ncoeffs, count))
        narrow, lo = [], 0
        for var, comps in enumerate(wanted):
            src, fac = self.space.partial_table(var)
            comps = np.asarray(comps, dtype=np.intp)
            narrow.append(self.narrow()[comps])
            sl = slice(lo, lo + len(comps))
            fill(out[:, sl], fixed[:, sl], narrow[-1],
                  lambda k, w: self.take(comps[k], w, src) * fac[:, None, None])
            lo += len(comps)
        return Packed(space, out, self.batch, uniform=np.concatenate(narrow), fixed=fixed)


def fill(out, fixed, narrow, values):
    """out[:, k] = values(k, w) for the components k of ``out``, an (ncoeffs,
    components, batch) array, a block at a time (``_blocks``); a component
    marked in ``narrow`` holds the same coefficients at every point and is
    made at one point (w = 1) into ``fixed`` instead."""
    nc, _, B = out.shape
    for k in (np.flatnonzero(~narrow)[s] for s in _blocks(int((~narrow).sum()), nc * B)):
        if len(k) == 1:  # a view of the component, not a scatter
            out[:, k[0]] = values(k, B)[:, 0]
        else:
            out[:, k] = values(k, B)
    k = np.flatnonzero(narrow)
    if len(k):
        fixed[:, k] = values(k, 1)[:, :, 0]


def filled(space, count, batch, narrow, values, layout=None):
    """The ``Packed`` tensor of ``count`` components in ``space`` whose
    components k at w points (1 for those marked ``narrow``, else the
    batch) are values(k, w), made a block at a time (``fill``)."""
    out = empty(space.ncoeffs, count, batch or 1)
    fixed = np.empty((space.ncoeffs, count))
    fill(out, fixed, narrow, values)
    return Packed(space, out, batch, layout, narrow, fixed)


class Layout:
    """Where the components of a ``Packed`` tensor sit: the entry at index
    ix is ``sign[ix]`` times component ``pos[ix]``, or +0 where ``pos[ix]``
    is -1 (``sign`` all +1 if omitted)."""

    __slots__ = ("pos", "sign", "_negated", "_zero", "_recipe")

    def __init__(self, pos, sign=None):
        self.pos = pos
        self.sign = np.ones_like(pos) if sign is None else sign
        flat = list(zip(pos.ravel().tolist(), self.sign.ravel().tolist()))
        count = int(pos.max()) + 1
        self._negated = sorted({c for c, s in flat if c >= 0 and s < 0})
        slot = {c: count + i for i, c in enumerate(self._negated)}
        self._zero = any(c < 0 for c, _ in flat)
        zero = count + len(self._negated)
        self._recipe = [zero if c < 0 else c if s > 0 else slot[c] for c, s in flat]

    def nest(self, views, space):
        """The nested entries over the component views: a view, its negation
        (one copy per component) or one constant zero."""
        entries = views + [-views[c] for c in self._negated]
        if self._zero:
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
        if uniform[c] and batch is not None:
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
    batch) coefficient arrays in ``space``, each by the kernel the product
    of two jets would take, so bit for bit a jet product per entry; either
    side may hold one entry or one point for all.  Below
    ``_LAYERED_MIN_BATCH`` points one reduceat makes every entry's product;
    from there on each entry is layered on its own, as one layered product
    per whole array outgrows the cache.  The entries marked in ``narrow``
    have operands that hold the same coefficients at every point; their
    products are made at one point and broadcast."""
    B = max(ca.shape[2], cb.shape[2])
    if B < _LAYERED_MIN_BATCH:
        return _cauchy_reduceat(space, ca, cb)
    ea, eb = ca.shape[1] - 1, cb.shape[1] - 1
    out = empty(space.ncoeffs, max(ea, eb) + 1, B)
    for e in range(out.shape[1]):
        x, y = ca[:, min(e, ea)], cb[:, min(e, eb)]
        if narrow is not None and narrow[e]:
            out[:, e] = _cauchy_reduceat(space, x[:, 0], y[:, 0])[:, None]
        else:
            out[:, e] = _cauchy_layered(space, x, y)
    return out


def _blocks(count, size):
    """Consecutive slices of ``count`` components of ``size`` elements each,
    each slice holding at most ``_BLOCK_ELEMENTS`` elements, or one
    component: elementwise work on a whole tensor goes block by block."""
    step = max(1, _BLOCK_ELEMENTS // size)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def point_blocks(B, size):
    """Consecutive slices of B points, each holding at most
    ``_BLOCK_ELEMENTS`` elements of ``size`` per point (one point at least).
    Elementwise work whose intermediates are larger than its result goes a
    block of points at a time, so that at a thousand points its
    intermediates take no more than its result."""
    step = max(1, _BLOCK_ELEMENTS // size)
    return [slice(lo, min(lo + step, B)) for lo in range(0, B, step)]


def empty(nc, count, B):
    """An uninitialised (nc, count, B) coefficient array of ``count``
    components, each one contiguous block, as a jet's coefficients are."""
    return np.empty((count, nc, B)).transpose(1, 0, 2)


def _source(tensors, nc, B, signed=False, zero=False):
    """The components of ``tensors`` one after another, at ``nc``
    coefficients and B points, then their negations if ``signed``, then one
    +0 component if ``zero``, as one (nc, components, B) array to gather
    from."""
    parts = [np.broadcast_to(t.dense(nc), (nc, t.coeffs.shape[1], B)) for t in tensors]
    if signed:
        parts += [-p for p in parts]
    if zero:
        parts.append(np.zeros((nc, 1, B)))
    return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]


def contract(x, xi, y, yi, start=None, negate=None):
    """Rows r of start_r + sum_t x_(xi[r, t]) * y_(yi[r, t]), summed left to
    right, bit for bit ``dot_rows`` of those rows of jets, as a ``Packed``
    tensor with one component per row.

    ``x`` and ``y`` are ``Packed`` tensors, or tuples of them whose
    components are numbered one tensor after another; ``xi`` and ``yi`` are
    (rows, terms) integer tables of component numbers, -1 for +0, which
    only ``yi`` may hold.  ``negate``, a (rows, terms) boolean table or
    None, marks the terms whose x coefficients are negated; ``start`` is a
    ``Packed`` tensor of one component per row, or None.  The sums are at
    the lowest degree among the operands.  A row whose operands are all
    uniform is uniform too.

    Below ``_LAYERED_MIN_BATCH`` points the operands are gathered straight
    from the coefficient arrays, the negated x's from their negation, chunk
    by chunk (``_stack_plan``), and summed by ``_dot_core``.  From there on
    each row's terms are the tensors' views, and each row is layered on its
    own with its vanishing terms left out (``_dot_layered``), as in
    ``dot_rows``; a uniform row at one point."""
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
        out[:, sl] = _dot_core(space, X[:, xi[sl]], Y[:, yi[sl]], S[:, sl] if k else None, step)
    return Packed(space, out, batch, uniform=narrow)


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
        if self.degree == 0:
            raise DegreeExhaustedError(
                "cannot differentiate a degree-0 jet; request a higher working degree"
            )
        src, fac = self.space.partial_table(var)
        out_space = jet_space(self.nvars, self.degree - 1)
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

    When every arg has ``_LAYERED_MIN_BATCH`` points or more, an offset
    whose coefficients have the same bits at every point (a chart
    coordinate's, say) is kept as one unbatched column, and monomials of
    such offsets alone are built on that column by the layered kernel.
    That kernel works point by point, so each point gets the bits the full
    batch would.  Below the threshold reduceat makes the products, and it
    sums one column differently, so nothing is narrowed there.
    """
    nc = space.ncoeffs
    narrow = all(b.batch is not None and b.batch >= _LAYERED_MIN_BATCH for b in args)
    w = []
    for b in args:
        c = b.coeffs[:nc]
        c = (c[:, 0] if narrow and _same_every_point(c[1:]) else c).copy()
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
        if parent == 0:
            m = w[j]
        elif narrow and mono[parent].batch is None and w[j].batch is None:
            m = Jet(space, _cauchy_layered(space, mono[parent].coeffs, w[j].coeffs))
        else:
            m = mono[parent] * w[j]
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

    ``outers`` share one jet space.  ``args[j]`` is the expansion of the j-th
    outer variable as a jet over the inner variables.  Its constant term must
    be the point the outers were expanded about; only the offsets
    ``args[j] - args[j].value`` enter, so a mismatch is the caller's bug and
    is not detectable here.  The results are truncated to min(outer degree,
    inner degree): coefficients of an outer beyond its stored degree are
    unknown and would pollute anything higher.

    The offset monomials are built once for the whole stack (``_substitute``).
    Returns one jet per outer.
    """
    outer_space = outers[0].space
    if any(o.space is not outer_space for o in outers):
        raise JetError("composed outer jets must share a single jet space")
    if len(args) != outer_space.nvars:
        raise JetError(f"outer jets have {outer_space.nvars} variables, got {len(args)} arguments")
    inner_space = args[0].space
    if any(b.space is not inner_space for b in args):
        raise JetError("composition arguments must share a single jet space")
    d = min(outer_space.degree, inner_space.degree)
    space = jet_space(inner_space.nvars, d)
    nc = outer_space.prefix_count(d)
    C = [o.coeffs[:nc] for o in outers]
    if any(c.ndim == 2 for c in C):
        C = np.broadcast_arrays(*[c.reshape(nc, -1) for c in C])
    return [Jet(space, r) for r in _substitute(args, space, np.stack(C, axis=1))]
