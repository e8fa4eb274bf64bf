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


def _dot_stacked(space, B, rows, k, mixed, negate):
    """The rows' sums below ``_LAYERED_MIN_BATCH`` points, as (len(rows),
    ncoeffs, B): the operands are stacked (ncoeffs, rows, terms, B), the xs
    marked in ``negate`` negated as they are stacked, one gather and one
    reduceat make the products, one accumulate adds each row's in order,
    after its start if k is 1."""
    nc, r, m = space.ncoeffs, len(rows), (len(rows[0]) - k) // 2
    I, J, starts, _, _ = space.mul_table()
    terms = np.empty((nc, r, k + m, B))
    if k:
        terms[:, :, 0] = _stack([cs[0] for cs in rows], nc, B, mixed)
    step = _stack_plan(space, B, m)[1]
    for lo in range(k, k + m, step):
        hi = min(lo + step, k + m)
        xs = [c for cs in rows for c in cs[lo:hi]]
        ys = [c for cs in rows for c in cs[m + lo : m + hi]]
        X = _stack(xs, nc, B, mixed, negate[lo - k : hi - k]).reshape(nc, r, hi - lo, B)
        Y = _stack(ys, nc, B, mixed).reshape(nc, r, hi - lo, B)
        P = X[I]
        P *= Y[J]
        np.add.reduceat(P, starts, axis=0, out=terms[:, :, lo:hi])
    np.add.accumulate(terms, axis=2, out=terms)
    return terms[:, :, -1].transpose(1, 0, 2).copy()


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
    used = C.any(axis=(1, 2)).tolist()  # monomials some outer has a coefficient for
    out = np.zeros((C.shape[1], nc, batch or 1))
    out[:, 0] = C[0]
    mono = [None]  # the constant 1: grade-1 monomials are w itself
    for i, (parent, j) in enumerate(_monomial_parents(len(w), space.degree), 1):
        if parent == 0:
            m = w[j]
        elif narrow and mono[parent].batch is None and w[j].batch is None:
            m = Jet(space, _cauchy_layered(space, mono[parent].coeffs, w[j].coeffs))
        else:
            m = mono[parent] * w[j]
        mono.append(m)
    # a monomial's constant term is zero: coefficient 0 stays C[0]
    idx = [i for i in range(1, len(mono)) if used[i]]
    if idx:
        shape = (nc - 1, batch or 1)
        M = np.stack([np.broadcast_to(mono[i].coeffs[1:].reshape(nc - 1, -1), shape) for i in idx])
        # zeroes ``out`` and adds each outer's terms in monomial order, as a
        # loop of += from +0 would
        np.einsum("iop,icp->ocp", C[idx], M, out=out[:, 1:])
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
