"""Charge every Jet product of one chunk to the innermost cached build.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/products_by_build.py SCENARIO FIELD [--points N]

SCENARIO is a catalog name (``extrinsic-q list-scenarios``).  FIELD is one of
the scalar operators that take no input function (q2, q4, ext_q2, ext_q3,
ext_q4_umbilic, c_invariant), or ``total_q4``, the integrand of the total
critical Q4 (``integrand_i1 + integrand_i2 + integrand_i3``).

The script evaluates FIELD at degree 0 on one fresh context holding the first
N points (default 1024) of the scenario's default verify quadrature rule, as
``integrate`` does for one chunk.  Each product of two jets is charged to the
innermost ``GeometryContext.get`` build running when it is made, named by
(context kind, cache key, degree): the kind is ``surface`` for the induced
metric of an embedded scenario and ``metric`` otherwise (the ambient context
of an embedded scenario, or an intrinsic one), and assembled operator fields
share the key ``field``.  Each term of each row of a ``jets.contract`` call
counts as one product, and the time of the whole call is charged with it,
as does each entry of a ``jets.mul_entries`` call (which ``jets.products``
and ``jets.times`` make).  The terms that a row of 128 points or more
leaves out because their products vanish (``jets._vanishing``) still count
as products, and once more in a column of their own, "left_out"; so do
the products of a pivot-row zero that the inverse's elimination leaves out
there (``geometry._eliminate``).  Series expansions are counted per build
in the same way, as perfbench's tracer counts them: each call of a jets
series function, directly or through the expression language's
function table ``exprlang._FUNCS``, counts once, and one made inside another
(sqrt calls powf) does not count.  Products and series made outside any build
are charged to ``(none)``.  It prints one line per build with its products,
its series, the time of its products and its terms left out, most time
first, then the totals and the wall time of the evaluation.  A last line gives the same totals for a
second context on the same points that shares the first one's degree plan,
as each later chunk of ``integrate`` does: it builds each quantity once, at
the deepest degree the first context asked for.

Exit status: 0 on a result, 2 on a bad scenario, field or point count, or a
point outside the field's domain.
"""

import argparse
import sys
import time
from collections import defaultdict

from extrinsicq import exprlang, geometry, jets
from extrinsicq import hypersurface as hs
from extrinsicq import operators as ops
from extrinsicq.geometry import DegreePlan, GeometryContext, jet_values
from extrinsicq.scenarios import ScenarioError, parse_scenario
from extrinsicq.verify import ConfigError, Quadrature, VerifyConfig

NONE = ("-", "(none)", "-")
SERIES = ("exp", "log", "sin", "cos", "powf", "sqrt", "recip")


# the curvatures of the operator table, which take no input function, and the
# total-Q4 integrand: {name: (factory, needs an embedded scenario)}
FIELDS = {name: (op.factory, op.embedded) for name, op in ops.OPERATORS.items() if op.order is None}
FIELDS["total_q4"] = (lambda: ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3(), True)


def _field(name, scn):
    if name not in FIELDS:
        raise ConfigError(f"field: unknown field {name!r} (known: {', '.join(FIELDS)})")
    factory, embedded = FIELDS[name]
    if embedded and scn.kind != "embedded":
        raise ConfigError(f"field: {name} needs an embedded scenario, {scn.name} is intrinsic")
    return factory()


def charge(field, ctx):
    """Evaluate ``field`` on ``ctx``; return ({build: [products, series,
    seconds, terms left out]}, wall seconds)."""
    table = defaultdict(lambda: [0, 0, 0.0, 0])
    stack = []
    get, mul = GeometryContext.get, jets.Jet.__mul__
    contract, mul_entries = jets.contract, jets.mul_entries
    vanishing = jets._vanishing
    eliminate = geometry._eliminate
    series = {name: getattr(jets, name) for name in SERIES}
    funcs = dict(exprlang._FUNCS)
    depth = [0]

    def traced_get(c, key, d, build):
        kind = "surface" if isinstance(c, hs.EmbeddedSurfaceContext) else "metric"
        name = "field" if isinstance(key, tuple) else str(key)

        def traced_build(dd):
            stack.append((kind, name, dd))
            try:
                return build(dd)
            finally:
                stack.pop()

        return get(c, key, d, traced_build)

    def counted(products, fn, *args):
        """fn(*args), its time and ``products()`` products charged once it returns."""
        t0 = time.perf_counter()
        out = fn(*args)
        row = table[stack[-1] if stack else NONE]
        row[0] += products()
        row[2] += time.perf_counter() - t0
        return out

    def counted_series(fn):
        def call(*args):
            if depth[0] == 0:
                table[stack[-1] if stack else NONE][1] += 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return call

    def counted_mul(a, b):
        if not isinstance(b, jets.Jet):
            return mul(a, b)
        return counted(lambda: 1, mul, a, b)

    def counted_contract(x, xi, *args):
        return counted(lambda: xi.size, contract, x, xi, *args)

    def counted_mul_entries(space, ca, cb, *args):
        return counted(lambda: max(ca.shape[1], cb.shape[1]), mul_entries, space, ca, cb, *args)

    def counted_vanishing(*args):
        out = vanishing(*args)
        table[stack[-1] if stack else NONE][3] += len(out)
        return out

    def counted_eliminate(sp, a, *args):
        # the row's products its mul_entries call did not make were left out
        row = table[stack[-1] if stack else NONE]
        made = row[0]
        eliminate(sp, a, *args)
        gone = a.shape[2] - (row[0] - made)
        row[0] += gone
        row[3] += gone

    GeometryContext.get = traced_get
    jets.Jet.__mul__ = jets.Jet.__rmul__ = counted_mul
    jets.contract, jets.mul_entries = counted_contract, counted_mul_entries
    jets._vanishing = counted_vanishing
    geometry._eliminate = counted_eliminate
    for name, fn in series.items():
        setattr(jets, name, counted_series(fn))
    exprlang._FUNCS.update({name: getattr(jets, name) for name in funcs})
    try:
        t0 = time.perf_counter()
        jet_values(field(ctx, 0), ctx.nbatch)
        wall = time.perf_counter() - t0
    finally:
        GeometryContext.get = get
        jets.Jet.__mul__ = jets.Jet.__rmul__ = mul
        jets.contract, jets.mul_entries = contract, mul_entries
        jets._vanishing = vanishing
        geometry._eliminate = eliminate
        for name, fn in series.items():
            setattr(jets, name, fn)
        exprlang._FUNCS.update(funcs)
    return dict(table), wall


def _totals(table):
    return tuple(sum(r[k] for r in table.values()) for k in range(4))


def main(argv):
    ap = argparse.ArgumentParser(
        prog="products_by_build.py",
        description="Jet products and their time per innermost cached build, on one chunk.",
    )
    ap.add_argument("scenario", help="catalog name, e.g. GRAPH(T4_IN_PERT_T5)")
    ap.add_argument("field", help=", ".join(FIELDS))
    ap.add_argument("--points", type=int, default=1024, help="chunk size (default 1024)")
    args = ap.parse_args(argv)
    try:
        if args.points < 1:
            raise ConfigError(f"points: need at least one, got {args.points}")
        scn = parse_scenario(args.scenario)
        field = _field(args.field, scn)
        cfg = VerifyConfig()
        quad = Quadrature(scn.chart, cfg.nodes, cfg.gauss_nodes)
        pts, plan = quad.points[:, : args.points], DegreePlan(cfg.degree)
        ctx = scn.context(pts, cfg.degree, plan)
        table, wall = charge(field, ctx)
        second, second_wall = charge(field, scn.context(pts, cfg.degree, plan))
    except (ConfigError, ScenarioError, jets.JetError, jets.SingularFieldError,
            ops.NonUmbilicError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{scn.name}  {args.field}  {ctx.nbatch} points")
    print(f"{'kind':<8} {'key':<20} {'degree':>6} {'products':>9} {'series':>7} {'seconds':>9} "
          f"{'left_out':>9}")
    rows = sorted(table.items(), key=lambda kv: -kv[1][2])
    for (kind, key, d), (count, nseries, secs, gone) in rows:
        print(f"{kind:<8} {key:<20} {d!s:>6} {count:>9} {nseries:>7} {secs:>9.4f} {gone:>9}")
    count, nseries, secs, gone = _totals(table)
    print(f"{'total':<8} {'':<20} {'':>6} {count:>9} {nseries:>7} {secs:>9.4f} {gone:>9}")
    print(f"wall {wall:.4f} s")
    count, nseries, secs, gone = _totals(second)
    print(f"second context on the same plan: {count} products, {nseries} series, "
          f"{gone} left out, {secs:.4f} s, wall {second_wall:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
