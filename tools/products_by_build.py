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
share the key ``field``.  Each term of a ``jets.dot`` counts as one product,
and the time of the whole call is charged with it.  So does each monomial
product that ``jets.compose`` makes on one unbatched column, the only caller
that hands ``jets._cauchy_layered`` a 1-d operand.  Products made outside any
build are charged to ``(none)``.  It prints one line per build with its products and their time,
most time first, then the totals and the wall time of the evaluation.

Exit status: 0 on a result, 2 on a bad scenario, field or point count, or a
point outside the field's domain.
"""

import argparse
import sys
import time
from collections import defaultdict

from extrinsicq import cli, jets
from extrinsicq import hypersurface as hs
from extrinsicq import operators as ops
from extrinsicq.geometry import GeometryContext, jet_values
from extrinsicq.scenarios import ScenarioError, parse_scenario
from extrinsicq.verify import ConfigError, Quadrature, VerifyConfig

NONE = ("-", "(none)", "-")


def _field(name, scn):
    if name == "total_q4":
        if scn.kind != "embedded":
            raise ConfigError(f"field: total_q4 needs an embedded scenario, {scn.name} is intrinsic")
        return ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()
    return cli._resolve_op(name, None, scn)


def charge(field, ctx):
    """Evaluate ``field`` on ``ctx``; return ({build: [products, seconds]}, wall seconds)."""
    table = defaultdict(lambda: [0, 0.0])
    stack = []
    get, mul, dot = GeometryContext.get, jets.Jet.__mul__, jets.dot
    layered = jets._cauchy_layered

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
        t0 = time.perf_counter()
        out = fn(*args)
        row = table[stack[-1] if stack else NONE]
        row[0] += products
        row[1] += time.perf_counter() - t0
        return out

    def counted_mul(a, b):
        if not isinstance(b, jets.Jet):
            return mul(a, b)
        return counted(1, mul, a, b)

    def counted_dot(xs, ys, start=None):
        return counted(len(xs), dot, xs, ys, start)

    def counted_layered(space, ca, cb):
        if ca.ndim != 1:  # a batched product, already counted by its caller
            return layered(space, ca, cb)
        return counted(1, layered, space, ca, cb)

    GeometryContext.get = traced_get
    jets.Jet.__mul__ = jets.Jet.__rmul__ = counted_mul
    jets.dot = counted_dot
    jets._cauchy_layered = counted_layered
    try:
        t0 = time.perf_counter()
        jet_values(field(ctx, 0), ctx.nbatch)
        wall = time.perf_counter() - t0
    finally:
        GeometryContext.get = get
        jets.Jet.__mul__ = jets.Jet.__rmul__ = mul
        jets.dot = dot
        jets._cauchy_layered = layered
    return dict(table), wall


def main(argv):
    ap = argparse.ArgumentParser(
        prog="products_by_build.py",
        description="Jet products and their time per innermost cached build, on one chunk.",
    )
    ap.add_argument("scenario", help="catalog name, e.g. GRAPH(T4_IN_PERT_T5)")
    ap.add_argument("field", help="q2, q4, ext_q2, ext_q3, ext_q4_umbilic, c_invariant or total_q4")
    ap.add_argument("--points", type=int, default=1024, help="chunk size (default 1024)")
    args = ap.parse_args(argv)
    try:
        if args.points < 1:
            raise ConfigError(f"points: need at least one, got {args.points}")
        scn = parse_scenario(args.scenario)
        field = _field(args.field, scn)
        cfg = VerifyConfig()
        quad = Quadrature(scn.chart, cfg.nodes, cfg.gauss_nodes)
        ctx = scn.context(quad.points[:, : args.points], degree_cap=cfg.degree)
        table, wall = charge(field, ctx)
    except (ConfigError, ScenarioError, jets.JetError, jets.SingularFieldError,
            ops.NonUmbilicError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{scn.name}  {args.field}  {ctx.nbatch} points")
    print(f"{'kind':<8} {'key':<20} {'degree':>6} {'products':>9} {'seconds':>9}")
    rows = sorted(table.items(), key=lambda kv: -kv[1][1])
    for (kind, key, d), (count, secs) in rows:
        print(f"{kind:<8} {key:<20} {d!s:>6} {count:>9} {secs:>9.4f}")
    count = sum(r[0] for r in table.values())
    secs = sum(r[1] for r in table.values())
    print(f"{'total':<8} {'':<20} {'':>6} {count:>9} {secs:>9.4f}")
    print(f"wall {wall:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
