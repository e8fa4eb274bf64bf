"""Command line front end, installed as ``extrinsic-q``.

Subcommands:

    verify          run identity-check suites, stream results, write a report
    curvature       intrinsic curvature data of a scenario at a point
    extrinsic       hypersurface data of an embedded scenario at a point
    apply           apply a named operator at a point
    integrate       integrate an expression or a scalar operator over a scenario
    list-scenarios  print the built-in catalog

Exit codes: 0 when everything ran and every check passed, 1 when at least
one verification check failed, 2 for configuration or infrastructure
errors (bad flags, malformed expressions, umbilicity violations, exhausted
jet degree) and for points outside a field's domain (a singular metric, the
log of a nonpositive value).
"""

import argparse
import json
import math
import re
import sys

import numpy as np
import yaml

from . import curvature, verify
from . import hypersurface as hs
from . import operators as ops
from .exprlang import ExprError, parse_expression
from .geometry import expression_field, jet_values
from .jets import JetError, SingularFieldError
from .operators import NonUmbilicError
from .scenarios import ScenarioError, list_scenarios, parse_scenario
from .verify import ConfigError, Quadrature, integrate, report_csv


def _values(tensor):
    """A batch-1 jet, or nested lists of them, as a float or nested lists of floats."""
    return jet_values(tensor, 1)[..., 0].tolist()


def _parse_point(text, chart):
    """Chart coordinates from text; bounded axes must contain them, periodic ones take any."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != chart.dim:
        raise ConfigError(
            f"point: expected {chart.dim} comma-separated coordinates, got {len(parts)}"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"point: not a number in {text!r}") from None
    if not all(np.isfinite(vals)):
        raise ConfigError(f"point: coordinates must be finite, got {text!r}")
    for ax, v in zip(chart.axes, vals):
        if not ax.periodic and not ax.lo <= v <= ax.hi:
            raise ConfigError(
                f"point: {ax.name} = {v:g} lies outside the chart's range [{ax.lo:g}, {ax.hi:g}]"
            )
    return np.array([[v] for v in vals])


def _load_config_file(path):
    # yaml.safe_load parses JSON too; both formats are accepted.
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path}: {err}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping, got {type(data).__name__}")
    return data


def _surface_field(text, chart):
    try:
        expr = parse_expression(text, chart.names)
    except ExprError as err:
        raise ConfigError(f"f: {err}") from None
    return expression_field(expr)


def _emit_json(obj):
    print(json.dumps(obj), flush=True)


def _finite(val):
    if isinstance(val, list):
        return all(_finite(v) for v in val)
    return not isinstance(val, float) or math.isfinite(val)


def _print_result(out):
    """Print a command's result as strict JSON; a non-finite number in it is a domain error."""
    bad = [key for key, val in out.items() if not _finite(val)]
    if bad:
        where = ", ".join(f"{v:.6g}" for v in out["point"])
        raise SingularFieldError(f"{', '.join(bad)}: not finite at the point ({where})")
    print(json.dumps(out, indent=2, allow_nan=False))


# ---- subcommands ----------------------------------------------------------------


def cmd_verify(args):
    data = {}
    if args.config:
        data.update(_load_config_file(args.config))
    for key in ("suite", "scenario", "degree", "nodes", "gauss_nodes", "seed"):
        val = getattr(args, key)
        if val is not None:
            data[key] = val
    if args.tol is not None:
        data["tol_point"] = args.tol
    cfg = verify.load_config(data)
    report = verify.run_suite(cfg, emit=_emit_json)
    _emit_json({"passed": report["passed"], "counts": report["counts"]})
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            if args.format == "csv":
                fh.write(report_csv(report))
            else:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        print(f"report written to {args.output}", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_curvature(args):
    scn = parse_scenario(args.scenario)
    pt = _parse_point(args.point, scn.chart)
    ctx = scn.context(pt, degree_cap=args.degree)
    pack = {
        "scenario": scn.name,
        "kind": scn.kind,
        "dim": scn.dim,
        "coordinates": list(scn.chart.names),
        "point": [float(v[0]) for v in pt],
        "g": _values(ctx.g(0)),
        "riemann": _values(curvature.riemann(ctx, 0)),
        "ricci": _values(curvature.ricci(ctx, 0)),
        "scal": _values(curvature.scal(ctx, 0)),
        "J": _values(curvature.jfun(ctx, 0)),
    }
    if scn.kind == "intrinsic":
        pack["metric"] = [list(row) for row in scn.metric.texts]
    else:
        pack["embedding"] = list(scn.embedding.iota_texts)
        pack["ambient_metric"] = [list(row) for row in scn.embedding.ambient_metric.texts]
    # Schouten and Weyl divide by n - 2.
    if scn.dim >= 3:
        pack["schouten"] = _values(curvature.schouten(ctx, 0))
        pack["weyl"] = _values(curvature.weyl(ctx, 0))
    _print_result(pack)
    return 0


def cmd_extrinsic(args):
    scn = parse_scenario(args.scenario)
    if scn.kind != "embedded":
        raise ConfigError(f"scenario {scn.name} is intrinsic; this command needs an embedding")
    pt = _parse_point(args.point, scn.chart)
    ctx = scn.context(pt, degree_cap=args.degree)
    pack = {
        "scenario": scn.name,
        "dim": scn.dim,
        "coordinates": list(scn.chart.names),
        "ambient_coordinates": list(scn.ambient_chart.names),
        "point": [float(v[0]) for v in pt],
        "orientation": scn.embedding.sigma,
        "h": _values(ctx.g(0)),
        "shape": _values(hs.second_fundamental(ctx, 0)),
        "mean_curvature": _values(hs.mean_curvature(ctx, 0)),
        "tracefree_shape": _values(hs.tracefree_second_fundamental(ctx, 0)),
        "normal_weyl": _values(hs.normal_weyl(ctx, 0)),
        "normal_riemann": _values(hs.normal_riemann(ctx, 0)),
        "rho_bar": _values(hs.rho_bar_tangential(ctx, 0)),
        "rho_bar_0i": _values(hs.rho_bar_normal_tangential(ctx, 0)),
        "rho_bar_00": _values(hs.rho_bar_nn(ctx, 0)),
        "nabla0_rho_bar": _values(hs.nabla0_rho_tangential(ctx, 0)),
        "nabla0_rho_bar_0i": _values(hs.nabla0_rho_normal(ctx, 0)),
        "nabla0_weyl": _values(hs.nabla0_weyl_normal(ctx, 0)),
    }
    if scn.dim >= 3:
        pack["fialkow"] = _values(hs.fialkow(ctx, 0))
    _print_result(pack)
    return 0


def _resolve_op(name, f_text, scn):
    if name not in ops.OPERATORS:
        known = ", ".join(sorted(ops.OPERATORS))
        raise ConfigError(f"op: unknown operator {name!r} (known: {known})")
    factory, order, embedded = ops.OPERATORS[name]
    if embedded and scn.kind != "embedded":
        raise ConfigError(f"op: {name} needs an embedded scenario, {scn.name} is intrinsic")
    if order is None:
        if f_text is not None:
            raise ConfigError(f"op: {name} takes no input function, drop --f")
        return factory()
    if f_text is None:
        raise ConfigError(f"op: {name} needs an input function, pass --f")
    return factory(_surface_field(f_text, scn.chart))


def cmd_apply(args):
    scn = parse_scenario(args.scenario)
    field = _resolve_op(args.op, args.f, scn)
    pt = _parse_point(args.point, scn.chart)
    ctx = scn.context(pt, degree_cap=args.degree)
    out = {
        "op": args.op,
        "scenario": scn.name,
        "point": [float(v[0]) for v in pt],
        "value": _values(field(ctx, 0)),
    }
    if args.f is not None:
        out["f"] = args.f
    _print_result(out)
    return 0


def cmd_integrate(args):
    scn = parse_scenario(args.scenario)
    if (args.f is None) == (args.op is None):
        raise ConfigError("integrate: pass exactly one of --f or --op")
    if args.op is not None:
        field = _resolve_op(args.op, None, scn)
        label = args.op
    else:
        field = _surface_field(args.f, scn.chart)
        label = args.f
    quad = Quadrature(scn.chart, args.nodes, args.gauss_nodes)
    (total,) = integrate([field], scn, quad, degree_cap=args.degree)
    out = {
        "scenario": scn.name,
        "integrand": label,
        "integral": total,
        "npoints": quad.npoints,
        "nodes": args.nodes,
        "gauss_nodes": args.gauss_nodes,
    }
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0


def cmd_list_scenarios(args):
    rows = list_scenarios()
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    wide = max(len(r["name"]) for r in rows)
    for r in rows:
        euler = "-" if r["euler"] is None else str(r["euler"])
        print(f"{r['name']:<{wide}}  {r['kind']:<9}  dim={r['dim']}  euler={euler}")
    return 0


# ---- parser ---------------------------------------------------------------------


def _add_point_args(sub):
    sub.add_argument("--scenario", required=True, help="catalog name, e.g. ROUND_S(4,1)")
    sub.add_argument("--point", required=True, help="comma-separated chart coordinates")
    sub.add_argument("--degree", type=int, default=6, help="jet degree cap (default 6)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="extrinsic-q",
        description="Evaluate conformal Laplacians and Q-curvatures and verify their laws.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity-check suites")
    v.add_argument("--config", help="YAML or JSON config file; flags override it")
    v.add_argument("--suite", choices=verify.SUITES, help="which checks to run")
    v.add_argument("--scenario", help="restrict the suite to one scenario")
    v.add_argument("--degree", type=int, help="jet degree cap")
    v.add_argument("--nodes", type=int, help="quadrature nodes per periodic axis")
    v.add_argument("--gauss-nodes", type=int, dest="gauss_nodes", help="nodes per bounded axis")
    v.add_argument("--seed", type=int, help="base RNG seed")
    v.add_argument("--tol", type=float, help="pointwise tolerance override")
    v.add_argument("--output", help="write the aggregate report here")
    v.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("curvature", help="curvature data at a point")
    _add_point_args(c)
    c.set_defaults(fn=cmd_curvature)

    e = sub.add_parser("extrinsic", help="hypersurface data at a point")
    _add_point_args(e)
    e.set_defaults(fn=cmd_extrinsic)

    a = sub.add_parser("apply", help="apply a named operator at a point")
    _add_point_args(a)
    a.add_argument("--op", required=True, help="operator name, e.g. p4 or ext_q3")
    a.add_argument("--f", help="input function for second-argument operators")
    a.set_defaults(fn=cmd_apply)

    g = sub.add_parser("integrate", help="integrate over a scenario")
    g.add_argument("--scenario", required=True)
    g.add_argument("--f", help="scalar expression in chart coordinates")
    g.add_argument("--op", help="nullary operator name, e.g. q4")
    g.add_argument("--degree", type=int, default=6)
    g.add_argument("--nodes", type=int, default=10, help="nodes per periodic axis")
    g.add_argument("--gauss-nodes", type=int, dest="gauss_nodes", default=12)
    g.set_defaults(fn=cmd_integrate)

    ls = sub.add_parser("list-scenarios", help="print the built-in catalog")
    ls.add_argument("--format", choices=("text", "json"), default="text")
    ls.set_defaults(fn=cmd_list_scenarios)

    return ap


# a coordinate list led by a negative number, e.g. -1,0 or -inf,2
_NEGATIVE_POINT = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_points(argv):
    """Rewrite ``--point -1,0`` as ``--point=-1,0``.

    argparse reads a word led by '-' as an option unless it is a single
    number, so a point whose first coordinate is negative would otherwise
    need the '=' form.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--point" and _NEGATIVE_POINT.match(arg):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_points(argv))
    try:
        # a value that leaves the float range is refused where it is printed
        # or integrated, so numpy's warnings about it would only add noise
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (
        ConfigError,
        ScenarioError,
        ExprError,
        JetError,
        NonUmbilicError,
        SingularFieldError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
