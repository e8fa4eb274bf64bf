"""Named geometries: the built-in catalog and its NAME(args) parser.

A scenario couples a chart and metric (or an embedding) with the bookkeeping
the check harness needs: the Euler characteristic when known, whether the
hypersurface is umbilic by construction, and pole-safe scalar bases that
random test functions are drawn from.  Scenario names use a small call-like
grammar: ``FLAT_T4``, ``ROUND_S(4,1)``, ``CONF_PERTURBED(ROUND_S(4,1))``.
"""

import math
import re

from . import hypersurface as hs
from .geometry import Axis, Chart, Metric, MetricContext, conformal_rescale

TAU = 2.0 * math.pi


class ScenarioError(ValueError):
    """Unknown scenario name or malformed arguments."""


class Scenario:
    """An intrinsic metric or an embedded hypersurface under a public name.

    ``basis`` lists expression strings over the surface chart that are smooth
    on the underlying manifold (pole-safe on spheres); ``ambient_basis`` does
    the same over the ambient chart of an embedded scenario.  Random trial
    functions are linear combinations of these.
    """

    __slots__ = ("name", "kind", "metric", "embedding", "euler", "umbilic", "basis", "ambient_basis")

    def __init__(self, name, *, metric=None, embedding=None, euler=None,
                 umbilic=False, basis=(), ambient_basis=()):
        if (metric is None) == (embedding is None):
            raise ScenarioError("a scenario is either a metric or an embedding")
        self.name = name
        self.kind = "intrinsic" if metric is not None else "embedded"
        self.metric = metric
        self.embedding = embedding
        self.euler = euler
        self.umbilic = umbilic
        self.basis = tuple(basis)
        self.ambient_basis = tuple(ambient_basis)

    @property
    def chart(self):
        return self.metric.chart if self.metric is not None else self.embedding.chart

    @property
    def dim(self):
        return self.chart.dim

    @property
    def ambient_chart(self):
        if self.embedding is None:
            return None
        return self.embedding.ambient_metric.chart

    def context(self, points, degree_cap=6, plan=None):
        """A context on ``points``; ``plan`` is a DegreePlan shared with the
        other contexts of one job."""
        if self.metric is not None:
            return MetricContext(self.metric, points, degree_cap, plan)
        return hs.EmbeddedSurfaceContext(self.embedding, points, degree_cap, plan)

    def rescaled(self, phi_text, name=None, columns=None):
        """The same geometry under g -> e^{2 phi} g.

        Intrinsic scenarios rescale the metric itself; embedded ones rescale
        the ambient metric, which changes the induced metric, the normal, and
        the shape operator through the usual pipeline.  Umbilicity and the
        Euler characteristic survive a conformal change.  ``phi_text`` may
        use the arrays ``columns`` names, one number per point of the
        contexts the rescaled scenario will be evaluated in.
        """
        name = name or f"{self.name} * e^2phi"
        if self.metric is not None:
            return Scenario(name, metric=conformal_rescale(self.metric, phi_text, columns),
                            euler=self.euler, basis=self.basis)
        emb = self.embedding
        resc = hs.Embedding(
            emb.chart,
            conformal_rescale(emb.ambient_metric, phi_text, columns),
            emb.iota_texts,
            sigma=emb.sigma,
        )
        return Scenario(name, embedding=resc, euler=self.euler, umbilic=self.umbilic,
                        basis=self.basis, ambient_basis=self.ambient_basis)

    def __repr__(self):
        return f"Scenario({self.name!r}, {self.kind}, dim={self.dim})"


# ---- building blocks ----------------------------------------------------------


def _torus_chart(names):
    return Chart([Axis(nm, 0.0, TAU, periodic=True) for nm in names])


def _flat(chart):
    n = chart.dim
    return Metric(chart, [["1" if a == b else "0" for b in range(n)] for a in range(n)])


def _torus_basis(names):
    out = []
    for nm in names:
        out += [f"sin({nm})", f"cos({nm})"]
    for a, b in zip(names, names[1:]):
        out.append(f"sin({a})*cos({b})")
    return tuple(out)


def _sphere_chart(n):
    names = [f"x{i+1}" for i in range(n)]
    axes = [Axis(nm, 0.0, math.pi) for nm in names[:-1]]
    axes.append(Axis(names[-1], 0.0, TAU, periodic=True))
    return Chart(axes)


def _sphere_basis(n):
    # restrictions of the ambient coordinate functions: smooth across poles
    out = [f"cos(x1)"]
    lead = ""
    for k in range(1, n):
        lead += f"sin(x{k})*"
        out.append(f"{lead}cos(x{k+1})")
    out.append(f"{lead}sin(x{n})")
    return tuple(out)


def _round_metric(n, r):
    chart = _sphere_chart(n)
    texts = {}
    for i in range(n):
        parts = [f"{r}^2"] if r != 1.0 else []
        parts += [f"sin(x{k+1})^2" for k in range(i)]
        texts[f"g{i+1}{i+1}"] = "*".join(parts) if parts else "1"
    return Metric.from_dict(chart, texts)


def _sphere_iota(n, r):
    lead = "*".join(f"sin(x{k+1})" for k in range(n - 1))
    lead = f"{r}*{lead}" if lead else f"{r}"
    iota = [f"{lead}*cos(x{n})", f"{lead}*sin(x{n})"]
    for m in range(n - 1, 0, -1):
        prefix = "*".join(f"sin(x{k+1})" for k in range(m - 1))
        head = f"{r}*{prefix}*" if prefix else f"{r}*"
        iota.append(f"{head}cos(x{m})")
    return tuple(iota)


_PERT = {
    3: {
        "g11": "1 + 0.1*sin(x1)*cos(x2)",
        "g22": "1 + 0.08*cos(x2)*sin(x3)",
        "g33": "1 + 0.06*sin(x3)*cos(x1)",
        "g12": "0.05*sin(x1 + x3)",
        "g23": "0.04*cos(x1 + x2)",
    },
    4: {
        "g11": "1 + 0.08*sin(x1)*cos(x2)",
        "g22": "1 + 0.07*cos(x2)*sin(x3)",
        "g33": "1 + 0.06*sin(x3)*cos(x4)",
        "g44": "1 + 0.05*cos(x4)*sin(x1)",
        "g12": "0.04*sin(x1 + x2)",
        "g13": "0.03*cos(x2 + x4)",
        "g24": "0.03*sin(x3 + x1)",
        "g34": "0.02*cos(x1 + x3)",
    },
    5: {
        "g11": "1 + 0.06*sin(x1)*cos(x2)",
        "g22": "1 + 0.05*cos(x2)*sin(x3)",
        "g33": "1 + 0.05*sin(x3)*cos(x4)",
        "g44": "1 + 0.04*cos(x4)*sin(x5)",
        "g55": "1 + 0.04*sin(x5)*cos(x1)",
        "g13": "0.03*sin(x1 + x4)",
        "g25": "0.02*cos(x2 + x5)",
    },
}

_GRAPH_U = {
    2: "0.15*sin(x1) + 0.1*cos(x2)",
    3: "0.12*sin(x1) + 0.08*cos(x2)*sin(x3)",
    4: "0.1*sin(x1) + 0.08*cos(x2)*sin(x3) + 0.05*sin(x4)*cos(x1)",
}

# fixed conformal factors for the CONF_PERTURBED(...) catalog entries,
# keyed by the canonical base name; pole-safe where the base has poles
_PHI = {
    "FLAT_T2": "0.1*sin(x1)*cos(x2) + 0.07*cos(x1)",
    "FLAT_T3": "0.1*sin(x1)*cos(x2) + 0.07*cos(x3)",
    "FLAT_T4": "0.1*sin(x1)*cos(x2) + 0.07*cos(x3) + 0.05*sin(x4)",
    "FLAT_T5": "0.1*sin(x1)*cos(x2) + 0.07*cos(x3) + 0.05*sin(x4)*cos(x5)",
    "SLICE(S2xS2)": "0.1*sin(a1)*cos(a2) + 0.07*cos(a3) + 0.05*t",
    "SLICE(PERT_T3)": "0.08*sin(y1) + 0.06*cos(y2)*sin(y3) + 0.05*t",
    "SLICE(PERT_T4)": "0.08*sin(y1) + 0.06*cos(y2)*sin(y3) + 0.05*t + 0.04*cos(y4)",
    "SLICE(WARPED_T4)": "0.08*sin(y1) + 0.06*cos(y2)*sin(y3) + 0.05*t",
    "GRAPH(T2_IN_T3)": "0.1*sin(y1) + 0.07*cos(y2)*sin(y3)",
    "GRAPH(T3_IN_T4)": "0.08*sin(y1)*cos(y2) + 0.06*cos(y3) + 0.04*sin(y4)",
    "GRAPH(T4_IN_T5)": "0.08*sin(y1)*cos(y2) + 0.06*cos(y3)*sin(y4) + 0.04*sin(y5)",
    "GRAPH(T4_IN_PERT_T5)": "0.08*sin(y1)*cos(y2) + 0.06*cos(y3)*sin(y4) + 0.04*sin(y5)",
}
_PHI["PERT_T3"] = _PHI["FLAT_T3"]
_PHI["PERT_T4"] = _PHI["FLAT_T4"]
_PHI["PERT_T5"] = _PHI["FLAT_T5"]


def conf_phi(base_name):
    """The fixed conformal factor of CONF_PERTURBED(base_name).

    Every round sphere, and every sphere in flat space, shares one factor.
    """
    if base_name.startswith("ROUND_S("):
        return "0.1*cos(x1) + 0.07*sin(x1)*cos(x2)"
    if base_name.startswith("SPHERE_IN_FLAT("):
        return "0.1*sin(y1) + 0.07*cos(y2)*sin(y3)"
    try:
        return _PHI[base_name]
    except KeyError:
        raise ScenarioError(
            f"CONF_PERTURBED has no fixed conformal factor for base {base_name!r}"
        ) from None


# ---- catalog constructors ------------------------------------------------------


def _flat_torus(n):
    names = [f"x{i+1}" for i in range(n)]
    chart = _torus_chart(names)
    return Scenario(f"FLAT_T{n}", metric=_flat(chart), euler=0, basis=_torus_basis(names))


def _pert_torus(n):
    names = [f"x{i+1}" for i in range(n)]
    chart = _torus_chart(names)
    return Scenario(
        f"PERT_T{n}",
        metric=Metric.from_dict(chart, _PERT[n]),
        euler=0,
        basis=_torus_basis(names),
    )


def _round_sphere(n, r):
    return Scenario(
        _canon("ROUND_S", (n, r)),
        metric=_round_metric(n, r),
        euler=2 if n % 2 == 0 else 0,
        basis=_sphere_basis(n),
    )


def _sphere_in_flat(n, r):
    surf = _sphere_chart(n)
    amb = Chart([Axis(f"y{a+1}", -2.0 * r, 2.0 * r) for a in range(n + 1)])
    # the nested-polar frame flips orientation every two dimensions; pick the
    # sign that makes the normal outward (H = +1/r) in every dimension
    sigma = 1.0 if n % 4 in (2, 3) else -1.0
    emb = hs.Embedding(surf, _flat(amb), _sphere_iota(n, r), sigma=sigma)
    return Scenario(
        _canon("SPHERE_IN_FLAT", (n, r)),
        embedding=emb,
        euler=2 if n % 2 == 0 else 0,
        umbilic=True,
        basis=_sphere_basis(n),
        ambient_basis=tuple(f"sin(0.5*y{a+1})" for a in range(n + 1))
        + tuple(f"cos(0.5*y{a+1})" for a in range(n + 1)),
    )


def _slice_s2xs2():
    surf = Chart(
        [
            Axis("x1", 0.0, math.pi),
            Axis("x2", 0.0, TAU, periodic=True),
            Axis("x3", 0.0, math.pi),
            Axis("x4", 0.0, TAU, periodic=True),
        ]
    )
    amb = Chart(
        [
            Axis("t", -1.0, 1.0),
            Axis("a1", 0.0, math.pi),
            Axis("a2", 0.0, TAU, periodic=True),
            Axis("a3", 0.0, math.pi),
            Axis("a4", 0.0, TAU, periodic=True),
        ]
    )
    gbar = Metric.from_dict(
        amb, {"g11": "1", "g22": "1", "g33": "sin(a1)^2", "g44": "4", "g55": "4*sin(a3)^2"}
    )
    emb = hs.Embedding(surf, gbar, ("0", "x1", "x2", "x3", "x4"), sigma=1.0)
    basis = (
        "cos(x1)",
        "sin(x1)*cos(x2)",
        "sin(x1)*sin(x2)",
        "cos(x3)",
        "sin(x3)*cos(x4)",
        "sin(x3)*sin(x4)",
    )
    ambient_basis = (
        "t",
        "cos(a1)",
        "sin(a1)*cos(a2)",
        "sin(a1)*sin(a2)",
        "cos(a3)",
        "sin(a3)*cos(a4)",
        "sin(a3)*sin(a4)",
    )
    return Scenario(
        "SLICE(S2xS2)", embedding=emb, euler=4, umbilic=True,
        basis=basis, ambient_basis=ambient_basis,
    )


def _slice_pert(n):
    # {t = 0} inside dt^2 + (perturbed T^n metric, t-independent): totally geodesic
    names = [f"x{i+1}" for i in range(n)]
    ynames = [f"y{i+1}" for i in range(n)]
    surf = _torus_chart(names)
    amb = Chart([Axis("t", -1.0, 1.0)] + [Axis(nm, 0.0, TAU, periodic=True) for nm in ynames])
    texts = {"g11": "1"}
    sub = dict(zip(names, ynames))
    pat = re.compile("|".join(names))
    for key, val in _PERT[n].items():
        i, j = int(key[1]) + 1, int(key[2]) + 1
        texts[f"g{i}{j}"] = pat.sub(lambda m: sub[m.group(0)], val)
    gbar = Metric.from_dict(amb, texts)
    emb = hs.Embedding(surf, gbar, ("0",) + tuple(names), sigma=1.0 if n % 2 == 0 else -1.0)
    return Scenario(
        f"SLICE(PERT_T{n})",
        embedding=emb,
        euler=0,
        umbilic=True,
        basis=_torus_basis(names),
        ambient_basis=("t",) + _torus_basis(ynames),
    )


def _slice_warped():
    names = ["x1", "x2", "x3"]
    surf = _torus_chart(names)
    amb = Chart([Axis("t", -1.0, 1.0)] + [Axis(f"y{i}", 0.0, TAU, periodic=True) for i in (1, 2, 3)])
    w = "exp(0.4*t + 0.1*t^2)"
    gbar = Metric.from_dict(amb, {"g11": "1", "g22": w, "g33": w, "g44": w})
    emb = hs.Embedding(surf, gbar, ("0", "x1", "x2", "x3"), sigma=-1.0)
    return Scenario(
        "SLICE(WARPED_T4)",
        embedding=emb,
        euler=0,
        umbilic=True,
        basis=_torus_basis(names),
        ambient_basis=("t",) + _torus_basis(["y1", "y2", "y3"]),
    )


def _graph(n, perturbed=False):
    names = [f"x{i+1}" for i in range(n)]
    ynames = [f"y{i+1}" for i in range(n + 1)]
    surf = _torus_chart(names)
    amb = Chart(
        [Axis(nm, 0.0, TAU, periodic=True) for nm in ynames[:-1]] + [Axis(ynames[-1], -2.0, 2.0)]
    )
    if perturbed:
        xnames = [f"x{i+1}" for i in range(n + 1)]
        sub = dict(zip(xnames, ynames))
        pat = re.compile("|".join(xnames))
        texts = {k: pat.sub(lambda m: sub[m.group(0)], v) for k, v in _PERT[n + 1].items()}
        ambient_metric = Metric.from_dict(amb, texts)
        name = f"GRAPH(T{n}_IN_PERT_T{n+1})"
    else:
        ambient_metric = _flat(amb)
        name = f"GRAPH(T{n}_IN_T{n+1})"
    emb = hs.Embedding(surf, ambient_metric, tuple(names) + (_GRAPH_U[n],), sigma=1.0)
    return Scenario(
        name,
        embedding=emb,
        euler=0,
        basis=_torus_basis(names),
        ambient_basis=_torus_basis(ynames[:-1]) + (f"sin(0.5*{ynames[-1]})",),
    )


# ---- the name grammar ----------------------------------------------------------


def _canon(head, args):
    parts = []
    for a in args:
        if isinstance(a, float) and a == int(a):
            a = int(a)
        parts.append(str(a))
    return f"{head}({','.join(parts)})" if parts else head


def _split_args(body):
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ScenarioError(f"unbalanced parentheses in scenario arguments {body!r}")
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ScenarioError(f"unbalanced parentheses in scenario arguments {body!r}")
    if cur or out:
        out.append("".join(cur).strip())
    return out


def _num(text, what):
    try:
        v = float(text)
    except ValueError:
        raise ScenarioError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ScenarioError(f"{what} must be finite, got {text!r}")
    return v


_FIXED = {
    "FLAT_T2": lambda: _flat_torus(2),
    "FLAT_T3": lambda: _flat_torus(3),
    "FLAT_T4": lambda: _flat_torus(4),
    "FLAT_T5": lambda: _flat_torus(5),
    "PERT_T3": lambda: _pert_torus(3),
    "PERT_T4": lambda: _pert_torus(4),
    "PERT_T5": lambda: _pert_torus(5),
}

_SLICES = {
    "S2xS2": _slice_s2xs2,
    "PERT_T3": lambda: _slice_pert(3),
    "PERT_T4": lambda: _slice_pert(4),
    "WARPED_T4": _slice_warped,
}

_GRAPHS = {
    "T2_IN_T3": lambda: _graph(2),
    "T3_IN_T4": lambda: _graph(3),
    "T4_IN_T5": lambda: _graph(4),
    "T4_IN_PERT_T5": lambda: _graph(4, perturbed=True),
}


def parse_scenario(text):
    """Resolve a scenario name like ``ROUND_S(4,1)`` to a Scenario."""
    text = text.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?", text, re.DOTALL)
    if not m:
        raise ScenarioError(f"bad scenario name {text!r}")
    head, body = m.group(1), m.group(2)
    args = _split_args(body) if body is not None else None

    if head in _FIXED:
        if args:
            raise ScenarioError(f"{head} takes no arguments")
        return _FIXED[head]()

    if head == "ROUND_S" or head == "SPHERE_IN_FLAT":
        if not args or len(args) != 2:
            raise ScenarioError(f"{head} needs (n, r)")
        n = _num(args[0], "dimension")
        r = _num(args[1], "radius")
        if n != int(n) or not 2 <= int(n) <= 5:
            raise ScenarioError(f"{head} dimension must be an integer in 2..5, got {args[0]}")
        if r <= 0:
            raise ScenarioError(f"radius must be positive, got {args[1]}")
        make = _round_sphere if head == "ROUND_S" else _sphere_in_flat
        return make(int(n), r)

    if head == "SLICE":
        if not args or len(args) != 1 or args[0] not in _SLICES:
            known = ", ".join(sorted(_SLICES))
            raise ScenarioError(f"SLICE argument must be one of: {known}")
        return _SLICES[args[0]]()

    if head == "GRAPH":
        if not args or len(args) != 1 or args[0] not in _GRAPHS:
            known = ", ".join(sorted(_GRAPHS))
            raise ScenarioError(f"GRAPH argument must be one of: {known}")
        return _GRAPHS[args[0]]()

    if head == "CONF_PERTURBED":
        if not args or len(args) != 1:
            raise ScenarioError("CONF_PERTURBED needs a base scenario argument")
        base = parse_scenario(args[0])
        return base.rescaled(conf_phi(base.name), name=f"CONF_PERTURBED({base.name})")

    known = sorted(_FIXED) + ["ROUND_S(n,r)", "SPHERE_IN_FLAT(n,r)", "SLICE(...)",
                              "GRAPH(...)", "CONF_PERTURBED(base)"]
    raise ScenarioError(f"unknown scenario {head!r}; known: {', '.join(known)}")


def list_scenarios():
    """Catalog rows for the CLI: concrete entries plus parametrized templates."""
    rows = []
    for name in sorted(_FIXED):
        s = _FIXED[name]()
        rows.append({"name": name, "kind": s.kind, "dim": s.dim, "euler": s.euler})
    rows.append({"name": "ROUND_S(n,r)", "kind": "intrinsic", "dim": "n in 2..5",
                 "euler": "2 if n even else 0"})
    rows.append({"name": "SPHERE_IN_FLAT(n,r)", "kind": "embedded", "dim": "n in 2..5",
                 "euler": "2 if n even else 0"})
    for key in sorted(_SLICES):
        s = _SLICES[key]()
        rows.append({"name": s.name, "kind": s.kind, "dim": s.dim, "euler": s.euler})
    for key in sorted(_GRAPHS):
        s = _GRAPHS[key]()
        rows.append({"name": s.name, "kind": s.kind, "dim": s.dim, "euler": s.euler})
    rows.append({"name": "CONF_PERTURBED(base)", "kind": "either", "dim": "base's",
                 "euler": "base's"})
    return rows
