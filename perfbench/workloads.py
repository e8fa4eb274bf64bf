"""The benchmark's workloads and the oracles their outputs are checked against.

``setup(name, seed)`` parses the workload's scenarios, builds its quadrature
rules and jet tables and returns its operations; ``run_pass(ops)`` runs
every operation once and checks its output.

Every expected value is fixed here, apart from the program: closed forms
(50 pi^2/3, 25/96, 9/32, 8 pi^2 chi, Q4 = 6 and P4 cos(x1) = 24 cos(x1) on the
unit 4-sphere) and properties the paper's method must have (the conformal
transformation laws, invariance of the total Q4 under an ambient rescaling,
divergences integrating to zero), each with a tolerance restated below rather
than read back from the program's own reports.  An operation that raises, or
whose output misses any of its oracles, counts as failed; one whose output
misses an oracle is also wrong, which makes the run's ``correct`` false.
"""

import math
import traceback
from dataclasses import dataclass

import numpy as np

from extrinsicq import curvature, jets, scenarios, verify
from extrinsicq import operators as ops
from extrinsicq.exprlang import parse_expression
from extrinsicq.geometry import Field, divdiv, expression_field, laplacian, norm2sq, square2

DEGREE = 6  # the program's default jet degree cap
POINTS = 8  # sample points of each closed-form pointwise check

# Tolerances of the pointwise rows: the program's documented contract
# (TOL_POINT, TOL_CONTROL and the fixed tolerances of verify's checks).
TOL_CONTROL = 1e-12
ROW_TOL = {
    "ext_q2_law": 1e-7,
    "ext_q3_law": 1e-7,
    "ext_q4_law": 1e-7,
    "ext_p2_covariance": 1e-7,
    "ext_p3_covariance": 1e-7,
    "ext_p4_critical_covariance": 1e-7,
    "c_invariance": 1e-7,
    "ext_p4_kills_constants": 1e-10,
    "ext_p4_reduces_to_p4": 1e-10,
    "ext_q4_reduces_to_q4": 1e-10,
    "sphere_fialkow_vanishes": 1e-10,
    "sphere_ext_q3_vanishes": 1e-10,
    "slice_correction_value": 1e-9,
    "slice_ext_q4_value": 1e-9,
    "normal_derivative_identity": 1e-8,
}
TOL_CLOSED_FORM = 1e-10
TOL_SLICE = 1e-9
TOL_INTEGRAL = 1e-5
TOL_DIVERGENCE = 1e-7

# The extrinsic suite's pointwise rows, called through verify's public check
# functions: (scenario, check function, arguments before cfg, result names).
# These are the suite's 15 pointwise rows; its one quadrature row,
# ext_p4_self_adjoint, is left out.
PAPER_ROWS = (
    ("GRAPH(T2_IN_T3)", "check_q_law", ("ext_q2",), ("ext_q2_law[phi=0]", "ext_q2_law")),
    ("GRAPH(T3_IN_T4)", "check_q_law", ("ext_q3",), ("ext_q3_law[phi=0]", "ext_q3_law")),
    ("GRAPH(T2_IN_T3)", "check_covariance", ("ext_p2",),
     ("ext_p2_covariance[phi=0]", "ext_p2_covariance")),
    ("GRAPH(T3_IN_T4)", "check_covariance", ("ext_p3",),
     ("ext_p3_covariance[phi=0]", "ext_p3_covariance")),
    ("GRAPH(T4_IN_T5)", "check_covariance", ("ext_p3",),
     ("ext_p3_covariance[phi=0]", "ext_p3_covariance")),
    ("GRAPH(T4_IN_PERT_T5)", "check_covariance", ("ext_p4_critical",),
     ("ext_p4_critical_covariance[phi=0]", "ext_p4_critical_covariance")),
    ("GRAPH(T4_IN_T5)", "check_ext_p4_constants", (), ("ext_p4_kills_constants",)),
    ("GRAPH(T4_IN_PERT_T5)", "check_c_invariance", (), ("c_invariance[phi=0]", "c_invariance")),
    ("GRAPH(T4_IN_T5)", "check_c_invariance", (), ("c_invariance[phi=0]", "c_invariance")),
    ("SPHERE_IN_FLAT(4,1)", "check_sphere_reduction", (),
     ("ext_p4_reduces_to_p4", "ext_q4_reduces_to_q4")),
    ("SPHERE_IN_FLAT(3,1)", "check_sphere_q3", (),
     ("sphere_fialkow_vanishes", "sphere_ext_q3_vanishes")),
    ("SLICE(S2xS2)", "check_slice_values", (), ("slice_correction_value", "slice_ext_q4_value")),
    ("SLICE(S2xS2)", "check_q_law", ("ext_q4",), ("ext_q4_law[phi=0]", "ext_q4_law")),
    ("CONF_PERTURBED(SLICE(PERT_T3))", "check_normal_derivative_identity", (),
     ("normal_derivative_identity",)),
    ("CONF_PERTURBED(SLICE(PERT_T4))", "check_normal_derivative_identity", (),
     ("normal_derivative_identity",)),
)

# Quadrature grids (periodic nodes, Gauss nodes), the coarsest on which each
# check still holds at the program's tolerance for every seed's node offset.
SLICE_GRID = (4, 8)  # 1024 points, one chunk
GRAPH_GRID = (7, 4)  # 2401 points; 6 nodes leave 8.4e-6 against 1e-5
DIVERGENCE_GRID = (12, 4)  # GRAPH(T3_IN_T4), 1728 points
SPHERE_GRID = (6, 8)  # ROUND_S(4,1), 3072 points
TORUS_GRID = (7, 4)  # PERT_T4, 2401 points; 6 nodes miss at 1.27e-5

# Euler characteristics, fixed here rather than read from the catalog.
EULER = {"ROUND_S(4,1)": 2, "PERT_T4": 0}


@dataclass
class Op:
    """One operation: ``run()`` returns {label: relative error}; each label
    is one comparison against the tolerance in ``tols``."""

    name: str
    tols: dict
    run: object


@dataclass
class Outcome:
    """One run of one operation: its comparisons (label, relative error,
    tolerance, ok) and, if it raised, the traceback."""

    op: str
    comparisons: list
    error: str = ""

    @property
    def failed(self):
        """Raised, or missed at least one comparison."""
        return bool(self.error) or not all(c["ok"] for c in self.comparisons)

    @property
    def wrong(self):
        """Ran to its end and produced a value that misses its oracle."""
        return not self.error and self.failed


def run_pass(ops_, around=None):
    """Run every operation once and check it; ``around(name, fn)`` may wrap
    each call.  Returns one Outcome per operation."""
    out = []
    for op in ops_:
        try:
            got = around(op.name, op.run) if around else op.run()
            error = ""
        except Exception:  # an operation that raises counts as failed
            got, error = {}, traceback.format_exc(limit=4)
        comparisons = []
        for label, tol in op.tols.items():
            err = float(got.get(label, math.nan))
            ok = math.isfinite(err) and err < tol
            comparisons.append({"label": label, "rel_err": err, "tol": tol, "ok": ok})
        out.append(Outcome(op.name, comparisons, error))
    return out


# ---- helpers ----------------------------------------------------------------


def _values(jet, nb):
    v = np.atleast_1d(np.asarray(jet.value, dtype=np.float64))
    return np.broadcast_to(v, (nb,))


def _interior_points(chart, rng, count=POINTS):
    """Random chart points; bounded axes keep 10% clear of their ends (poles)."""
    cols = []
    for ax in chart.axes:
        span = ax.hi - ax.lo
        if ax.periodic:
            cols.append(ax.lo + span * rng.random(count))
        else:
            cols.append(ax.lo + 0.1 * span + 0.8 * span * rng.random(count))
    return np.stack(cols)


def _shifted_rule(chart, grid, rng):
    """verify's tensor rule with every periodic axis shifted by a seeded
    fraction of its node spacing; the trapezoid rule stays exact in kind."""
    nodes, gauss_nodes = grid
    rule = verify.Quadrature(chart, nodes, gauss_nodes)
    for i, ax in enumerate(chart.axes):
        if ax.periodic:
            rule.points[i] += rng.random() * (ax.hi - ax.lo) / nodes
    return rule


def _build_jet_tables(charts):
    """Front-load the product and derivative tables the passes will use."""
    for nvars in sorted({c.dim for c in charts}):
        for d in range(DEGREE + 2):
            space = jets.jet_space(nvars, d)
            space.mul_table()
            if d:
                for var in range(nvars):
                    space.partial_table(var)


def _charts(scns):
    out = []
    for s in scns:
        out.append(s.chart)
        if s.ambient_chart is not None:
            out.append(s.ambient_chart)
    return out


def _row_seed(seed, index):
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# ---- paper-points -------------------------------------------------------------


def _verify_row(fname, scn, extra, names, cfg, seed):
    tols = {n: TOL_CONTROL if n.endswith("[phi=0]") else ROW_TOL[n] for n in names}

    def run():
        results = getattr(verify, fname)(scn, *extra, cfg, seed)
        return {r.check: r.max_abs_err / max(r.scale, 1.0) for r in results}

    return Op(f"{fname}({', '.join(extra)})@{scn.name}", tols, run)


def _sphere_q4(scn, pts):
    def run():
        ctx = scn.context(pts, degree_cap=DEGREE)
        q = _values(ops.q4()(ctx, 0), pts.shape[1])
        return {"q4=6": float(np.max(np.abs(q - 6.0))) / 6.0}

    return Op(f"closed_form@{scn.name}", {"q4=6": TOL_CLOSED_FORM}, run)


def _sphere_p4_cos(scn, pts):
    """On the unit 4-sphere P4 = Lap^2 - 2 Lap, and the first spherical
    harmonic has Lap cos(x1) = -4 cos(x1), so P4 cos(x1) = (16 + 8) cos(x1).
    In a flat ambient both extrinsic forms reduce to P4."""
    f = expression_field(parse_expression("cos(x1)", scn.chart.names))
    expected = 24.0 * np.cos(pts[0])
    makers = {
        "p4(cos x1)=24cos(x1)": ops.p4,
        "ext_p4_umbilic(cos x1)=24cos(x1)": ops.ext_p4_umbilic,
        "ext_p4_critical(cos x1)=24cos(x1)": ops.ext_p4_critical,
    }

    def run():
        ctx = scn.context(pts, degree_cap=DEGREE)
        out = {}
        for label, make in makers.items():
            v = _values(make(f)(ctx, 0), pts.shape[1])
            out[label] = float(np.max(np.abs(v - expected))) / 24.0
        return out

    return Op(f"closed_form@{scn.name}", dict.fromkeys(makers, TOL_CLOSED_FORM), run)


def _slice_closed_forms(scn, pts):
    def run():
        ctx = scn.context(pts, degree_cap=DEGREE)
        nb = pts.shape[1]
        qe = _values(ops.ext_q4_umbilic()(ctx, 0), nb)
        qi = _values(ops.q4()(ctx, 0), nb)
        return {
            "ext_q4=25/96": float(np.max(np.abs(qe - 25.0 / 96.0))) / (25.0 / 96.0),
            "ext_q4-q4=9/32": float(np.max(np.abs(qe - qi - 9.0 / 32.0))) / (9.0 / 32.0),
        }

    return Op(f"closed_form@{scn.name}", dict.fromkeys(("ext_q4=25/96", "ext_q4-q4=9/32"), TOL_SLICE),
              run)


def _paper_points(seed):
    cfg = verify.VerifyConfig(suite="extrinsic", degree=DEGREE, seed=seed)
    parsed = {}

    def scenario(text):
        if text not in parsed:
            parsed[text] = scenarios.parse_scenario(text)
        return parsed[text]

    out = []
    for idx, (text, fname, extra, names) in enumerate(PAPER_ROWS):
        out.append(_verify_row(fname, scenario(text), extra, names, cfg, _row_seed(seed, idx)))
    rng = np.random.default_rng([seed, len(PAPER_ROWS)])
    for text, make in (
        ("ROUND_S(4,1)", _sphere_q4),
        ("SPHERE_IN_FLAT(4,1)", _sphere_p4_cos),
        ("SLICE(S2xS2)", _slice_closed_forms),
    ):
        scn = scenario(text)
        out.append(make(scn, _interior_points(scn.chart, rng)))
    return out, list(parsed.values())


# ---- total-q4 -----------------------------------------------------------------


def _total_q4_op(base, hat, rule, field, closed_form=None):
    tols = {"invariance": TOL_INTEGRAL}
    if closed_form is not None:
        tols["closed_form"] = TOL_INTEGRAL

    def run():
        (b,), (a,) = verify.integrate([field], base, rule, absolute=True)
        (h,) = verify.integrate([field], hat, rule)
        out = {"invariance": abs(h - b) / max(abs(b), a, 1.0)}
        if closed_form is not None:
            out["closed_form"] = abs(b - closed_form) / closed_form
        return out

    return Op(f"total_q4@{base.name}", tols, run)


def _divergence_op(scn, rule):
    lo = ops.tracefree_shape_field()
    fields = {
        "lap_J": laplacian(ops.q2()),
        "divdiv_Lo2": divdiv(square2(lo)),
        "lap_|Lo|2": laplacian(norm2sq(lo)),
    }

    def run():
        totals, absolutes = verify.integrate(list(fields.values()), scn, rule, absolute=True)
        return {k: abs(t) / max(a, 1.0) for k, t, a in zip(fields, totals, absolutes)}

    return Op(f"divergence@{scn.name}", dict.fromkeys(fields, TOL_DIVERGENCE), run)


def _total_q4(seed):
    rng = np.random.default_rng(seed)
    field = ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()
    out, scns = [], []
    for text, grid, closed in (
        ("SLICE(S2xS2)", SLICE_GRID, 50.0 * math.pi**2 / 3.0),
        ("GRAPH(T4_IN_PERT_T5)", GRAPH_GRID, None),
    ):
        base = scenarios.parse_scenario(text)
        hat = scenarios.parse_scenario(f"CONF_PERTURBED({text})")
        out.append(_total_q4_op(base, hat, _shifted_rule(base.chart, grid, rng), field, closed))
        scns += [base, hat]
    graph3 = scenarios.parse_scenario("GRAPH(T3_IN_T4)")
    out.append(_divergence_op(graph3, _shifted_rule(graph3.chart, DIVERGENCE_GRID, rng)))
    return out, scns + [graph3]


# ---- gauss-bonnet ---------------------------------------------------------------


def _gauss_bonnet_op(scn, rule, field, euler):
    target = 8.0 * math.pi**2 * euler

    def run():
        (t,), (a,) = verify.integrate([field], scn, rule, absolute=True)
        return {"8pi^2chi": abs(t - target) / max(abs(target), a, 1.0)}

    return Op(f"gauss_bonnet@{scn.name}", {"8pi^2chi": TOL_INTEGRAL}, run)


def _gauss_bonnet(seed):
    rng = np.random.default_rng(seed)
    field = ops.q4() + Field(0, curvature.weyl_norm_sq) * 0.25
    out, scns = [], []
    for text, grid in (("ROUND_S(4,1)", SPHERE_GRID), ("PERT_T4", TORUS_GRID)):
        scn = scenarios.parse_scenario(text)
        out.append(_gauss_bonnet_op(scn, _shifted_rule(scn.chart, grid, rng), field, EULER[text]))
        scns.append(scn)
    return out, scns


SETUPS = {
    "paper-points": _paper_points,
    "total-q4": _total_q4,
    "gauss-bonnet": _gauss_bonnet,
}


def setup(name, seed):
    """The workload's operations, with its scenarios parsed and its
    quadrature rules, fields and jet tables built."""
    if name not in SETUPS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(SETUPS)}")
    ops_, scns = SETUPS[name](seed)
    _build_jet_tables(_charts(scns))
    return ops_
