"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install()`` wraps public entry points of ``extrinsicq`` and
``uninstall()`` puts the originals back:

- ``GeometryContext.get`` and the ``build`` it is given: one span per cached
  quantity built, named after its cache key and charged to the key's module
  (``KEY_LAYERS``); cache hits and truncations are counted;
- ``Jet.__mul__``/``__rmul__`` with a ``Jet`` operand, and ``Jet`` construction;
- ``jets.compose`` and the series functions (exp, log, sin, cos, powf, sqrt,
  recip), including the references the expression language took at import;
- ``Expression.__call__``, ``parse_scenario``, ``Scenario.context``,
  ``GeometryContext`` construction, ``verify.integrate`` and verify's
  ``check_*`` functions.

A layer's self time is the time inside its spans minus the time inside
their child spans, so the ``*.s`` metrics add up to the traced time without
counting anything twice: ``jets.mul.s`` holds every Cauchy product, wherever
it was called from, and ``curvature.riemann.s`` only the Riemann builds' own
code.  Spans of the coarse kinds (operations, builds, scenario and context
calls, verify calls) are kept in memory with their parent and operation and
written out when the run ends; the fine kinds (products, compositions,
series, expression evaluation) are only summed.
"""

import time
import weakref
from collections import defaultdict

from extrinsicq import exprlang, geometry, hypersurface, jets, scenarios, verify

# Cache key -> layer.  "g" depends on the context (see _layer_of); a key
# ("field", uid) is an assembled operator field.  Keys missing here are
# charged to "unmapped", which the trace file reports.
KEY_LAYERS = {
    "coords": "geometry",
    "invdet": "geometry.invert",
    "sqrtdetg": "geometry",
    "gamma": "geometry",
    "riemann": "curvature.riemann",
    "weyl": "curvature.weyl",
    "ricci": "curvature",
    "scal": "curvature",
    "J": "curvature",
    "schouten": "curvature",
    "weylnormsq": "curvature",
    "iota": "hypersurface.frame",
    "tangents": "hypersurface.frame",
    "gbar": "hypersurface.frame",
    "gbar_inv": "hypersurface.frame",
    "normal": "hypersurface.frame",
    "gammabar": "hypersurface.pull",
    "rhobar": "hypersurface.pull",
    "weylbar": "hypersurface.pull",
    "jbar": "hypersurface.pull",
    "nabla_rhobar": "hypersurface.pull",
    "nabla0_weyl": "hypersurface.nabla0_weyl",
    "second_fundamental": "hypersurface",
    "mean_curvature": "hypersurface",
    "tracefree_L": "hypersurface",
    "rhobar_nn": "hypersurface",
    "rhobar_tt": "hypersurface",
    "rhobar_nt": "hypersurface",
    "normal_riemann": "hypersurface",
    "normal_weyl": "hypersurface",
    "fialkow": "hypersurface",
    "nabla0_rho_tt": "hypersurface",
    "nabla0_rho_n": "hypersurface",
    "umbilic_ok": "operators.assembly",
}

SERIES = ("exp", "log", "sin", "cos", "powf", "sqrt", "recip")

# The per-layer metrics: counts, computed byte totals and self times.
COUNTS = (
    "jets.mul.calls", "jets.objects", "jets.compose.calls", "jets.series.calls",
    "exprlang.eval.calls", "geometry.contexts", "geometry.cache.builds",
    "geometry.cache.hits", "geometry.cache.truncations",
    "geometry.cache.multi_degree_keys", "operators.assembly.builds",
    "verify.points", "verify.checks",
)
BYTES = ("jets.mul.bytes", "geometry.cache.bytes")
# self-time metric -> layers whose self time it sums (a prefix takes sub-layers)
TIMES = {
    "jets.mul.s": ("jets.mul",),
    "jets.compose.s": ("jets.compose",),
    "jets.series.s": ("jets.series",),
    "exprlang.eval.s": ("exprlang.eval",),
    "geometry.metric.s": ("geometry.metric",),
    "geometry.invert.s": ("geometry.invert",),
    "curvature.s": ("curvature", "curvature."),
    "curvature.riemann.s": ("curvature.riemann",),
    "curvature.weyl.s": ("curvature.weyl",),
    "hypersurface.s": ("hypersurface", "hypersurface."),
    "hypersurface.pull.s": ("hypersurface.pull",),
    "hypersurface.frame.s": ("hypersurface.frame",),
    "hypersurface.nabla0_weyl.s": ("hypersurface.nabla0_weyl",),
    "operators.assembly.s": ("operators.assembly",),
    "scenarios.parse.s": ("scenarios.parse",),
    "scenarios.context.s": ("scenarios.context",),
    "verify.integrate.s": ("verify.integrate",),
}


def _layer_of(ctx, key):
    if isinstance(key, tuple) and key[:1] == ("field",):
        return "operators.assembly"
    if key == "g":
        embedded = isinstance(ctx, hypersurface.EmbeddedSurfaceContext)
        return "hypersurface.frame" if embedded else "geometry.metric"
    return KEY_LAYERS.get(key, "unmapped")


def _key_name(key):
    return "field" if isinstance(key, tuple) and key[:1] == ("field",) else str(key)


def _nbytes(obj):
    if isinstance(obj, jets.Jet):
        return obj.coeffs.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    return 0


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # (id, parent id, operation id, name, start, end)
        self._stack = [[0.0, 0, None]]  # [child time, recorded span id, layer]
        self._next_id = 1
        self._op = 0
        self._ctx_serial = weakref.WeakKeyDictionary()
        self._ctx_state = {}  # serial -> (served (key, d), {key: degrees built}, description)
        self._pairs = {}
        self._saved = []
        self.t0 = time.perf_counter()

    # ---- spans ----------------------------------------------------------------

    def _timed(self, layer, name, fn, *args):
        """Run fn(*args) as a span of ``layer``; ``name`` set means recorded."""
        stack = self._stack
        parent = stack[-1]
        sid = parent[1]
        if name is not None:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid, layer]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            stack.pop()
            self.self_s[layer] += dt - frame[0]
            parent[0] += dt
            if name is not None:
                self.spans.append((sid, parent[1], self._op, name, t0 - self.t0, t1 - self.t0))

    def operation(self, name, fn):
        """The benchmark's own span around one operation of a pass."""
        self._op = self._next_id
        try:
            return self._timed("bench.operation", name, fn)
        finally:
            self._op = 0

    # ---- patching -------------------------------------------------------------

    def _patch(self, owner, attr, make):
        """Replace owner.attr by make(original).  An entry point the program
        no longer has is skipped, so its metrics read zero."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return None, None
        self._saved.append((owner, attr, orig))
        new = make(orig)
        setattr(owner, attr, new)
        return orig, new

    def install(self):
        t = self
        counts = self.counts
        Jet = jets.Jet

        def wrap_init(orig):
            def init(jet, space, coeffs):
                counts["jets.objects"] += 1
                orig(jet, space, coeffs)
            return init

        def wrap_mul(orig):
            def mul(a, b):
                if not isinstance(b, Jet):
                    return orig(a, b)
                key = (a.space.nvars, min(a.space.degree, b.space.degree))
                pairs = t._pairs.get(key)
                if pairs is None:
                    pairs = t._pairs[key] = jets.jet_space(*key).mul_table()[0].size
                ca, cb = a.coeffs, b.coeffs
                batch = max(ca.shape[1] if ca.ndim == 2 else 1, cb.shape[1] if cb.ndim == 2 else 1)
                counts["jets.mul.calls"] += 1
                counts["jets.mul.bytes"] += 3 * pairs * batch * 8
                return t._timed("jets.mul", None, orig, a, b)
            return mul

        self._patch(Jet, "__init__", wrap_init)
        orig_mul, new_mul = self._patch(Jet, "__mul__", wrap_mul)
        self._patch(Jet, "__rmul__", lambda orig: new_mul if orig is orig_mul else wrap_mul(orig))

        def wrap_plain(layer, count):
            def make(orig):
                def call(*args):
                    counts[count] += 1
                    return t._timed(layer, None, orig, *args)
                return call
            return make

        self._patch(jets, "compose", wrap_plain("jets.compose", "jets.compose.calls"))
        self._patch(exprlang.Expression, "__call__", wrap_plain("exprlang.eval", "exprlang.eval.calls"))

        def wrap_series(orig):
            def call(*args):
                if t._stack[-1][2] != "jets.series":  # sqrt -> powf counts once
                    counts["jets.series.calls"] += 1
                return t._timed("jets.series", None, orig, *args)
            return call

        series = {}
        for name in SERIES:
            orig, new = self._patch(jets, name, wrap_series)
            if orig is not None:
                series[orig] = new
        # the expression language's function table holds its own references
        table = getattr(exprlang, "_FUNCS", {})
        for name, fn in list(table.items()):
            if fn in series:
                self._saved.append((table, name, fn))
                table[name] = series[fn]

        def wrap_recorded(layer, label):
            def make(orig):
                def call(*args, **kwargs):
                    return t._timed(layer, label, lambda: orig(*args, **kwargs))
                return call
            return make

        self._patch(scenarios, "parse_scenario", wrap_recorded("scenarios.parse", "parse_scenario"))
        self._patch(scenarios.Scenario, "context", wrap_recorded("scenarios.context", "context"))

        def wrap_ctx_init(orig):
            def init(ctx, *args, **kwargs):
                counts["geometry.contexts"] += 1
                orig(ctx, *args, **kwargs)
            return init

        self._patch(geometry.GeometryContext, "__init__", wrap_ctx_init)
        self._patch(geometry.GeometryContext, "get", self._wrap_get)

        def wrap_integrate(orig):
            def call(fields, scenario, quad, *args, **kwargs):
                counts["verify.checks"] += 1
                counts["verify.points"] += quad.npoints
                return t._timed("verify.integrate", "integrate",
                                lambda: orig(fields, scenario, quad, *args, **kwargs))
            return call

        def wrap_check(name):
            def make(orig):
                def call(*args, **kwargs):
                    counts["verify.checks"] += 1
                    out = t._timed("verify.check", name, lambda: orig(*args, **kwargs))
                    counts["verify.points"] += sum(r.samples for r in out)
                    return out
                return call
            return make

        self._patch(verify, "integrate", wrap_integrate)
        for name in [n for n in vars(verify) if n.startswith("check_")]:
            self._patch(verify, name, wrap_check(name))

    def _wrap_get(self, orig):
        t = self
        counts = self.counts

        def get(ctx, key, d, build):
            serial = t._ctx_serial.get(ctx)
            if serial is None:
                serial = t._ctx_serial[ctx] = len(t._ctx_state)
                t._ctx_state[serial] = (set(), {}, f"{type(ctx).__name__}[{ctx.nbatch}]")
            served, built, _ = t._ctx_state[serial]
            if (key, d) in served:
                counts["geometry.cache.hits"] += 1
                return orig(ctx, key, d, build)
            calls = []
            layer = _layer_of(ctx, key)

            def traced_build(dd):
                calls.append(dd)
                return t._timed(layer, _key_name(key), build, dd)

            out = orig(ctx, key, d, traced_build)
            served.add((key, d))
            if not calls:
                counts["geometry.cache.truncations"] += 1
                return out
            counts["geometry.cache.builds"] += 1
            counts["geometry.cache.bytes"] += _nbytes(out)
            if layer == "operators.assembly":
                counts["operators.assembly.builds"] += 1
            degrees = built.setdefault(key, set())
            degrees.add(d)
            if len(degrees) == 2:
                counts["geometry.cache.multi_degree_keys"] += 1
            return out

        return get

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # ---- results ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        for name in BYTES:
            out[name] = (self.counts[name], "bytes")
        for name, layers in TIMES.items():
            total = 0.0
            for layer, s in self.self_s.items():
                if any(layer == p or (p.endswith(".") and layer.startswith(p)) for p in layers):
                    total += s
            out[name] = (total, "s")
        return out

    def multi_degree_by_context(self):
        """Per context: the named quantities it built at more than one degree,
        and how many operator fields it did so for."""
        rows = []
        for serial, (_, built, desc) in self._ctx_state.items():
            multi = {k: sorted(v) for k, v in built.items() if len(v) > 1}
            if multi:
                named = {str(k): v for k, v in multi.items() if _key_name(k) != "field"}
                rows.append({"context": serial, "kind": desc, "quantities": named,
                             "fields": len(multi) - len(named)})
        return rows
