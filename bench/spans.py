"""Span tracer that wraps the public functions of the tracealg modules.

The tracer patches a timing wrapper over every public function of each
package module and over the public methods of the core classes, in every
tracealg namespace that binds the same object (``from .linalg import
max_abs`` rebinds the name in ``core``, ``analysis`` and ``catalog``).
Per-scalar helpers stay unwrapped: their call rate would make the tracer
measure itself.  ``uninstall`` restores every original binding.
"""
import functools
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "catalog", "hurwitz", "core", "analysis", "inequalities",
           "linalg")

CLASSES = {"core": ("Algebra", "MetrizedAlgebra"),
           "linalg": ("SymBilinearForm", "Subspace")}

SCALAR_HELPERS = {"linalg": {"frac", "zeros", "is_zero", "backend_of",
                             "parse_scalar", "scalar_to_json"},
                  "hurwitz": {"hmul", "hconj", "hre", "hscalar"}}


def _proper_closure(args, kwargs, result):
    """1 if ideal_closure returned a proper nonzero ideal, else 0."""
    return int(0 < result.dim < result.ambient_dim)


def _newton_found(args, kwargs, result):
    """(found, trials) of one newton_idempotents call."""
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return len(result), trials


OUTCOMES = {"core.Algebra.ideal_closure": _proper_closure,
            "analysis.newton_idempotents": _newton_found}


# (metric, span name, kind): kind "s" is the time in outermost spans of
# that name, "calls" the span count, the others ratios of OUTCOMES.
FUNCTION_METRICS = [
    ("core.killing_form.s", "core.Algebra.killing_form", "s"),
    ("core.ricci_form.s", "core.Algebra.ricci_form", "s"),
    ("core.is_invariant.s", "core.Algebra.is_invariant", "s"),
    ("core.einstein_fit.s", "core.einstein_fit", "s"),
    ("core.is_ideal.s", "core.Algebra.is_ideal", "s"),
    ("core.ideal_closure.s", "core.Algebra.ideal_closure", "s"),
    ("core.ideal_closure.calls", "core.Algebra.ideal_closure", "calls"),
    ("core.ideal_closure.proper_frac", "core.Algebra.ideal_closure", "proper_frac"),
    ("core.decompose_ideals.s", "core.decompose_ideals", "s"),
    ("core.retraction.s", "core.retraction", "s"),
    ("core.deunitalization.s", "core.deunitalization", "s"),
    ("core.load_json.s", "core.load_json", "s"),
    ("core.to_json.s", "core.to_json", "s"),
    ("analysis.conformal_tensor.s", "analysis.conformal_tensor", "s"),
    ("analysis.constant_sect_check.s", "analysis.constant_sect_check", "s"),
    ("analysis.is_projectively_associative.s",
     "analysis.is_projectively_associative", "s"),
    ("analysis.newton_idempotents.s", "analysis.newton_idempotents", "s"),
    ("analysis.newton_idempotents.found_per_trial", "analysis.newton_idempotents",
     "found_per_trial"),
    ("analysis.square_zero_rays.s", "analysis.square_zero_rays", "s"),
    ("analysis.sect_extremize.s", "analysis.sect_extremize", "s"),
    ("linalg.column_echelon.s", "linalg.column_echelon", "s"),
    ("linalg.column_echelon.calls", "linalg.column_echelon", "calls"),
    ("linalg.nullspace.s", "linalg.nullspace", "s"),
    ("linalg.solve.s", "linalg.solve", "s"),
    ("linalg.solve.calls", "linalg.solve", "calls"),
    ("linalg.inertia.s", "linalg.inertia", "s"),
    ("linalg.Subspace.contains.calls", "linalg.Subspace.contains", "calls"),
    ("linalg.as_backend.s", "linalg.as_backend", "s"),
    ("linalg.to_float.s", "linalg.to_float", "s"),
    ("linalg.max_abs.calls", "linalg.max_abs", "calls"),
    ("hurwitz.hmat_mul.s", "hurwitz.hmat_mul", "s"),
    ("hurwitz.hmat_mul.calls", "hurwitz.hmat_mul", "calls"),
    ("catalog.herm0.s", "catalog.herm0", "s"),
    ("catalog.lie_su.s", "catalog.lie_su", "s"),
    ("inequalities.bw_lie_estimate.s", "inequalities.bw_lie_estimate", "s"),
    ("inequalities.cdk_residual.s", "inequalities.cdk_residual", "s"),
]

UNITS = {"s": "s", "calls": "count", "proper_frac": "ratio",
         "found_per_trial": "ratio"}


def layer_metrics(summary):
    """{metric: (value, unit)} of one traced pass's summary."""
    out = {}
    for m in MODULES:
        agg = summary["modules"].get(m, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[m + ".calls"] = (agg["calls"], "count")
        out[m + ".busy_s"] = (agg["busy_s"], "s")
        out[m + ".self_s"] = (agg["self_s"], "s")
    for metric, span, kind in FUNCTION_METRICS:
        agg = summary["names"].get(span, {"calls": 0, "s": 0.0, "outcomes": []})
        if kind in ("s", "calls"):
            value = agg[kind]
        elif kind == "proper_frac":
            value = sum(agg["outcomes"]) / len(agg["outcomes"]) if agg["outcomes"] else 0.0
        else:
            trials = sum(t for _, t in agg["outcomes"])
            value = sum(f for f, _ in agg["outcomes"]) / trials if trials else 0.0
        out[metric] = (value, UNITS[kind])
    return out


class Span:
    __slots__ = ("name", "module", "start", "end", "parent", "call_id",
                 "outer_module", "outer_name", "outcome")


class Tracer:
    """Collects spans in memory while installed; one instance per run."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.call_id = None
        self._stack = []
        self._depth_module = defaultdict(int)
        self._depth_name = defaultdict(int)
        self._patches = []

    # -- installation -------------------------------------------------

    def _wrap(self, fn, module, name):
        outcome = OUTCOMES.get(name)
        spans, stack = self.spans, self._stack
        depth_module, depth_name = self._depth_module, self._depth_name
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span()
            span.name, span.module, span.call_id = name, module, self.call_id
            span.parent = stack[-1] if stack else None
            span.outer_module = depth_module[module] == 0
            span.outer_name = depth_name[name] == 0
            span.outcome = None
            spans.append(span)
            stack.append(span)
            depth_module[module] += 1
            depth_name[name] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                depth_module[module] -= 1
                depth_name[name] -= 1
            if outcome is not None:
                span.outcome = outcome(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            skip = SCALAR_HELPERS.get(mname, set())
            for name, obj in vars(mod).items():
                if (name.startswith("_") or name in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = (obj, self._wrap(
                        obj, mname, "%s.%s" % (mname, obj.__name__)))
            for cname in CLASSES.get(mname, ()):
                cls = getattr(mod, cname)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    span_name = "%s.%s.%s" % (mname, cname, name)
                    if inspect.isfunction(attr):
                        new = self._wrap(attr, mname, span_name)
                    elif isinstance(attr, classmethod):
                        new = classmethod(self._wrap(attr.__func__, mname, span_name))
                    else:
                        continue
                    self._patches.append((cls, name, attr))
                    setattr(cls, name, new)
        namespaces = [self.package] + list(modules.values())
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def reset(self):
        self.spans.clear()

    # -- aggregation --------------------------------------------------

    def summary(self, wall_s):
        """Per-module and per-span totals of the spans recorded since reset.

        Returns a dict with ``modules`` ({module: calls, busy_s, self_s}),
        ``names`` ({span name: calls, s, outcomes}) and ``remainder_s``,
        the part of ``wall_s`` covered by no span.
        """
        child = {}
        for sp in self.spans:
            if sp.parent is not None:
                key = id(sp.parent)
                child[key] = child.get(key, 0.0) + (sp.end - sp.start)
        modules = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        names = defaultdict(lambda: {"calls": 0, "s": 0.0, "outcomes": []})
        root_s = 0.0
        for sp in self.spans:
            dur = sp.end - sp.start
            m = modules[sp.module]
            m["calls"] += 1
            m["self_s"] += dur - child.get(id(sp), 0.0)
            if sp.outer_module:
                m["busy_s"] += dur
            n = names[sp.name]
            n["calls"] += 1
            if sp.outer_name:
                n["s"] += dur
            if sp.outcome is not None:
                n["outcomes"].append(sp.outcome)
            if sp.parent is None:
                root_s += dur
        return {"modules": dict(modules), "names": dict(names),
                "remainder_s": wall_s - root_s}
