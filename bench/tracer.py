"""Span tracer installed from outside the program.

`Tracer.install()` wraps the public functions of each `fujita` module in a
span recorder.  A function is rebound at every module-level name it is
bound to: `cones` and `toric` import `solve_lp` with `from .simplex import`,
so patching `fujita.simplex.solve_lp` alone would record nothing.  Spans are
kept in memory with their parent span, and `partial()` reduces them to
additive per-layer sums; `layer_metrics()` turns merged sums into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# Wrapped names per module.  "Class.method" wraps a method on the class; a
# property is wrapped through its getter.  `ConeQ._compute_facets` stands for
# the `facets` property: it runs once per cone, when the dual is computed,
# while the property also runs on every cached read.  Hot helpers such as
# `qlinalg.as_rat` and `DelPezzoModel.pair` are left out: they run millions
# of times and would bury the layers under tracer cost.
TARGETS = {
    "qlinalg": ("rank", "span_dim", "solve", "nullspace", "inertia"),
    "simplex": ("solve_lp",),
    "cones": (
        "ConeQ.contains",
        "ConeQ.express_nonneg",
        "ConeQ.is_strict",
        "ConeQ.dim",
        "ConeQ._compute_facets",
        "ConeQ.minimal_face",
        "ConeQ.min_a_with_witness",
        "dualize",
        "contains",
        "minimal_face",
        "min_a_on_ray",
        "is_strict",
    ),
    "invariants": (
        "fujita",
        "b_invariant",
        "invariant_pair",
        "is_rigid_class",
        "balanced_verdict",
        "check_birational_invariance",
    ),
    "delpezzo": (
        "enumerate_negative_curves",
        "del_pezzo",
        "quadric_surface",
        "zariski_decompose",
        "zariski_for_variety",
        "negative_classes",
        "surface_b",
        "surface_balanced",
        "curve_fujita",
        "weak_balance_curve_check",
    ),
    "toric": (
        "Fan.__init__",
        "NSPresentation.divisor_class",
        "fan_product",
        "ns_presentation",
        "effective_cone",
        "variety_model",
        "divisor_polytope",
        "polytope_dim",
        "toric_rigid",
        "class_is_rigid",
        "toric_balanced_all_subvarieties",
        "fibration_data",
        "fibration_b_crosscheck",
    ),
    "fixtures": ("load_catalog", "run_fixture", "fixture_ids"),
    "modelio": ("parse_problem", "load_problem"),
    "cli": ("main",),
}

LP = "simplex.solve_lp"
CONTAINS = "cones.ConeQ.contains"
RAY = "cones.ConeQ.min_a_with_witness"
FACETS = "cones.ConeQ._compute_facets"
FUJITA = "invariants.fujita"
ZARISKI = ("delpezzo.zariski_decompose", "delpezzo.zariski_for_variety")
ENUMERATE = "delpezzo.enumerate_negative_curves"
POLYTOPE = "toric.divisor_polytope"
NS_PRESENTATION = "toric.ns_presentation"
LOAD_CATALOG = "fixtures.load_catalog"

def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """In-memory spans: [name, start, end, parent index, query index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1  # -1 while setting up, else the running query's index
        self.paused = False  # set while the benchmark checks an answer
        self.lp_cols = 0  # largest LP of a query: columns
        self.lp_bits = 0  # and numerator/denominator bits of its solution
        self.facets_count = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        lp = name == LP
        facets = name == FACETS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if lp and rec[4] >= 0:
                c = args[2] if len(args) > 2 else kwargs["c"]
                self.lp_cols = max(self.lp_cols, len(c))
                vals = list(out.x or ()) + ([out.objective] if out.objective is not None else [])
                self.lp_bits = max([self.lp_bits] + [_bits(v) for v in vals])
            elif facets:
                self.facets_count += len(args[0]._facets)
            return out

        return span

    def install(self):
        """Wrap every target at every binding in the loaded `fujita` modules."""
        homes = {layer: importlib.import_module(f"fujita.{layer}") for layer in TARGETS}
        mods = [m for n, m in sys.modules.items() if n == "fujita" or n.startswith("fujita.")]
        for layer, names in TARGETS.items():
            home = homes[layer]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    if isinstance(orig, property):
                        new = property(self._wrap(f"{layer}.{qual}", orig.fget))
                    else:
                        new = self._wrap(f"{layer}.{qual}", orig)
                    setattr(cls, attr, new)
                    continue
                orig = getattr(home, qual)
                wrapped = self._wrap(f"{layer}.{qual}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def partial(self, import_s: float) -> dict:
        """Additive per-process sums; merge several with `merge`."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        s: dict[str, float] = {}

        def add(key, val):
            s[key] = s.get(key, 0) + val

        lp_ms = []
        zariski = set(ZARISKI)
        for i, (name, t0, t1, parent, query) in enumerate(spans):
            dur = t1 - t0
            own = dur - child_s[i]
            layer = name.split(".", 1)[0]
            pname = spans[parent][0] if parent >= 0 else ""
            add(f"calls.{name}", 1)
            add(f"own_s.{name}", own)
            add(f"self_s.{layer}", own)
            if pname != name:
                add(f"incl_s.{name}", dur)
            if pname.split(".", 1)[0] != layer:
                add(f"outer_s.{layer}", dur)
            if query >= 0:
                add(f"query_calls.{name}", 1)
                add(f"query_own_s.{name}", own)
                add(f"query_self_s.{layer}", own)
                if parent < 0:
                    add("query_program_s", dur)
            if name == LP:
                if query >= 0:
                    lp_ms.append(dur * 1000.0)
                if pname == CONTAINS:
                    add("contains_with_lp", 1)
                anc = parent
                while anc >= 0 and spans[anc][0] != POLYTOPE:
                    anc = spans[anc][3]
                if anc >= 0:
                    add("polytope_lp", 1)
            elif name in zariski and pname not in zariski:
                add("zariski_calls", 1)
        return {
            "sum": s,
            "max": {"cols": self.lp_cols, "x_bits": self.lp_bits},
            "facets_count": self.facets_count,
            "lp_ms": lp_ms,
            "import_s": [import_s],
        }


def merge(partials: list[dict]) -> dict:
    out = {"sum": {}, "max": {}, "facets_count": 0, "lp_ms": [], "import_s": []}
    for p in partials:
        for k, v in p["sum"].items():
            out["sum"][k] = out["sum"].get(k, 0) + v
        for k, v in p["max"].items():
            out["max"][k] = max(out["max"].get(k, 0), v)
        out["facets_count"] += p["facets_count"]
        out["lp_ms"] += p["lp_ms"]
        out["import_s"] += p["import_s"]
    return out


def layer_metrics(p: dict, queries: int) -> dict[str, float]:
    """Per-layer metrics from merged sums over `queries` queries.  Call
    counts and layer times cover the whole traced process, set-up included;
    `*_per_query`, `*_share` and the LP sizes and times of `simplex` count
    only spans opened while a query ran."""
    s = p["sum"]

    def g(key):
        return s.get(key, 0)

    query_program = g("query_program_s") or 1.0
    lp_calls = g(f"calls.{LP}")
    polytopes = g(f"calls.{POLYTOPE}")
    contains = g(f"calls.{CONTAINS}")
    qlinalg_calls = sum(v for k, v in s.items() if k.startswith("calls.qlinalg."))
    return {
        "simplex.lp_calls": lp_calls,
        "simplex.lp_per_query": g(f"query_calls.{LP}") / queries,
        "simplex.self_s": g("self_s.simplex"),
        "simplex.share": g("query_self_s.simplex") / query_program,
        "simplex.ms_per_lp_p50": statistics.median(p["lp_ms"]) if p["lp_ms"] else 0.0,
        "simplex.cols_max": p["max"].get("cols", 0),
        "simplex.x_bits_max": p["max"].get("x_bits", 0),
        "cones.contains_calls": contains,
        "cones.contains_lp_frac": g("contains_with_lp") / contains if contains else 0.0,
        "cones.ray_calls": g(f"calls.{RAY}"),
        "cones.facets_s": g(f"incl_s.{FACETS}"),
        "cones.facets_count": p["facets_count"],
        "cones.self_s": g("self_s.cones"),
        "invariants.fujita_per_query": g(f"query_calls.{FUJITA}") / queries,
        "invariants.self_s": g("self_s.invariants"),
        "delpezzo.zariski_calls": g("zariski_calls"),
        "delpezzo.zariski_self_s": sum(g(f"own_s.{z}") for z in ZARISKI),
        "delpezzo.zariski_share": sum(g(f"query_own_s.{z}") for z in ZARISKI) / query_program,
        "delpezzo.enumerate_s": g(f"incl_s.{ENUMERATE}"),
        "toric.polytope_calls": polytopes,
        "toric.lp_per_polytope": g("polytope_lp") / polytopes if polytopes else 0.0,
        "toric.polytope_self_s": g(f"own_s.{POLYTOPE}"),
        "toric.polytope_share": g(f"query_own_s.{POLYTOPE}") / query_program,
        "toric.ns_presentation_s": g(f"incl_s.{NS_PRESENTATION}"),
        "qlinalg.calls": qlinalg_calls,
        "qlinalg.self_s": g("self_s.qlinalg"),
        "fixtures.load_catalog_calls": g(f"calls.{LOAD_CATALOG}"),
        "fixtures.load_catalog_s": g(f"incl_s.{LOAD_CATALOG}"),
        "modelio.parse_s": g("outer_s.modelio"),
        "cli.import_s": statistics.median(p["import_s"]),
    }
