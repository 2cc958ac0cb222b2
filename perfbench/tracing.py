"""Spans around permahank's public functions, recorded from outside the package.

A `Patches` object replaces attributes and puts every original back in reverse
order.  A `Tracer` uses it to wrap each traced function in every permahank
namespace that binds it (``ideal_ops.buchberger``, ``verify.colon`` and
``groebner.buchberger`` are separate bindings of one function, and each call
site looks up its own), plus the traced methods on their classes.  Each call
appends one span ``[parent, name, field, start, end, note]`` to an in-memory
list; the span id is its index.  Per-layer metrics are derived from one timed
pass's spans by `pass_metrics`.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from time import perf_counter

MODULES = ("", ".ring", ".hankel", ".groebner", ".ideal_ops", ".verify", ".cli")
FIELDS = ("q", "gfp")


def _extended(gens):
    # auxiliary variables (t for intersect, y for radical_member) are
    # prepended to the default names x1..xN
    return gens[0].ring.names[0] != "x1"


# (span name, defining module, attribute or "Class.method", note).  A note
# computes the one figure a metric needs from the call's arguments and result.
TRACED = [
    ("ring.parse", "ring", "parse", None),
    ("ring.format", "ring", "Polynomial.format", None),
    *[("ring.poly_op", "ring", f"Polynomial.__{op}__", None)
      for op in ("add", "radd", "sub", "rsub", "neg", "mul", "rmul", "pow")],
    ("hankel.permanent_generators", "hankel", "permanent_generators", None),
    ("hankel.permanent_index_triples", "hankel", "permanent_index_triples", None),
    ("hankel.permanent_ideal", "hankel", "permanent_ideal", None),
    ("groebner.normal_form", "groebner", "normal_form", lambda a, k, r: len(a[1])),
    ("groebner.contains", "groebner", "GroebnerBasis.contains", None),
    ("groebner.buchberger", "groebner", "buchberger",
     lambda a, k, r: (len(a[0]), len(r), _extended(a[0]))),
    ("groebner.inter_reduce", "groebner", "inter_reduce", None),
    ("groebner.is_groebner", "groebner", "is_groebner",
     lambda a, k, r: len(a[0]) * (len(a[0]) - 1) // 2),
    ("groebner.s_polynomial", "groebner", "s_polynomial", None),
    ("ideal_ops.reduced_basis", "ideal_ops", "Ideal.reduced_basis", None),
    ("ideal_ops.contains", "ideal_ops", "Ideal.contains", None),
    ("ideal_ops.add", "ideal_ops", "Ideal.__add__", None),
    ("ideal_ops.intersect", "ideal_ops", "intersect", None),
    ("ideal_ops.colon", "ideal_ops", "colon", None),
    ("ideal_ops.saturate", "ideal_ops", "saturate", lambda a, k, r: r[1]),
    ("ideal_ops.radical_member", "ideal_ops", "radical_member", None),
    ("ideal_ops.equal", "ideal_ops", "equal", None),
    ("ideal_ops.why_unequal", "ideal_ops", "why_unequal", None),
    # claim checks, grouped as `verify --check` groups them
    ("verify.gb", "verify", "verify_gb", None),
    ("verify.decomp", "verify", "verify_decomposition", None),
    ("verify.primary", "verify", "verify_primary_properties", None),
    ("verify.assoc", "verify", "verify_associated_maximal", None),
    ("verify.lemmas", "verify", "verify_reduction_lemma", None),
    ("verify.lemmas", "verify", "verify_membership_lemmas", None),
    ("verify.lemmas", "verify", "verify_bound_lemma", None),
    ("verify.run_case", "verify", "run_case", None),
    ("verify.decomposition_summary", "verify", "decomposition_summary", None),
    ("verify.classify_embedded", "verify", "classify_embedded", None),
    ("verify.closed_form_gb", "verify", "closed_form_gb", None),
    ("verify.minimal_primes", "verify", "minimal_primes", None),
    ("verify.q1", "verify", "q1", None),
    ("verify.q2", "verify", "q2", None),
    ("verify.embedded_j", "verify", "embedded_j", None),
    ("verify.alphas", "verify", "alphas", None),
    ("verify.rewrite_monomial_indices", "verify", "rewrite_monomial_indices", None),
    ("cli.main", "cli", "main", None),
]


def layer_of(name):
    return name.split(".", 1)[0]


def _timed(name, unit, moves):
    return [(f"{name}.{f}", unit, moves) for f in FIELDS]


# Every per-layer metric: (name, unit, the end-to-end metric it should move).
LAYER_METRICS = [
    ("groebner.normal_form.calls", "count", "wall_s, item_p50_ms: mostly queries, partly verify, barely decompose"),
    *_timed("groebner.normal_form.s", "s", "wall_s: mostly queries, partly verify, barely decompose"),
    ("groebner.normal_form.reducers_in", "count", "item_p50_ms on queries"),
    *_timed("groebner.normal_form.us_per_call", "us", "item_p50_ms on queries"),
    ("groebner.contains.calls", "count", "wall_s on queries and verify"),
    ("groebner.buchberger.calls", "count", "wall_s on decompose and verify; setup_s only on queries"),
    *_timed("groebner.buchberger.s", "s", "wall_s on decompose and verify; setup_s only on queries"),
    ("groebner.buchberger.gens_in", "count", "wall_s on decompose and verify"),
    ("groebner.buchberger.basis_out", "count", "wall_s on decompose and verify; peak_rss_mb"),
    ("groebner.buchberger.ext_calls", "count", "wall_s on decompose and verify"),
    *_timed("groebner.buchberger.ext_s", "s", "wall_s on decompose and verify"),
    ("ideal_ops.intersect.calls", "count", "wall_s on decompose and verify"),
    *_timed("ideal_ops.intersect.s", "s", "wall_s on decompose and verify"),
    ("ideal_ops.colon.calls", "count", "wall_s on decompose and verify"),
    *_timed("ideal_ops.colon.s", "s", "wall_s on decompose and verify"),
    ("ideal_ops.saturate.calls", "count", "wall_s on decompose"),
    ("ideal_ops.saturate.steps", "count", "wall_s on decompose"),
    ("ideal_ops.equal.calls", "count", "wall_s on decompose and verify"),
    ("ideal_ops.reduced_basis.calls", "count", "wall_s on verify and decompose; peak_rss_mb"),
    ("ideal_ops.reduced_basis.hit_ratio", "ratio", "wall_s on verify and decompose; peak_rss_mb"),
    ("ideal_ops.radical_member.calls", "count", "wall_s on verify and decompose"),
    ("ideal_ops.radical_member.fast_ratio", "ratio", "wall_s on verify and decompose"),
    ("groebner.is_groebner.calls", "count", "wall_s on verify only"),
    ("groebner.is_groebner.pairs", "count", "wall_s on verify only"),
    *_timed("groebner.is_groebner.s", "s", "wall_s on verify only"),
    *_timed("groebner.inter_reduce.s", "s", "wall_s on verify only"),
    *_timed("verify.gb.s", "s", "wall_s, item_tail_ms on verify only"),
    *_timed("verify.decomp.s", "s", "wall_s, item_tail_ms on verify only"),
    *_timed("verify.primary.s", "s", "wall_s on verify only"),
    *_timed("verify.assoc.s", "s", "wall_s on verify only"),
    *_timed("verify.lemmas.s", "s", "wall_s, item_p50_ms on verify only"),
    *_timed("cli.self_s", "s", "wall_s on verify only"),
    *_timed("verify.self_s", "s", "wall_s on verify and decompose"),
    *_timed("groebner.self_s", "s", "wall_s on every workload"),
    *_timed("ideal_ops.self_s", "s", "wall_s on decompose and verify"),
    *_timed("hankel.self_s", "s", "wall_s on verify"),
    ("hankel.permanent_generators.calls", "count", "wall_s on verify and decompose"),
    *_timed("hankel.permanent_generators.s", "s", "wall_s on verify and decompose"),
    ("ring.poly_ops.calls", "count", "wall_s on verify and decompose"),
    *_timed("ring.self_s", "s", "wall_s on verify and decompose"),
    ("trace.wall_s", "s", "wall_s plus tracing cost"),
    ("trace.overhead", "ratio", "none: traced over untraced pass wall time, minus one"),
    ("trace.accounted", "ratio", "none: layer self times over traced pass wall time"),
]


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def bindings(pkg, fn):
    """Every (namespace, attribute) in permahank's modules that binds fn."""
    out = []
    for suffix in MODULES:
        mod = sys.modules[pkg.__name__ + suffix]
        out.extend((mod, attr) for attr, v in vars(mod).items() if v is fn)
    return out


def resolve(pkg, module, attr):
    """(owner, attribute, original) for a traced function or method."""
    owner = sys.modules[f"{pkg.__name__}.{module}"]
    cls, _, meth = attr.rpartition(".")
    if cls:
        owner = vars(owner)[cls]
        attr = meth
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records a span for every call of a traced function while installed.

    `field` is set by the workload before each item, so spans carry the
    coefficient field of the item that caused them.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self.field = FIELDS[0]
        self._top = -1
        self._patches = Patches()

    def _wrap(self, name, fn, note):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = tracer._top
            rec = [parent, name, tracer.field, perf_counter(), 0.0, None]
            tracer._top = len(spans)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                tracer._top = parent
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self):
        for name, module, attr, note in TRACED:
            owner, attr, orig = resolve(self.pkg, module, attr)
            wrapped = self._wrap(name, orig, note)
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapped)
            else:
                for ns, bound in bindings(self.pkg, orig):
                    self._patches.set(ns, bound, wrapped)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def take(self):
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def pass_metrics(spans, wall):
    """Per-layer metrics of one traced pass (no tracing-overhead figures)."""
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    has_gb_child = set()
    for i, s in enumerate(spans):
        p = s[0]
        if p >= 0:
            child[p] += dur[i]
            if s[1] == "groebner.buchberger":
                has_gb_child.add(p)
    calls = {}
    field_calls = {}
    incl = {}
    selfs = {}
    extra = {"reducers_in": 0, "gens_in": 0, "basis_out": 0, "ext_calls": 0,
             "pairs": 0, "steps": 0, "rb_hits": 0, "rm_fast": 0, "poly_ops": 0}
    for i, (p, name, field, _, _, note) in enumerate(spans):
        layer = layer_of(name)
        calls[name] = calls.get(name, 0) + 1
        field_calls[name, field] = field_calls.get((name, field), 0) + 1
        incl[name, field] = incl.get((name, field), 0.0) + dur[i]
        selfs[layer, field] = selfs.get((layer, field), 0.0) + dur[i] - child[i]
        if name == "groebner.normal_form":
            extra["reducers_in"] += note
        elif name == "groebner.buchberger":
            extra["gens_in"] += note[0]
            extra["basis_out"] += note[1]
            if note[2]:
                extra["ext_calls"] += 1
                incl["ext", field] = incl.get(("ext", field), 0.0) + dur[i]
        elif name == "groebner.is_groebner":
            extra["pairs"] += note
        elif name == "ideal_ops.saturate":
            extra["steps"] += note
        elif name == "ideal_ops.reduced_basis" and i not in has_gb_child:
            extra["rb_hits"] += 1
        elif name == "ideal_ops.radical_member" and i not in has_gb_child:
            extra["rm_fast"] += 1
        if layer == "ring" and (p < 0 or layer_of(spans[p][1]) != "ring"):
            extra["poly_ops"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "groebner.normal_form.calls": calls.get("groebner.normal_form", 0),
        "groebner.normal_form.reducers_in": extra["reducers_in"],
        "groebner.contains.calls": calls.get("groebner.contains", 0),
        "groebner.buchberger.calls": calls.get("groebner.buchberger", 0),
        "groebner.buchberger.gens_in": extra["gens_in"],
        "groebner.buchberger.basis_out": extra["basis_out"],
        "groebner.buchberger.ext_calls": extra["ext_calls"],
        "ideal_ops.intersect.calls": calls.get("ideal_ops.intersect", 0),
        "ideal_ops.colon.calls": calls.get("ideal_ops.colon", 0),
        "ideal_ops.saturate.calls": calls.get("ideal_ops.saturate", 0),
        "ideal_ops.saturate.steps": extra["steps"],
        "ideal_ops.equal.calls": calls.get("ideal_ops.equal", 0),
        "ideal_ops.reduced_basis.calls": calls.get("ideal_ops.reduced_basis", 0),
        "ideal_ops.reduced_basis.hit_ratio": ratio(
            extra["rb_hits"], calls.get("ideal_ops.reduced_basis", 0)
        ),
        "ideal_ops.radical_member.calls": calls.get("ideal_ops.radical_member", 0),
        "ideal_ops.radical_member.fast_ratio": ratio(
            extra["rm_fast"], calls.get("ideal_ops.radical_member", 0)
        ),
        "groebner.is_groebner.calls": calls.get("groebner.is_groebner", 0),
        "groebner.is_groebner.pairs": extra["pairs"],
        "hankel.permanent_generators.calls": calls.get("hankel.permanent_generators", 0),
        "ring.poly_ops.calls": extra["poly_ops"],
        "trace.wall_s": wall,
        "trace.accounted": ratio(sum(selfs.values()), wall),
    }
    for f in FIELDS:
        for name in (
            "groebner.normal_form", "groebner.buchberger", "groebner.is_groebner",
            "groebner.inter_reduce", "ideal_ops.intersect", "ideal_ops.colon",
            "verify.gb", "verify.decomp", "verify.primary", "verify.assoc",
            "verify.lemmas", "hankel.permanent_generators",
        ):
            out[f"{name}.s.{f}"] = incl.get((name, f), 0.0)
        out[f"groebner.buchberger.ext_s.{f}"] = incl.get(("ext", f), 0.0)
        out[f"groebner.normal_form.us_per_call.{f}"] = 1e6 * ratio(
            incl.get(("groebner.normal_form", f), 0.0),
            field_calls.get(("groebner.normal_form", f), 0),
        )
        for layer in ("cli", "verify", "groebner", "ideal_ops", "hankel", "ring"):
            out[f"{layer}.self_s.{f}"] = selfs.get((layer, f), 0.0)
    return out


def combine(per_pass, traced_walls, untraced_walls):
    """One figure per metric from several traced passes.

    Counts must repeat exactly from pass to pass; times are medians.  The
    overhead compares the wall times of traced and untraced passes, both
    scaled to the reference speed.  Returns (metrics, counts_repeat).
    """
    out = {}
    repeat = True
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead":
            continue
        values = [m[name] for m in per_pass]
        if unit == "count":
            repeat &= all(v == values[0] for v in values)
            out[name] = values[0]
        else:
            out[name] = median(values)
    out["trace.overhead"] = median(traced_walls) / median(untraced_walls) - 1.0
    return out, repeat


def write_spans(path, passes):
    """Write every traced pass's spans as JSON lines: one pass per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for spans in passes:
            fh.write(json.dumps(spans, separators=(",", ":")) + "\n")
