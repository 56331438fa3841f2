"""Spans and counters around the library's public functions, from outside.

`Tracer.install()` replaces each listed function with a wrapper at every
binding site: the defining module, every `quantales` module that imported
the name (`from .openness import frobenius_report` and the like) and the
package namespace.  Spans record name, start, end, parent span and job id
and stay in memory until `Tracer.write`.  Hot methods get counters only,
so a traced run stays usable.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> [(module, attribute)], attribute may be "Class.method"
SPANS = {
    "freeprod.verify_relation_compatibility":
        [("quantales.freeprod", "verify_relation_compatibility")],
    "freeprod.verify_adjunction_on_words":
        [("quantales.freeprod", "verify_adjunction_on_words")],
    "freeprod.verify_pullback_frobenius":
        [("quantales.freeprod", "verify_pullback_frobenius")],
    "freeprod.verify_beck_chevalley":
        [("quantales.freeprod", "verify_beck_chevalley")],
    "subspaces.rref": [("quantales.subspaces", "rref")],
    "openness.check_semiopen": [("quantales.openness", "check_semiopen")],
    "openness.check_fr1": [("quantales.openness", "check_fr1")],
    "openness.check_fr1_right": [("quantales.openness", "check_fr1_right")],
    "openness.check_fr2": [("quantales.openness", "check_fr2")],
    "openness.check_direct_image_involution":
        [("quantales.openness", "check_direct_image_involution")],
    "openness.frobenius_report": [("quantales.openness", "frobenius_report")],
    "openness.is_surjective": [("quantales.quantale", "is_surjective")],
    "quantale.validate_quantale": [("quantales.quantale", "validate_quantale")],
    "quantale.validate_hom": [("quantales.quantale", "validate_hom")],
    "quantale.ensure_left_adjoint":
        [("quantales.quantale", "ensure_left_adjoint")],
    "suplattice.validate_lattice":
        [("quantales.suplattice", "validate_lattice")],
    "suplattice.left_adjoint": [("quantales.suplattice", "left_adjoint")],
    "suplattice.right_adjoint": [("quantales.suplattice", "right_adjoint")],
    "suplattice.is_sup_map": [("quantales.suplattice", "is_sup_map")],
    "nucleus.saturate_relation": [("quantales.nucleus", "saturate_relation")],
    "nucleus.nucleus_from_relation":
        [("quantales.nucleus", "nucleus_from_relation")],
    "nucleus.quotient": [("quantales.nucleus", "quotient")],
    "tensor.elements": [("quantales.tensor", "TensorLattice.elements")],
    "fileformats.load": [("quantales.fileformats", name) for name in (
        "load_json", "lattice_from_doc", "quantale_from_doc", "map_from_doc",
        "relation_from_doc")],
    "examples.build": [("quantales.examples", name) for name in (
        "cyclic_group", "symmetric_group_3", "pair_groupoid",
        "powerset_quantale", "rel_quantale", "group_powerset_quantale",
        "omega_quantale", "product_quantale", "matrix_max_quantale",
        "matrix_support_map", "group_algebra_quantale",
        "group_algebra_support_map", "z2_group_algebra_finite_map",
        "locale_quantale", "finite_locale_map", "omega_support_map",
        "delta_embedding_map", "omega_pair_projection_map",
        "standard_map_corpus")],
}
CLI_COMMANDS = ("validate", "check_map", "quotient", "tensor",
                "pullback_verify", "example", "report_verify")
for _cmd in CLI_COMMANDS:
    SPANS[f"cli.{_cmd}"] = [("quantales.cli", f"cmd_{_cmd}")]

# counter name -> (module, "Class.method" or function, distinct-ratio name);
# the ratio counts distinct argument tuples after the first argument
COUNTERS = {
    "quantale.finite_mult.calls": ("quantales.quantale",
                                   "FiniteInvQuantale.mult", None),
    "freeprod.word_constructions": ("quantales.freeprod", "Word.__post_init__",
                                    None),
    "freeprod.direct_image.calls": ("quantales.freeprod", "word_direct_image",
                                    "freeprod.direct_image.distinct_ratio"),
    "subspaces.mult.calls": ("quantales.examples", "MaxAlgebraQuantale.mult",
                             "subspaces.mult.distinct_ratio"),
    "subspaces.leq.calls": ("quantales.subspaces", "RationalSubspace.leq",
                            None),
}

# spans whose calls are reported beside their self time
SPAN_CALLS = ("subspaces.rref", "quantale.validate_quantale",
              "quantale.validate_hom", "quantale.ensure_left_adjoint",
              "suplattice.validate_lattice", "suplattice.left_adjoint",
              "suplattice.right_adjoint", "suplattice.is_sup_map")
LAYERS = ("freeprod", "subspaces", "openness", "quantale", "suplattice",
          "nucleus", "tensor", "fileformats", "cli", "examples")


def per_layer_names():
    """Every per-layer metric with its unit and direction, in report order."""
    out = []
    for name in SPANS:
        if name in SPAN_CALLS:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name in ("freeprod.relation_instances", "freeprod.words_checked",
                 "freeprod.module_instances", "freeprod.case_instances",
                 "freeprod.word_constructions", "freeprod.direct_image.calls",
                 "subspaces.mult.calls", "subspaces.leq.calls",
                 "subspaces.star.calls", "subspaces.shriek.calls",
                 "quantale.finite_mult.calls", "openness.evaluations",
                 "nucleus.saturated_pairs", "tensor.bi_ideals",
                 "fileformats.report_bytes"):
        out.append((name, "bytes" if name.endswith("bytes") else "count",
                    "lower"))
    out += [("freeprod.direct_image.distinct_ratio", "ratio", "higher"),
            ("subspaces.mult.distinct_ratio", "ratio", "higher"),
            ("openness.s_per_evaluation", "s", "lower"),
            ("cli.report_verify.replayed", "count", "higher"),
            ("cli.report_verify.skipped", "count", "lower")]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.run_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _resolve(module, attr):
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, attr, getattr(mod, attr)


def _evaluations(result):
    chk = result[1] if isinstance(result, tuple) else result
    return getattr(chk, "evaluations", 0)


# span name -> function(tracer, result) adding to the tracer's counts
RESULT_HOOKS = {
    "freeprod.verify_relation_compatibility": lambda t, r: t.add(
        "freeprod.relation_instances", r.total_instances),
    "freeprod.verify_adjunction_on_words": lambda t, r: t.add(
        "freeprod.words_checked", r.words_checked),
    "freeprod.verify_pullback_frobenius": lambda t, r: (
        t.add("freeprod.module_instances", r.module_instances),
        t.add("freeprod.case_instances",
              sum(v["instances"] for v in r.cases.values()))),
    "nucleus.saturate_relation": lambda t, r: t.add(
        "nucleus.saturated_pairs", len(r)),
}
for _name in ("check_semiopen", "check_fr1", "check_fr1_right", "check_fr2",
              "check_direct_image_involution"):
    RESULT_HOOKS[f"openness.{_name}"] = lambda t, r: t.add(
        "openness.evaluations", _evaluations(r))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.patched = []

    def add(self, name, n):
        self.counts[name] += n

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        first_enumeration = name == "tensor.elements"
        tracer = self

        def wrapper(*args, **kwargs):
            fresh = first_enumeration and args[0]._elements is None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                              tracer.job)
            if hook is not None:
                hook(tracer, result)
            if fresh:
                tracer.counts["tensor.bi_ideals"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn, ratio):
        counts = self.counts
        if ratio is None:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        else:
            seen = self.distinct[ratio]

            def wrapper(*args):
                counts[name] += 1
                seen.add(args[1:])
                return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _effective_map_counter(self, kind, fn):
        counts, key = self.counts, f"subspaces.{kind}.calls"

        def wrapper(self, x):
            if not self.source.is_finite:
                counts[key] += 1
            return fn(self, x)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _bind(self, module, attr, wrapper_for):
        owner, name, original = _resolve(module, attr)
        wrapper = wrapper_for(original)
        if "." in attr:
            setattr(owner, name, wrapper)
            self.patched.append((owner, name, original))
            return
        # every module that bound the name by import holds the same object
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "quantales" and not mod_name.startswith("quantales."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self.patched.append((mod, key, original))

    def install(self):
        import quantales.cli  # noqa: F401  (load every binding site)
        import quantales.examples  # noqa: F401
        import quantales.freeprod  # noqa: F401
        for name, sites in SPANS.items():
            for module, attr in sites:
                self._bind(module, attr, lambda fn, n=name: self._span(n, fn))
        for name, (module, attr, ratio) in COUNTERS.items():
            self._bind(module, attr,
                       lambda fn, n=name, r=ratio: self._counter(n, fn, r))
        for kind in ("star", "shriek"):
            self._bind("quantales.quantale", f"QuantaleMap.{kind}",
                       lambda fn, k=kind: self._effective_map_counter(k, fn))

    def uninstall(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls, self_s = defaultdict(int), defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - covered[idx]
        return calls, self_s

    def metrics(self, extra):
        """Every per-layer metric; `extra` holds what the worker measured."""
        calls, self_s = self.self_times()
        values = {}
        for name in SPANS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values.update(self.counts)
        for name, (_, _, ratio) in COUNTERS.items():
            if ratio is not None:
                n = self.counts[name]
                values[ratio] = len(self.distinct[ratio]) / n if n else 0.0
        # inclusive time of the outermost openness checks per evaluation
        inclusive = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if name.startswith("openness.") and not self._under(parent,
                                                                "openness."):
                inclusive += t1 - t0
        evals = self.counts["openness.evaluations"]
        values["openness.s_per_evaluation"] = inclusive / evals if evals else 0.0
        for layer in LAYERS:
            values[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        values.update(extra)
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in per_layer_names()}

    def _under(self, idx, prefix):
        while idx >= 0:
            if self.spans[idx][0].startswith(prefix):
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": [[index[n], t0, t1, p, j]
                                 for n, t0, t1, p, j in self.spans]}, fh)
