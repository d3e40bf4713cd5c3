"""Spans and counters recorded from outside the program.

The tracer wraps functions of the mtlfi modules in place.  A module that
imported a name (``from .semantics import truth_consequence``) holds its own
reference, so every loaded ``mtlfi.*`` namespace, and every dict stored in
one (``suite.CRITERIA``), is searched for the original object and patched.
``uninstall`` restores all of them, so traced and untraced rounds can
alternate in one process.

A span is ``[name, start_ns, end_ns, parent_index, query_id]``.  Self time is
a span's duration minus the durations of its direct children.  Hot leaf
functions (tree evaluation, standard-chain arithmetic, operator lookups) are
counted, not spanned: a span per call would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute[, label]): spanned as "module.label", label defaulting
# to the attribute
SPANNED = [
    ("chain", "validate_mtl_laws"), ("chain", "builtin_chains"),
    ("chain", "quotient_by_filter"),
    ("formula", "parse"), ("formula", "normalize"), ("formula", "match_schema"),
    ("operators", "enumerate_ops"), ("operators", "validate_c"),
    ("operators", "validate_algebraic"), ("operators", "validate_bullet"),
    ("semantics", "truth_consequence"), ("semantics", "degree_consequence"),
    ("semantics", "_finite_search", "consequence_finite"),
    ("semantics", "_standard_search", "consequence_standard"),
    ("semantics", "_sampled_search", "consequence_sampled"),
    ("semantics", "compile_finite"), ("semantics", "check_lfi"),
    ("semantics", "check_propagation"), ("semantics", "check_dat_axiom"),
    ("semantics", "pdat_search"), ("semantics", "classical_taut"),
    ("semantics", "bridge_check"), ("semantics", "deduction_power_bound"),
    ("hilbert", "parse_proof"), ("hilbert", "verify_proof"),
    ("hilbert", "validate_pairing"), ("hilbert", "soundness_bridge"),
    ("proofs", "fixture_chains"), ("proofs", "fixture_models"),
    ("suite", "run_suite"), ("cli", "main"),
] + [("suite", f"criterion_{n}", f"criterion_{n:02d}") for n in range(1, 13)]

# (module, class or None, attribute, counter name)
COUNTED = [
    ("semantics", None, "evaluate", "semantics.evaluate.nodes"),
    ("chain", "StandardChain", "tnorm", "chain.standard_arith.calls"),
    ("chain", "StandardChain", "residuum", "chain.standard_arith.calls"),
    ("operators", "ConsistencyOp", "value", "operators.value.calls"),
]

# A call under one of these spans is counted instead of spanned:
# enumerate_ops runs validate_c once per candidate map (n**n times).
INLINE_UNDER = {"operators.validate_c": ("operators.enumerate_ops",
                                         "operators.enumerate_ops.candidates")}


def _var_count(args) -> int:
    from mtlfi.formula import variables
    premises, conclusion = args[1], args[2]
    return len(set().union(variables(conclusion),
                           *[variables(p) for p in premises]))


def _after_search(cap_name, prefix):
    def hook(tracer, args, result):
        import mtlfi.semantics as sem
        if _var_count(args) > getattr(sem, cap_name):
            if prefix == "semantics.consequence_finite" and result.verdict == "unknown":
                tracer.counters[prefix + ".sampled"] += 1
            return
        tracer.counters[prefix + ".assignments"] += result.checked
        tracer.counters[prefix + ".searches"] += 1
        if result.verdict == "unknown":
            tracer.counters[prefix + ".unknown"] += 1
    return hook


def _after_sampled(tracer, args, result):
    tracer.counters["semantics.consequence_sampled.assignments"] += result.checked


def _after_enumerate(tracer, args, result):
    tracer.counters["operators.enumerate_ops.valid"] += len(result)


def _after_verify(tracer, args, result):
    lines = args[0].lines
    if result.ok:
        tracer.counters["hilbert.lines_checked"] += len(lines)
    else:
        tracer.counters["hilbert.lines_checked"] += sum(
            1 for line in lines if line.number <= result.line)


def _after_parse(tracer, args, result):
    tracer.counters["formula.parse.calls"] += 1


AFTER = {
    "semantics.consequence_finite": _after_search("FINITE_VAR_CAP",
                                                  "semantics.consequence_finite"),
    "semantics.consequence_standard": _after_search("STANDARD_VAR_CAP",
                                                    "semantics.consequence_standard"),
    "semantics.consequence_sampled": _after_sampled,
    "operators.enumerate_ops": _after_enumerate,
    "hilbert.verify_proof": _after_verify,
    "formula.parse": _after_parse,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.stack: list = []
        self.query_id = None
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        after = AFTER.get(name)
        inline = INLINE_UNDER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0:
                pname = spans[parent][0]
                if pname == name:                  # recursion stays one span
                    return fn(*args, **kwargs)
                if inline and pname == inline[0]:
                    self.counters[inline[1]] += 1
                    return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0, parent, self.query_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "mtlfi" and not modname.startswith("mtlfi."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def install(self) -> None:
        import importlib
        for entry in SPANNED:
            modname, attr = entry[0], entry[1]
            label = entry[2] if len(entry) > 2 else attr
            module = importlib.import_module(f"mtlfi.{modname}")
            original = getattr(module, attr)
            self._patch_everywhere(original,
                                   self._span_wrapper(f"{modname}.{label}", original))
        for modname, cls, attr, counter in COUNTED:
            module = importlib.import_module(f"mtlfi.{modname}")
            if cls is None:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._count_wrapper(counter, original))
            else:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(counter, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and counters as JSON (one document)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times_ns(spans) -> dict:
    """Total self time per span name, in nanoseconds."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def durations_ns(spans) -> dict:
    out: Counter = Counter()
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out
