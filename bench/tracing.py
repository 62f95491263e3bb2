"""Spans around qbracket's cross-module calls, installed from outside the library.

``Patch`` swaps a function for a wrapper in every ``qbracket`` module
namespace that binds it (so calls made through ``from .x import f`` names are
caught too) and restores the originals afterwards.  ``Tracer`` records one
span per wrapped call -- layer, operation, start, end and the causing span --
and folds them into per-layer self time, error counts and the exact work
counts listed in ``PER_LAYER``.  Per-term hot paths (``Polynomial`` arithmetic,
``resolve_state``) are never wrapped; their work is derived from input sizes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("diagram", "classical", "bracket3", "multipoly", "quotient", "search", "cli")

#: The wrapped functions of each layer (module-level names unless a class is given).
WRAPPED = {
    "diagram": ("parse_braid", "parse_pd", "closure", "orient", "writhe", "components",
                "conjugate", "add_kink", "rewrite_moves"),
    "classical": ("kauffman_bracket", "f_invariant", "format_laurent", "parse_laurent"),
    "bracket3": ("bracket3_raw", "bracket3", "ambient3", "ambient3_with_circle_factors",
                 "tl_transfer", "tl_evaluate", "raw_bracket"),
    "multipoly": ("format_poly", "parse_poly", "buchberger", "reduce_basis", "s_poly"),
    "quotient": ("normal_form", "is_normal", "specialize_classical", "verify_groebner",
                 "verify_all_branches"),
    "search": ("parse_presentation", "load_table", "fingerprint", "compute_record",
               "compute_records", "bucket_by_classical", "bucket_digest", "conjecture_scan"),
    "cli": ("main", "build_parser", "cmd_bracket", "cmd_bracket3", "cmd_verify_groebner",
            "cmd_verify_variety", "cmd_verify_moves", "cmd_search"),
}
WRAPPED_METHODS = {"search": {"RecordCache": ("__init__", "lookup", "store")}}

#: Time metrics: outermost inclusive time of any operation in the group, so
#: nested calls (f_invariant -> kauffman_bracket) are counted once.
TIME_GROUPS = {
    "diagram.parse_s": ("parse_braid", "parse_pd", "closure"),
    "diagram.rewrite_s": ("rewrite_moves",),
    "classical.bracket_s": ("f_invariant", "kauffman_bracket"),
    "bracket3.naive_s": ("bracket3_raw",),
    "bracket3.tl_s": ("tl_evaluate", "tl_transfer"),
    "multipoly.pad_s": ("pad",),
    "multipoly.format_s": ("format_poly",),
    "quotient.nf_s": ("normal_form",),
    "search.load_s": ("load_table", "RecordCache.__init__"),
    "search.record_s": ("compute_records", "compute_record"),
    "search.bucket_s": ("bucket_by_classical", "bucket_digest"),
}
#: Operations whose self time also counts toward a time metric: the pair loop
#: of ``conjecture_scan`` is bucketing work.
SELF_TIME = {"conjecture_scan": "search.bucket_s"}
CALL_COUNTS = {
    "diagram.parse_calls": ("parse_braid", "parse_pd", "closure"),
    "diagram.rewrite_calls": ("rewrite_moves",),
    "classical.bracket_calls": ("kauffman_bracket",),
    "bracket3.naive_calls": ("bracket3_raw",),
    "bracket3.tl_calls": ("tl_transfer",),
    "quotient.nf_calls": ("normal_form",),
}

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {}
for _name in ("diagram.parse_s", "diagram.parse_calls", "diagram.rewrite_s", "diagram.rewrite_calls",
              "classical.bracket_s", "classical.bracket_calls", "classical.states",
              "bracket3.naive_s", "bracket3.naive_calls", "bracket3.naive_states", "bracket3.tl_s",
              "bracket3.tl_calls", "bracket3.tl_matchings_max", "bracket3.raw_terms_max",
              "multipoly.pad_s", "multipoly.padded_terms_max", "multipoly.format_s",
              "quotient.nf_s", "quotient.nf_calls", "quotient.nf_p50_s", "quotient.nf_in_terms",
              "quotient.nf_in_terms_max", "quotient.nf_out_terms", "quotient.coeff_bits_max",
              "search.load_s", "search.record_s", "search.records", "search.cache_hits",
              "search.cache_misses", "search.cache_hit_frac", "search.bucket_s", "search.pairs",
              "search.recomputes"):
    _unit = "s" if _name.endswith("_s") else "bit" if _name.endswith("bits_max") else "count"
    PER_LAYER[_name] = (_unit, "lower")
PER_LAYER["search.cache_hits"] = ("count", "higher")
PER_LAYER["search.cache_hit_frac"] = ("frac", "higher")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower")


def qbracket_namespaces() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "qbracket" or name.startswith("qbracket.")]


class Patch:
    """Replace functions everywhere they are bound; ``undo`` restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, fn, replacement, extra_namespaces=()) -> None:
        for ns in qbracket_namespaces() + list(extra_namespaces):
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, replacement)

    def method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _coeff_bits(p) -> int:
    return max((abs(c).bit_length() for _, c in p), default=0)


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.stack: list[list] = []          # [span id, layer, op, start, child seconds]
        self.active: Counter = Counter()     # open spans per time group
        self.group_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxes: Counter = Counter()
        self.nf_durations: list[float] = []
        self._seen_errors: set[int] = set()
        self._group_of = {op: g for g, ops in TIME_GROUPS.items() for op in ops}

    # -- spans ------------------------------------------------------------------

    def wrap(self, layer: str, op: str, fn):
        tracer = self
        hook = getattr(self, "_after_" + op.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(layer, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            parent_op, dur = tracer._exit(None)
            if hook is not None:
                t = time.perf_counter()
                hook(args, kwargs, result, dur, parent_op)
                if tracer.stack:  # keep the hook's own time out of the caller's self time
                    tracer.stack[-1][4] += time.perf_counter() - t
            return result

        return traced

    def _enter(self, layer: str, op: str) -> None:
        group = self._group_of.get(op)
        if group:
            self.active[group] += 1
        self.stack.append([len(self.spans) + len(self.stack), layer, op, time.perf_counter(), 0.0])

    def _exit(self, exc):
        end = time.perf_counter()
        span_id, layer, op, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        self.spans.append((span_id, parent[0] if parent else -1, layer, op, start, end))
        self.self_s[layer] += dur - child
        self.calls[op] += 1
        if op in SELF_TIME:
            self.group_s[SELF_TIME[op]] += dur - child
        group = self._group_of.get(op)
        if group:
            self.active[group] -= 1
            if not self.active[group]:
                self.group_s[group] += dur
        if parent:
            parent[4] += dur
        if exc is not None and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[layer] += 1
        return (parent[2] if parent else None), dur

    # -- counts derived from arguments and results ------------------------------

    def _after_kauffman_bracket(self, args, kwargs, result, dur, parent):
        self.counts["classical.states"] += 1 << _first(args, kwargs, "d").n

    def _after_bracket3_raw(self, args, kwargs, result, dur, parent):
        self.counts["bracket3.naive_states"] += 1 << _first(args, kwargs, "d").n
        self.maxes["bracket3.raw_terms_max"] = max(self.maxes["bracket3.raw_terms_max"], len(result))

    def _after_tl_evaluate(self, args, kwargs, result, dur, parent):
        self.maxes["bracket3.raw_terms_max"] = max(self.maxes["bracket3.raw_terms_max"], len(result))

    def _after_tl_transfer(self, args, kwargs, result, dur, parent):
        self.maxes["bracket3.tl_matchings_max"] = max(self.maxes["bracket3.tl_matchings_max"], len(result))

    def _after_pad(self, args, kwargs, result, dur, parent):
        self.maxes["multipoly.padded_terms_max"] = max(self.maxes["multipoly.padded_terms_max"], len(result))

    def _after_normal_form(self, args, kwargs, result, dur, parent):
        p = _first(args, kwargs, "p")
        self.nf_durations.append(dur)
        self.counts["quotient.nf_in_terms"] += len(p)
        self.counts["quotient.nf_out_terms"] += len(result)
        self.maxes["quotient.nf_in_terms_max"] = max(self.maxes["quotient.nf_in_terms_max"], len(p))
        self.maxes["quotient.coeff_bits_max"] = max(
            self.maxes["quotient.coeff_bits_max"], _coeff_bits(p), _coeff_bits(result))

    def _after_RecordCache_lookup(self, args, kwargs, result, dur, parent):
        self.counts["search.cache_hits" if result is not None else "search.cache_misses"] += 1

    def _after_compute_records(self, args, kwargs, result, dur, parent):
        self.counts["search.records"] += len(result)

    def _after_compute_record(self, args, kwargs, result, dur, parent):
        if parent == "conjecture_scan":
            self.counts["search.recomputes"] += 1

    def _after_conjecture_scan(self, args, kwargs, result, dur, parent):
        self.counts["search.pairs"] += len(result.pairs)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """(times in seconds, exact counts) for this pass."""
        times = {name: self.group_s[name] for name in TIME_GROUPS}
        times["quotient.nf_p50_s"] = statistics.median(self.nf_durations) if self.nf_durations else 0.0
        counts: dict[str, float] = {}
        for name, ops in CALL_COUNTS.items():
            counts[name] = sum(self.calls[op] for op in ops)
        for name in ("classical.states", "bracket3.naive_states", "quotient.nf_in_terms",
                     "quotient.nf_out_terms", "search.records", "search.cache_hits",
                     "search.cache_misses", "search.pairs", "search.recomputes"):
            counts[name] = self.counts[name]
        for name in ("bracket3.tl_matchings_max", "bracket3.raw_terms_max",
                     "multipoly.padded_terms_max", "quotient.nf_in_terms_max",
                     "quotient.coeff_bits_max"):
            counts[name] = self.maxes[name]
        lookups = counts["search.cache_hits"] + counts["search.cache_misses"]
        counts["search.cache_hit_frac"] = counts["search.cache_hits"] / lookups if lookups else 0.0
        for layer in LAYERS:
            times[f"{layer}.self_s"] = self.self_s[layer]
            counts[f"{layer}.errors"] = self.errors[layer]
        return times, counts


def install(tracer: Tracer, patch: Patch, bench_module) -> None:
    """Wrap every function in ``WRAPPED`` and the benchmark's own ``pad`` step."""
    for layer, names in WRAPPED.items():
        module = importlib.import_module(f"qbracket.{layer}")
        for name in names:
            fn = getattr(module, name)
            patch.function(fn, tracer.wrap(layer, name, fn))
    for layer, classes in WRAPPED_METHODS.items():
        module = importlib.import_module(f"qbracket.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for attr in methods:
                op = f"{cls_name}.{attr}"
                patch.method(cls, attr, tracer.wrap(layer, op, vars(cls)[attr]))
    patch.function(bench_module.pad, tracer.wrap("multipoly", "pad", bench_module.pad),
                   extra_namespaces=[bench_module])
