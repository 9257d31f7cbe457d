"""In-memory span recorder for the traced benchmark run.

Every traced function is replaced by a wrapper in every ``coset_ewens``
module namespace that binds it, so calls between layers (which resolve
through module globals) are seen as well as calls from outside.  Each
function keeps a call count and its self time (duration minus the time
its traced children cover).  Calls of functions outside ``HOT``
also keep a span (id, name, start, end, parent id); ``HOT`` functions
run too often for one span per call and are kept only as aggregates.
"""
from __future__ import annotations

import json
import time

#: (layer module, function) pairs timed by the traced run
TRACED = (
    ("partitions", "iter_partitions"),
    ("partitions", "enumerate_partitions"),
    ("perm", "compose"),
    ("perm", "disjoint_cycles"),
    ("perm", "from_cycles"),
    ("perm", "parse_permutation"),
    ("cosets", "predicted_intersection_order"),
    ("cosets", "double_coset_size"),
    ("cosets", "coset_class"),
    ("cosets", "reduce_to_even_support"),
    ("cosets", "partition_of"),
    ("cosets", "intersection_subgroup"),
    ("cosets", "wreath_model"),
    ("cosets", "enumerate_double_cosets"),
    ("cosets", "is_in_H"),
    ("ewens", "good_probability_exact"),
    ("ewens", "coset_probability"),
    ("ewens", "good_probability_mc"),
    ("ewens", "f_leq_threshold"),
    ("rng", "uniform01_array"),
    ("series", "W_coefficient"),
    ("series", "left_tail_bound"),
    ("series", "right_tail_bound"),
    ("series", "W_series_coeffs"),
    ("series", "W_at_one"),
    ("series", "asymptotic_diagnostic"),
    ("series", "W_direct"),
    ("series", "log_W_direct"),
    ("series", "jensen_check"),
    ("cli", "main"),
)

HOT = frozenset({
    "partitions.iter_partitions", "perm.compose", "perm.disjoint_cycles",
    "perm.from_cycles", "cosets.predicted_intersection_order",
    "cosets.double_coset_size", "cosets.coset_class", "cosets.partition_of",
    "cosets.is_in_H", "ewens.coset_probability", "ewens.f_leq_threshold",
})

_DONE = object()


class Tracer:
    def __init__(self, now=time.perf_counter_ns):
        self.now = now
        # open frames, innermost last: [child_ns, id of nearest spanned ancestor]
        self.stack = [[0, None]]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.extra: dict[str, float] = {}

    def _enter(self, name):
        frame = [0, self.stack[-1][1]]
        span_id = None
        if name not in HOT:
            span_id = self.next_id
            self.next_id += 1
            frame[1] = span_id
        self.stack.append(frame)
        return frame, span_id, self.now()

    def _exit(self, name, frame, span_id, t0) -> int:
        t1 = self.now()
        self.stack.pop()
        parent = self.stack[-1]
        dur = t1 - t0
        parent[0] += dur
        st = self.stats.setdefault(name, [0, 0])
        st[0] += 1
        st[1] += dur - frame[0]
        if span_id is not None:
            self.spans.append((span_id, name, t0, t1, parent[1]))
        return dur - frame[0]

    def wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            frame, span_id, t0 = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_ns = tracer._exit(name, frame, span_id, t0)
            if hook is not None:
                hook(tracer, args, result, self_ns)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Time only the producer: each ``next()`` is one call."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame, span_id, t0 = tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    item = _DONE
                finally:
                    tracer._exit(name, frame, span_id, t0)
                if item is _DONE:
                    return
                tracer.bump(name + ".yielded", 1)
                yield item

        return traced

    def bump(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def install(self, package) -> None:
        """Wrap every TRACED function in every namespace of ``package``."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("perm", "partitions", "cosets", "ewens",
                                         "series", "rng", "cli")]
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            orig = getattr(importlib.import_module(f"{package.__name__}.{layer}"), fname)
            make = self.wrap_generator if fname == "iter_partitions" else self.wrap
            wrapper = make(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures: ``<name>.calls`` and ``<name>.self_s``
        for every traced function, plus the hook counters."""
        out: dict[str, float] = {}
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            calls, self_ns = self.stats.get(name, (0, 0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_ns / 1e9
        for key in ("partitions.iter_partitions.yielded", "rng.uniform01_array.draws",
                    "series.W_at_one.truncation_N"):
            out[key] = self.extra.get(key, 0)
        for key in ("series.W_series_coeffs.exact_s", "series.W_series_coeffs.float_s"):
            out[key] = self.extra.get(key, 0) / 1e9
        return out


def _draws(tracer, args, result, self_ns):
    tracer.bump("rng.uniform01_array.draws", len(args[1]))


def _truncation(tracer, args, result, self_ns):
    key = "series.W_at_one.truncation_N"
    tracer.extra[key] = max(tracer.extra.get(key, 0), result.truncation)


def _series_mode(tracer, args, result, self_ns):
    mode = "exact" if result.exact else "float"
    tracer.bump(f"series.W_series_coeffs.{mode}_s", self_ns)


_HOOKS = {
    "rng.uniform01_array": _draws,
    "series.W_at_one": _truncation,
    "series.W_series_coeffs": _series_mode,
}
