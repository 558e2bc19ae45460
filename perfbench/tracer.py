"""Spans around calls into the cuspidal layers, recorded from outside.

``Tracer.install`` wraps each public function listed in ``TARGETS`` and
rebinds every name that callers look it up by: the defining module, each
``cuspidal`` module that imported it by name, and the class for methods.
Spans (trace id, span id, parent id, name, start, end) stay in memory until
``write_spans`` appends them to a file.  Self time is a span's duration
minus the time its child spans cover; it is summed per name as the span
closes.

A few counts come from the objects the functions return: accepted
continuation steps from the ``StrandPath`` samples, cosets defined by an
overflowing coset enumeration from its limit, and per-criterion seconds
from the ``CheckResult`` list of ``checks.run_all``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _continue_roots_counts(counts, result, args, kwargs, seconds):
    counts["continuation.accepted_steps"] += len(result[0].samples) - 1
    counts["continuation.continue_roots.total_s"] += seconds


def _todd_coxeter_counts(counts, result, args, kwargs, seconds):
    if result == "overflow":
        limit = kwargs.get("max_cosets", args[1] if len(args) > 1 else 100000)
        counts["groups.todd_coxeter.overflow_cosets"] += limit
        counts["groups.todd_coxeter.overflow_s"] += seconds


def _run_all_counts(counts, result, args, kwargs, seconds):
    for check in result:
        counts[f"checks.{check.name}.s"] += check.seconds


# (module, attribute path, count hook).  MPoly.evaluate runs once per
# coefficient per continuation step, so it is aggregated without spans.
TARGETS = (
    ("mpoly", "determinant", None),
    ("mpoly", "resultant", None),
    ("mpoly", "MPoly.compose", None),
    ("mpoly", "MPoly.evaluate", None),
    ("exactpoly", "squarefree_decomposition", None),
    ("exactpoly", "rational_roots", None),
    ("exactpoly", "refine_root", None),
    ("linalg", "smith_normal_form", None),
    ("quartic", "critical_values", None),
    ("quartic", "cuspidal_quartic", None),
    ("bidouble", "discriminant_norm", None),
    ("bidouble", "find_cusps", None),
    ("roots", "roots_univariate", None),
    ("continuation", "continue_roots", _continue_roots_counts),
    ("monodromy", "monodromy_factorization", None),
    ("monodromy", "build_loops", None),
    ("monodromy", "braid_from_strand_paths", None),
    ("braids", "conjugate_power_witness", None),
    ("groups", "todd_coxeter", _todd_coxeter_counts),
    ("groups", "count_homs", None),
    ("groups", "enumerate_homs_to_sym", None),
    ("groups", "tietze_simplify", None),
    ("groups", "van_kampen", None),
    ("groups", "abelianization", None),
    ("checks", "run_all", _run_all_counts),
)
UNRECORDED = {"mpoly.MPoly.evaluate"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.trace_id = 0
        self._stack = []  # [name, start, child seconds, span id]
        self._next_id = 0

    def _enter(self, name):
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if name not in UNRECORDED:
            self.spans.append((self.trace_id, span_id, parent[3] if parent else None,
                               name, start, end))
        return duration

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a root span of its own."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._exit(frame)
            if hook is not None:
                hook(tracer.counts, result, args, kwargs, seconds)
            return result

        return wrapper

    def install(self):
        importlib.import_module("cuspidal.cli")  # loads every layer it binds
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cuspidal" or n.startswith("cuspidal.")]
        for module_name, path, hook in TARGETS:
            module = importlib.import_module(f"cuspidal.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original, hook)
            owners = [owner] if owner_name else [m for m in modules
                                                 if getattr(m, attr, None) is original]
            for o in owners:
                setattr(o, attr, wrapper)

    def summary(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def write_spans(self, path):
        """Append the spans to ``path``, one JSON object per line."""
        with open(path, "a") as out:
            for trace_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"trace": trace_id, "span": span_id,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")
