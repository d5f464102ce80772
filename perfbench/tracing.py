"""Spans at the program's module boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper
in every ``robinspace`` module that holds it (so ``from .x import f``
aliases are covered) and ``uninstall`` puts the originals back.  The
program itself is not changed.  A span is (name, start, end, parent
span, request id); spans stay in memory until the run writes them out.
For a function that is already running under its own span (recursion),
the inner calls are counted but not timed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs, each a layer boundary named in the README.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_matrix"),
    ("cli", "tree_to_doc"),
    ("cli", "doc_to_tree"),
    ("core", "validate"),
    ("core", "intern_weights"),
    ("core", "is_compatible_order"),
    ("copoints", "recognize_robinson"),
    ("copoints", "pq_tree2"),
    ("refine", "copoint_partition"),
    ("refine", "stable_trees"),
    ("mmodtree", "mmodule_tree"),
    ("pqtree", "normalize"),
    ("pqtree", "canonical_order"),
    ("pqtree", "conical_apex"),
    ("dendrogram", "build_dendrogram"),
    ("translate", "pq_to_mmodule_tree"),
    ("translate", "mmodule_to_pq_tree"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, calls, active, stack = self.spans, self.calls, self._active, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (name, start, end, parent, self.request)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for k, m in sys.modules.items()
            if m and (k == "robinspace" or k.startswith("robinspace."))
        ]
        for mod_name, fn_name in TRACED:
            owner = sys.modules[f"robinspace.{mod_name}"]
            fn = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time, total span time, spans, calls."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            f"{m}.{f}": {"self_s": 0.0, "total_s": 0.0, "spans": 0, "calls": 0}
            for m, f in TRACED
        }
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += end - start - child_time[sid]
            row["total_s"] += end - start
            row["spans"] += 1
        for name, count in self.calls.items():
            out[name]["calls"] = count
        return out
