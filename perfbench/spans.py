"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer's public entry points by
wrappers the benchmark installs on the program's classes and modules for
the duration of a run; nothing under ``src/`` records them itself.  Each
span is ``(span_id, parent_id, name, layer, start, end, tag)`` where
``tag`` is the request or batch id the benchmark loop was driving when the
outermost call started.  Self time is a span's duration minus the time its
children cover; the program runs on one thread (serial dispatcher), so
children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

#: Entry points wrapped on their class: (module, class, method, layer).
CLASS_TARGETS = (
    ("repro.core.panda", "PandaKNN", "fit", "core"),
    ("repro.core.panda", "PandaKNN", "query", "core"),
    ("repro.fleet.fleet", "KNNFleet", "submit", "fleet"),
    ("repro.fleet.fleet", "KNNFleet", "drain", "fleet"),
    ("repro.fleet.fleet", "KNNFleet", "insert", "fleet"),
    ("repro.fleet.fleet", "KNNFleet", "delete", "fleet"),
    ("repro.fleet.router", "Router", "answer", "router"),
    ("repro.fleet.replica", "ReplicaGroup", "answer", "replica"),
    ("repro.service.service", "KNNService", "submit", "service"),
    ("repro.service.service", "KNNService", "answer_batch", "service"),
    ("repro.service.service", "KNNService", "insert", "service"),
    ("repro.service.service", "KNNService", "delete", "service"),
    ("repro.service.service", "KNNService", "flush", "service"),
    ("repro.service.service", "KNNService", "drain", "service"),
    ("repro.obs.slo", "SLOEngine", "tick", "obs"),
)

#: Module-level functions: (defining module, function, layer).  Every
#: ``repro`` module that imported the function by name is patched too.
FUNCTION_TARGETS = (
    ("repro.core.redistribution", "build_global_tree", "core"),
    ("repro.core.local_phase", "build_local_trees", "core"),
    ("repro.kdtree.build", "build_kdtree", "kdtree"),
    ("repro.kdtree.query", "batch_knn", "kdtree"),
    ("repro.kdtree.query", "knn_search", "kdtree"),
)

class SpanRecorder:
    """Collects spans and kernel work counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, str, float, float, object]] = []
        self.tag: object = None
        self._stack: List[int] = []
        self._ids = itertools.count()
        # Kernel counters: rows, calls, nodes, distances, leaves.
        self.kernel = defaultdict(int)

    def _wrap(self, name: str, layer: str, fn):
        recorder = self
        # The kernel's returned QueryStats feed the work counters.
        kernel = name == "batch_knn"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, layer, start, end, recorder.tag))
            if kernel:
                stats = out[2]
                counters = recorder.kernel
                counters["calls"] += 1
                counters["rows"] += stats.queries
                counters["nodes"] += stats.nodes_visited
                counters["dists"] += stats.distance_computations
                counters["leaves"] += stats.leaves_scanned
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        undo = []
        try:
            for module_name, cls_name, method, layer in CLASS_TARGETS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(f"{cls_name}.{method}", layer, original))
                undo.append((cls, method, original))
            for module_name, func, layer in FUNCTION_TARGETS:
                original = getattr(importlib.import_module(module_name), func)
                wrapped = self._wrap(func, layer, original)
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] == "repro" and getattr(module, func, None) is original:
                        setattr(module, func, wrapped)
                        undo.append((module, func, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def mark(self) -> int:
        """Position in the span list (spans recorded later have a higher index)."""
        return len(self.spans)

    def self_times(self, since: int = 0, until: int | None = None) -> Dict[str, Dict[str, float]]:
        """Per-span-name ``{"self": s, "total": s, "calls": n, "layer": l}``."""
        window = self.spans[since:until]
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in window:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span_id, _, name, layer, start, end, _ in window:
            row = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0, "layer": layer})
            row["self"] += (end - start) - child_time.get(span_id, 0.0)
            row["total"] += end - start
            row["calls"] += 1
        return out

    def layer_self(self, since: int = 0, until: int | None = None) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out: Dict[str, float] = defaultdict(float)
        for row in self.self_times(since, until).values():
            out[row["layer"]] += row["self"]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "parent", "name", "layer", "start", "end", "tag")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
