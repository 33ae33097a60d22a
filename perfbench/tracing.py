"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own code: around the calls it makes
into each layer, and around the cross-module calls a layer makes into another,
by rebinding the function in the namespace of the calling module. Nothing in
the program changes; when the wrappers are removed the namespaces hold the
original functions again.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# (calling module, bound name, span name). The span name is the layer that
# defines the function; a function a module calls through its own namespace
# is wrapped there too (classify_cost_region, stage_step).
SPAN_POINTS = (
    ("analysis", "classify_regime_ne", "normalform.classify"),
    ("analysis", "ne_utilities", "normalform.utilities"),
    ("analysis", "solve_ne", "normalform.solve"),
    ("analysis", "classify_regime_spe", "sequential.classify"),
    ("analysis", "spe_utilities", "sequential.utilities"),
    ("analysis", "solve_spe", "sequential.solve"),
    ("analysis", "classify_cost_region", "analysis.region"),
    ("learning", "stage_step", "learning.stage"),
    ("learning", "wardrop_equilibrium", "routing.wardrop"),
)
# Calls counted without a span: too many and too short to time one by one.
COUNT_POINTS = (
    ("analysis", "cd_threshold_tilde", "sequential.tilde_calls"),
    ("sequential", "cd_threshold_tilde", "sequential.tilde_calls"),
)
# numpy solvers counted only while a Wardrop span is open.
LINEAR_SOLVERS = ("solve", "lstsq")


class Tracer:
    """Spans as parallel arrays (name, start, end, parent, op) plus counters.

    A span's self time is its duration minus the durations of its direct
    children, accumulated as children close.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.self_ns = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.enabled = True  # wrappers pass calls straight through while False
        self._next_id = 0
        self._open: list[list[int]] = []  # [span id, children ns] per open span
        self._saved: list[tuple[object, str, object]] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``label``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        frame = [sid, 0]
        self._open.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            dur = t1 - t0
            if self._open:
                self._open[-1][1] += dur
            nid = self._name_ids.get(label)
            if nid is None:
                nid = self._name_ids[label] = len(self.names)
                self.names.append(label)
            self.span_id.append(sid)
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.self_ns.append(dur - frame[1])

    def totals(self, in_ops: bool) -> tuple[Counter, Counter, Counter]:
        """Per span name: total seconds, total self seconds and number of spans,
        over the spans inside ops (``in_ops``) or outside any op."""
        total, self_total, calls = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            if (self.op[i] >= 0) != in_ops:
                continue
            label = self.names[nid]
            total[label] += (self.end[i] - self.start[i]) * 1e-9
            self_total[label] += self.self_ns[i] * 1e-9
            calls[label] += 1
        return total, self_total, calls

    # -- wrappers ----------------------------------------------------------

    def _rebind(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, modules: dict) -> None:
        """Rebind every span and count point; ``modules`` maps short names to modules."""
        for mod, attr, label in SPAN_POINTS:
            orig = getattr(modules[mod], attr)
            if label == "routing.wardrop":
                self._rebind(modules[mod], attr, self._wardrop_wrapper(orig))
            else:
                self._rebind(modules[mod], attr, self._span_wrapper(label, orig))
        for mod, attr, label in COUNT_POINTS:
            self._rebind(modules[mod], attr, self._count_wrapper(label, getattr(modules[mod], attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _span_wrapper(self, label: str, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(label, fn, *args, **kwargs)

        return wrapper

    def _count_wrapper(self, label: str, fn):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wardrop_wrapper(self, fn):
        linalg = np.linalg
        originals = {name: getattr(linalg, name) for name in LINEAR_SOLVERS}
        counting = {name: self._count_wrapper("routing.linear_solves", f) for name, f in originals.items()}

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for name, f in counting.items():
                setattr(linalg, name, f)
            try:
                return self.call("routing.wardrop", fn, *args, **kwargs)
            finally:
                for name, f in originals.items():
                    setattr(linalg, name, f)

        return wrapper

    def save(self, path) -> None:
        """Write the spans out as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            self_ns=np.frombuffer(self.self_ns, dtype=np.int64),
        )
