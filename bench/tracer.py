"""Outside-in tracing of twistalg: spans, counters and per-span memory peaks.

Nothing in the program is edited.  ``Tracer.install`` replaces each listed
function at every ``twistalg.*`` module binding (``clifford`` and
``isolab`` import ``alg_mul`` and ``flat_rows`` by name, so patching only
the defining module would miss their calls) and each listed
method on its class.  Hot, tiny operations (ring arithmetic, group lookups,
model arithmetic) get counters; layer entry points get spans.  Spans are
kept in flat arrays in memory and summarised or written out at the end.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "cli.main": ("twistalg.cli", "main"),
    "serialize.parse_cocycle": ("twistalg.serialize", "parse_cocycle"),
    "serialize.element_to_json": ("twistalg.serialize", "element_to_json"),
    "serialize.cocycle_to_json": ("twistalg.serialize", "cocycle_to_json"),
    "groups.GroupTable": ("twistalg.groups", "GroupTable.__init__"),
    "cocycle.make_f_alpha": ("twistalg.cocycle", "make_f_alpha"),
    "cocycle.validate": ("twistalg.cocycle", "validate"),
    "cocycle.equivalent_cyclic": ("twistalg.cocycle", "equivalent_cyclic"),
    "algebra.alg_mul": ("twistalg.algebra", "alg_mul"),
    "algebra.alg_star": ("twistalg.algebra", "alg_star"),
    "algebra.regular_matrix": ("twistalg.algebra", "regular_matrix"),
    "algebra.alg_norm": ("twistalg.algebra", "alg_norm"),
    "isolab.verify_morphism": ("twistalg.isolab", "verify_morphism"),
    "isolab.flat_rows": ("twistalg.isolab", "flat_rows"),
    "isolab.z2n_torus_rewrite": ("twistalg.isolab", "z2n_torus_rewrite"),
    "clifford.clifford_cocycle": ("twistalg.clifford", "clifford_cocycle"),
    "clifford.universal_map": ("twistalg.clifford", "universal_map"),
    "clifford.split_odd": ("twistalg.clifford", "split_odd"),
}

# counter name -> (module, class, methods); subclasses are included
COUNTERS = {
    "rings.ring_ops": ("twistalg.rings", "RingValue",
                       ("__add__", "__sub__", "__mul__", "__neg__", "scale",
                        "star")),
    "rings.descriptor_eq": ("twistalg.rings", "RingDescriptor", ("__eq__",)),
    "groups.lookups": ("twistalg.groups", "GroupTable",
                       ("op", "inverse", "power")),
    "isolab.model_ops": ("twistalg.isolab", "AlgebraModel",
                         ("mul", "add", "scale_left", "star", "diff")),
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Install with ``install()``, run the work, then ``uninstall()``.

    With ``memory=True`` only spans are installed and each records the
    ``tracemalloc`` peak above its entry level instead of its times, so the
    timing pass is not slowed by allocation tracking.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names = list(SPANS)
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = {name: [0] for name in COUNTERS}
        self.peak = dict.fromkeys(SPANS, 0)
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name_id, fn):
        span_name, start, end, parent = (self.span_name, self.start,
                                         self.end, self.parent)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def _measured(self, name, fn):
        peak, stack = self.peak, self._stack
        traced, reset = tracemalloc.get_traced_memory, tracemalloc.reset_peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, high = traced()
            if stack:
                stack[-1][1] = max(stack[-1][1], high)
            reset()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                high = max(frame[1], traced()[1])
                stack.pop()
                peak[name] = max(peak[name], high - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], high)
                reset()
        return wrapper

    @staticmethod
    def _counted(cell, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner,
                                                                   attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "twistalg" or name.startswith("twistalg.")]
        for name_id, (name, (mod, attr)) in enumerate(SPANS.items()):
            owner = sys.modules[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = (self._measured(name, fn) if self.memory
                       else self._timed(name_id, fn))
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)
        if self.memory:
            return
        for name, (mod, cls, methods) in COUNTERS.items():
            for klass in _subclasses(getattr(sys.modules[mod], cls)):
                for meth in methods:
                    if meth in klass.__dict__:
                        self._set(klass, meth, self._counted(
                            self.counts[name], klass.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per counter: calls;
        per span name in memory mode: peak bytes."""
        if self.memory:
            return {name: {"peak_mb": b / 1e6} for name, b in self.peak.items()}
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            sel = ids == name_id
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        for name, cell in self.counts.items():
            out[name] = {"calls": cell[0]}
        return out

    def save(self, path):
        """Write the raw spans (name index, start, end, parent index)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
