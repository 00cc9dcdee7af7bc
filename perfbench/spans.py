"""In-memory span recording for the traced benchmark pass.

A span is ``(name, start, end, parent)``. Spans are stored column-wise in
``array`` buffers so that millions of short calls (one per throttle request)
stay cheap to keep, and are summarised only when the run ends. A span's self
time is its duration minus the durations of its direct children; spans on one
thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(counters, args, result)``
        runs after each call that returns."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced
        version, remembering the original for ``restore``."""
        original = vars(owner)[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self.wrap(original.func, name, count))
            replacement.__set_name__(owner, attr)
        else:
            replacement = self.wrap(original, name, count)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: number of calls, total time and self time (seconds)."""
        import numpy as np

        if not len(self.start):
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the raw spans as a numpy ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
