"""In-memory span and counter recorder on the stdlib monotonic clock.

A span is (name, start, end, parent, job): `parent` is the index of the span
that was open when it started (-1 for a root), `job` the identifier shared by
every span of one benchmark job.  Spans are kept in memory and written out
once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []       # [name, start, end, parent, job]
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---- recording ----
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    # ---- wrapping the program's functions from outside ----
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span `name`.

        `before(args, kwargs)` runs first and returns a state passed on to
        `after(state, args, kwargs, result)`; both run under a span of their
        own, `perfbench.hook`, so their cost is not booked to the layer.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                hook = tracer.open("perfbench.hook")
                try:
                    state = before(args, kwargs)
                finally:
                    tracer.close(hook)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                hook = tracer.open("perfbench.hook")
                try:
                    after(state, args, kwargs, result)
                finally:
                    tracer.close(hook)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ----
    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "fields": ["name", "start", "end", "parent", "job"],
                "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                "counters": dict(self.counters),
            }, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Per span: its duration minus that of its direct children.  The
    recorder is one stack, so the children lie inside their parent and
    never overlap."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child_s)]
