"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``name`` is the layer call
``<module>.<function>``, ``start``/``end`` are ``perf_counter`` seconds,
``parent`` is the index of the enclosing span (-1 at the top) and ``op``
names the op the span belongs to.  Spans stay in memory until the run
ends; ``self_times`` then charges each span its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._open: list[int] = []

    def span(self, name: str) -> "Tracer":
        """Use as ``with tracer.span(name): ...``; spans nest."""
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        rec[1] = perf_counter()
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.spans[self._open.pop()][2] = perf_counter()
        return False

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def by_name(self, op_prefix: str = "") -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds), over ops whose id
        starts with ``op_prefix``."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for s, own in zip(self.spans, self.self_times()):
            if s[4].startswith(op_prefix):
                out[s[0]][0] += 1
                out[s[0]][1] += own
        return {k: (n, t) for k, (n, t) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def unaccounted(self) -> float:
        """Largest gap, in seconds, between an op's root span and the
        sum of the self times of all spans recorded under that op."""
        own = self.self_times()
        per_op: dict = defaultdict(float)
        roots: dict = {}
        for s, t in zip(self.spans, own):
            per_op[s[4]] += t
            if s[3] < 0:
                roots[s[4]] = roots.get(s[4], 0.0) + s[2] - s[1]
        return max((abs(per_op[k] - roots[k]) for k in roots), default=0.0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: records nothing."""

    op = "setup"

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, name: str, n: float = 1) -> None:
        pass


NULL = NullTracer()
