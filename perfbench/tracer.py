"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions of the package at the attributes
their callers resolve (a module global or a class attribute) with
wrappers that record one span per call: name, parent span, op index,
start and end.  Counters are added at the same boundaries.  Spans stay
in memory; `summary` turns them into per-name self times, and `dump`
writes them out when the run ends.  The untraced run never installs the
tracer, so its timings carry no wrapper cost.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # one record per call: [name, parent index or -1, op index, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        # index of the current op; a span with no parent starts a new op
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, owner, attr: str, name: str, counter=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `counter(result, *args, **kwargs)` returns extra counts for the
        call, added to `<name>.<key>`; every call also adds to
        `<name>.calls`.  A missing attribute leaves the span empty, so
        a renamed function shows as time no span covers.
        """
        if name not in self.names:
            self.names.append(name)
            self.counts[name + ".calls"] = 0
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {name} not found, its span stays empty", file=sys.stderr)
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not stack:
                self.op += 1
            record = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` as `<name>.calls`, without a span.

        For functions called so often that a span per call would
        dominate what it measures.
        """
        counts = self.counts
        key = name + ".calls"
        counts.setdefault(key, 0)
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {name} not found, its count stays 0", file=sys.stderr)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def installed(self, install):
        """Run `install(self)` to wrap the functions; unwrap them on exit."""
        install(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, float], float, float]:
        """Per-name self time, and total and self time of the root spans.

        A span's self time is its duration minus the durations of its
        child spans.  The roots are the ops; their self time is the
        part of an op that no named layer covers.
        """
        child = [0.0] * len(self.spans)
        for name, parent, _op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        root_total = root_self = 0.0
        for i, (name, parent, _op, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            self_time[name] += own
            if parent < 0:
                root_total += end - start
                root_self += own
        return dict(self_time), root_total, root_self

    def dump(self, path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"env": env,
                       "span_fields": ["name", "parent", "op", "start", "end"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, handle)
