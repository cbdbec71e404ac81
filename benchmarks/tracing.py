"""In-memory spans for the traced benchmark run.

A span covers one call into a layer made by the benchmark (or by a patched
caller such as ``cli`` calling ``des_run``).  Calls that happen hundreds of
thousands of times per run, such as ``rng.u01`` and ``receiver_step``, are
not stored one by one: each is folded into a call count and a total time on
the span that was open when it ran.  Spans stay in memory until the run
ends and are then written out as JSON in one go.

Leaf functions are patched in the module that calls them, because
``protocol`` and ``cli`` import them by name: replacing ``mpslink.rng.u01``
alone would leave ``mpslink.protocol.u01`` untouched and count nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import mpslink.cli
import mpslink.protocol

# (module, attribute, leaf name): every call site of a leaf the sweeps use.
LEAVES = (
    (mpslink.protocol, "u01", "rng.u01"),
    (mpslink.protocol, "receiver_step", "protocol.receiver_step"),
    (mpslink.protocol, "mps_side_loss", "optics"),
    (mpslink.cli, "mps_side_loss", "optics"),
    (mpslink.cli, "mpi_loss", "optics"),
    (mpslink.cli, "db_to_prob", "optics"),
    (mpslink.cli, "mpi_rate", "rates"),
    (mpslink.cli, "mps_rate", "rates"),
    (mpslink.cli, "mps_rate_limit", "rates"),
)


class Span:
    __slots__ = ("id", "parent", "trace", "name", "attrs", "start", "end", "leaves")

    def __init__(self, id: int, parent: int | None, trace: int, name: str, attrs: dict):
        self.id = id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "end": self.end,
            "leaves": {name: {"calls": c, "seconds": s} for name, (c, s) in self.leaves.items()},
        }


class Tracer:
    """Collects spans for one process; ``trace`` groups the spans of one repetition."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.trace = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.trace, name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap_span(self, name: str, fn):
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def wrap_leaf(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = stack[-1].leaves.get(name)
                if entry is None:
                    stack[-1].leaves[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return leaf

    @contextlib.contextmanager
    def leaves_patched(self):
        """Route every call site in ``LEAVES`` through a counting wrapper."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in LEAVES]
        try:
            for (module, attr, name), (_, _, fn) in zip(LEAVES, originals):
                setattr(module, attr, self.wrap_leaf(name, fn))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps([span.to_dict() for span in self.spans]) + "\n"
        path.write_text(text, encoding="ascii")


class NullTracer:
    """Stand-in for ``Tracer`` when tracing is off; records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def wrap_span(self, name: str, fn):
        return fn

    def leaves_patched(self):
        return contextlib.nullcontext()


def self_time(span: Span, spans: list[Span]) -> float:
    """Span duration minus what its child spans and folded leaf calls cover."""
    children = sum(s.duration for s in spans if s.parent == span.id)
    leaves = sum(seconds for _, seconds in span.leaves.values())
    return span.duration - children - leaves


def leaf_totals(spans: list[Span], name: str) -> tuple[int, float]:
    calls, seconds = 0, 0.0
    for span in spans:
        entry = span.leaves.get(name)
        if entry is not None:
            calls += entry[0]
            seconds += entry[1]
    return calls, seconds
