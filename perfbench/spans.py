"""Spans around calls into the library, kept in memory and written at the end.

The benchmark routes every timed library call through ``call``.  ``Direct``
makes the call and records nothing; ``Tracer`` records a span per call.  Spans
are opened only from the benchmark's own code, at the layer boundaries.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None


class Direct:
    """Untraced calls."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span (name, start, end, parent span, request id) per call."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request: int | None = None  # setup repetitions use negative ids
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)

    def _self_ns(self) -> list[int]:
        """Each span's duration minus the part its child spans cover."""
        out = [span.end_ns - span.start_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end_ns - span.start_ns
        return out

    def self_times(self, names: tuple[str, ...]) -> dict[object, float]:
        """Seconds of self time in the named spans, per request id."""
        out: dict[object, float] = {}
        for span, self_ns in zip(self.spans, self._self_ns()):
            if span.name in names:
                out[span.request] = out.get(span.request, 0.0) + self_ns / 1e9
        return out

    def totals(self) -> dict[str, float]:
        """Seconds of self time per span name over the whole run."""
        out: dict[str, float] = {}
        for span, self_ns in zip(self.spans, self._self_ns()):
            out[span.name] = out.get(span.name, 0.0) + self_ns / 1e9
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


@contextmanager
def counting_calls(cls: type, method: str, counter: list[int]) -> Iterator[None]:
    """Count calls to ``cls.method`` in ``counter[0]`` while the block runs."""
    original = getattr(cls, method)

    def counted(self, *args):
        counter[0] += 1
        return original(self, *args)

    setattr(cls, method, counted)
    try:
        yield
    finally:
        setattr(cls, method, original)
