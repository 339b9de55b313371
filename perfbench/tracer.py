"""In-memory spans around calls into districtor's public functions.

The tracer replaces a function at the place it is looked up (a module
global or a class attribute) with a wrapper that records one span per call:
name, start, end, parent span and request id. Nothing inside ``src/`` is
changed; ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int  # > 0 a request, < 0 a setup repetition, 0 neither


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, when: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``when(*args)`` may veto recording for a call; it is checked before
        the call runs.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, when: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, when))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it that child spans cover."""
        children: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(i)
        out = []
        for span, kids in zip(self.spans, children):
            covered = 0.0
            reach = span.start
            for c in sorted(kids, key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")
