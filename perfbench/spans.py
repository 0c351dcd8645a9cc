"""In-memory span recorder that wraps specqd's public functions at run time.

A span is (name, start, end, parent id, request id, attributes); a span
whose call raised carries the exception's type as ``raised``. Spans nest
through a stack, so a span's parent is whatever span was open when it began.
Nothing is written while recording; ``dump`` writes every span once, at exit.

The wrappers replace module attributes, not source: each wrapped name is
patched in the module whose namespace the callers look it up in (for
example ``specdec.forward``, the binding ``specdec`` imported from
``tinylm``), and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    request: int  # -1 outside any request
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].sid if self._stack else -1
        s = Span(len(self.spans), name, 0.0, 0.0, parent, self.request, attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except Exception as exc:
            s.attrs["raised"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    # -- run-time wrapping -------------------------------------------------

    def wrap(self, module, attr: str, name: str, attrs_of=None):
        """Replace ``module.attr`` with a function that records a span.

        ``attrs_of(*args)`` returns the span attributes, computed before the
        call so that values the call mutates (a cache length) are seen as
        they were on entry.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args) if attrs_of else {}
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path):
        selfs = self.self_times()
        rows = [
            [s.sid, s.name, s.start, s.end, s.parent, s.request, st, s.attrs]
            for s, st in zip(self.spans, selfs)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent",
                                   "request", "self_s", "attrs"],
                       "spans": rows}, fh)
