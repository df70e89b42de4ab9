"""In-memory spans around calls into netcomplexity, installed from outside.

A span is recorded by replacing a name in the module that looks it up (for
example ``cli.functional_complexity`` or ``abm.MacChannel.round``) with a
wrapper that notes start, end, the enclosing span and an optional tag made
from the call's arguments and result.  Nothing under ``src/`` changes; the
wrappers are removed again when the traced run ends.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not counted twice)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records spans for wrapped names until ``restore`` is called."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None, at_entry=False) -> None:
        """Replace ``owner.attr`` by a traced call.  ``tag(args, result)``
        summarises one call for the layer metrics; with ``at_entry`` it is
        called as ``tag(args)`` before the call instead."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            note = tag(args) if at_entry else None
            done = False
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if done and tag is not None and not at_entry:
                    note = tag(args, result)
                spans[index] = Span(name, start, end, parent, note)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like ``wrap`` for a generator function: one span per item drawn."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    spans.append(
                        Span(name, start, perf_counter(), stack[-1] if stack else -1)
                    )
                yield item

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
