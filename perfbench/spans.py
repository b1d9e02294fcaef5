"""Span recorder for the traced run.

Spans are recorded from outside the program: :meth:`SpanRecorder.wrap`
replaces one public call a layer offers the layer above with a wrapper
that opens a span, calls the original and closes the span; :meth:`unwrap`
puts every original back.  A span's parent is the span open when it
started (everything a refresh handler calls runs synchronously on the
one event loop), and spans under a refresh carry that refresh's
``(source_id, item, seq)`` id.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[Tuple[Any, ...]] = None
    #: what the wrapped call returned, for recorders that read it
    #: (the GP solver's report, the encoded frame's size).
    info: Any = None


class SpanRecorder:
    """Keep spans in memory while enabled; wrap and unwrap calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = False
        #: spans recorded during set-up, kept apart from the phases'.
        self.setup_spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, rid: Optional[Tuple[Any, ...]] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        self.spans.append(Span(name, self.clock(), parent=parent, rid=rid))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, info: Any = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.info = info
        # Normally the top of the stack; removing by identity keeps the
        # stack sound even if a wrapped coroutine ever suspended.
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str,
             rid_of: Optional[Callable[..., Tuple[Any, ...]]] = None,
             info_of: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        target = getattr(owner, attribute)
        recorder = self

        if inspect.iscoroutinefunction(target):
            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await target(*args, **kwargs)
                index = recorder.open(
                    name, rid_of(*args, **kwargs) if rid_of else None)
                result = None
                try:
                    result = await target(*args, **kwargs)
                    return result
                finally:
                    recorder.close(index, info_of(result) if info_of
                                   and result is not None else None)
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return target(*args, **kwargs)
                index = recorder.open(
                    name, rid_of(*args, **kwargs) if rid_of else None)
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    recorder.close(index, info_of(result) if info_of
                                   and result is not None else None)

        self.replace(owner, attribute, wrapper)

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`unwrap`."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def unwrap(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start,
                                                         span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class NameStats:
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def self_mean(self) -> float:
        return self.self_total / self.count if self.count else 0.0


def summarise(spans: List[Span],
              classify: Optional[Callable[[List[Span], int], str]] = None
              ) -> Dict[str, NameStats]:
    """Per span name (or per ``classify(spans, index)`` label): count,
    total duration and total self time, in seconds."""
    selfs = self_times(spans)
    stats: Dict[str, NameStats] = {}
    for index, span in enumerate(spans):
        label = classify(spans, index) if classify else span.name
        entry = stats.setdefault(label, NameStats())
        entry.count += 1
        entry.total += span.end - span.start
        entry.self_total += selfs[index]
    return stats


def has_ancestor(spans: List[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
