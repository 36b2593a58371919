"""In-memory span recording around calls into the library's layers.

The tracer never touches the library's source: it replaces chosen
functions and methods with timing wrappers for the duration of a
``with tracer.installed(sites):`` block and puts the original objects back
afterwards, so untraced runs execute exactly the library's own code.

A span records its name, start, end, the span open on the same thread when
it began (its parent) and an optional ``detail`` value extracted from the
call's arguments (a batch size, a job id).  Spans stay in memory and are
written out once, as Chrome trace-event JSON, by :meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Extracts a span's ``detail`` from a wrapped call's ``(args, kwargs)``.
DetailFn = Callable[[tuple, dict], Any]


@dataclass(frozen=True)
class Site:
    """One callable to wrap: ``owner.attr`` (a module or class attribute)."""

    owner: Any
    attr: str
    span: str
    detail: Optional[DetailFn] = None


@dataclass(slots=True)
class Span:
    """One timed call.  ``reentrant`` marks a span opened inside another
    span of the same name on the same thread (its time is already counted
    by the outer one)."""

    id: int
    name: str
    start: float
    parent: Optional[int]
    tid: int
    reentrant: bool
    detail: Any = None
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from every thread of the process that created it.

    Calls made in a forked child process (the service's worker processes
    inherit the installed wrappers) pass straight through: their spans
    could never reach this process's memory.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, detail: Any = None) -> Span:
        """Open a span on the calling thread."""
        stack = self._stack()
        with self._lock:
            span = Span(id=len(self.spans), name=name, start=self.clock(),
                        parent=stack[-1].id if stack else None,
                        tid=threading.get_ident(),
                        reentrant=_is_open(stack, name),
                        detail=detail)
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span``, which must be the innermost open span of its thread."""
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str, detail: Any = None) -> Iterator[Span]:
        """Time the body of a ``with`` block as one span."""
        opened = self.begin(name, detail)
        try:
            yield opened
        finally:
            self.finish(opened)

    def wrap(self, function: Callable, name: str,
             detail: Optional[DetailFn] = None) -> Callable:
        """A wrapper of ``function`` that records one span per call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return function(*args, **kwargs)
            opened = self.begin(name, detail(args, kwargs) if detail else None)
            try:
                return function(*args, **kwargs)
            finally:
                self.finish(opened)

        return traced

    @contextmanager
    def installed(self, sites: Sequence[Site]) -> Iterator[None]:
        """Wrap every site for the block's duration, then restore the originals.

        The originals are read from the owner's own ``__dict__``, so a method
        inherited from a base class must be wrapped on the class defining it.
        """
        replaced: List[Tuple[Any, str, Callable]] = []
        try:
            for site in sites:
                original = vars(site.owner)[site.attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{site.owner!r}.{site.attr} is not a plain function")
                setattr(site.owner, site.attr, self.wrap(original, site.span, site.detail))
                replaced.append((site.owner, site.attr, original))
            yield
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    def write_chrome(self, path: Path, origin: float) -> Path:
        """Write all closed spans as Chrome trace-event JSON (Perfetto-readable)."""
        pid = self._pid
        events = [{"name": span.name, "ph": "X", "pid": pid, "tid": span.tid,
                   "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
                   "args": {"id": span.id, "parent": span.parent,
                            "detail": _jsonable(span.detail)}}
                  for span in self.spans if not math.isnan(span.end)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return path


def _is_open(stack: List[Span], name: str) -> bool:
    for span in stack:
        if span.name == name:
            return True
    return False


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    return str(value)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - union_length(children[span.id])
            for span in spans}
