"""Span recorder, self-time arithmetic and percentile helpers.

Spans are recorded from *outside* the program: :meth:`Recorder.wrap`
replaces a layer's public callable (in the namespace of the module that
*uses* it — ``from x import y`` binds a private copy of the name) with
a timing wrapper, and :meth:`Recorder.unwrap_all` puts every original
back.  A span is ``{id, name, start_ns, end_ns, parent, req}``; the
spans of one request share ``req``.  They stay in memory until the
caller writes them out (:func:`write_spans`).

The traced replays run one request at a time from one *driver* thread,
but an in-process ``RpcServer`` answers on its own handler thread.  A
span that opens on such a thread with nothing open above it is
parented to the driver's innermost open span — the client is blocked
waiting on exactly that work — so one request forms one tree across
both threads and the per-layer self times sum to the request total.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


class Span:
    __slots__ = ("id", "name", "start_ns", "end_ns", "parent", "req")

    def __init__(self, id, name, start_ns, parent, req):
        self.id = id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.req = req

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Collects spans and counters for one traced replay."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        #: Identifier stamped on every span until the driver changes it.
        self.req = None
        self._ids = itertools.count()
        self._driver = threading.get_ident()
        self._driver_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def on_driver(self) -> bool:
        return threading.get_ident() == self._driver

    def _stack(self) -> list[int]:
        if self.on_driver():
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif not self.on_driver() and self._driver_stack:
            parent = self._driver_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter_ns(), parent, self.req)
        stack.append(span.id)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()

    def count(self, counter: str, by: float = 1) -> None:
        self.counters[counter] += by

    # -- instrumentation ------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        on_result: Callable | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``name`` is a string, or a ``(driver, other)`` pair naming the
        span by the thread that made the call (the client and the
        server share ``repro.api.wire``'s codec functions).  A property
        is wrapped through its getter.  ``on_result(recorder, span,
        result, args)`` runs after each call, for counters taken at the
        same boundary (it may also rename the span by outcome, e.g.
        cache hit or miss).  Wrapping a method a subclass inherits from
        an already wrapped base times the base's original, once.
        """
        inherited = isinstance(owner, type) and attr not in vars(owner)
        original = vars(owner)[attr] if not inherited else getattr(owner, attr)
        target = original.fget if isinstance(original, property) else original
        if inherited:
            target = getattr(target, "_bench_original", target)
        names = (name, name) if isinstance(name, str) else tuple(name)
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.begin(names[0] if recorder.on_driver() else names[1])
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.end(span)
            if on_result is not None:
                on_result(recorder, span, result, args)
            return result

        traced.__name__ = getattr(target, "__name__", attr)
        traced._bench_original = target
        replacement = property(traced) if isinstance(original, property) else traced
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, inherited))

    def unwrap_all(self) -> None:
        for owner, attr, original, inherited in reversed(self._patches):
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Each span's self time in ns: its interval minus what its children cover.

    A child is first clipped to its parent's (already clipped) interval
    — a server thread's send can outlast the client wait it is
    parented to — so the self times of one tree sum to exactly the
    root's duration.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            children[span.parent].append(span)
    effective: dict[int, tuple[int, int]] = {}

    def clip(span: Span) -> tuple[int, int]:
        if span.id in effective:
            return effective[span.id]
        start, end = span.start_ns, span.end_ns
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            lo, hi = clip(parent)
            start, end = min(max(start, lo), hi), max(min(end, hi), lo)
        effective[span.id] = (start, max(start, end))
        return effective[span.id]

    out = {}
    for span in spans:
        start, end = clip(span)
        out[span.id] = (end - start) - _covered(clip(c) for c in children[span.id])
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, int]:
    """Total self time in ns per span name."""
    totals: dict[str, int] = defaultdict(int)
    own = self_times(spans)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def write_spans(path, spans: Sequence[Span]) -> None:
    """One JSON object per line, in recording order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
