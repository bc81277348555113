"""Span ledger for the traced run: wrappers, spans, self time, percentiles.

The benchmark measures the program from outside ``src/``: in a traced
run it replaces each layer's public entry point *where its caller
looks it up* (a module global, a class attribute, or an attribute of
one live object) with a wrapper that records a span.  A span is
``(id, name, layer, thread, parent, start, end, attrs)``.  Each thread
keeps its own stack of open spans, so a span only ever nests under a
span of its own thread: the optimizer worker's solve never parents
under the asking thread's ``top_k``.

Spans stay in memory while the workload runs and are written out once
it has finished.  A layer's self time is the sum, over its spans, of
the span's duration minus the part of it that child spans cover, all
clipped to the measured window; summed over every layer on a thread
that telescopes to the time the thread spent inside root spans, and
what is left of the window is reported as unattributed.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One timed call of a wrapped entry point."""

    sid: int
    name: str
    layer: str
    thread: str
    parent: "int | None"
    start: float
    end: float = 0.0
    attrs: "dict[str, Any] | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Sample:
    """A statistic together with the number of samples behind it."""

    value: float
    n: int


def percentile(values, q: float) -> Sample:
    """Linear-interpolated ``q``-th percentile (0-100) and the count.

    An empty input gives ``Sample(0.0, 0)``, so a caller can always
    report how many samples a figure rests on.
    """
    data = sorted(values)
    if not data:
        return Sample(0.0, 0)
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    value = data[low] + (data[high] - data[low]) * (rank - low)
    return Sample(float(value), len(data))


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            name=name,
            layer=layer,
            thread=threading.current_thread().name,
            parent=stack[-1].sid if stack else None,
            start=self.clock(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        *,
        pre: "Callable[..., Any] | None" = None,
        post: "Callable[..., dict | None] | None" = None,
    ) -> Callable:
        """``fn`` inside a span.

        ``pre(*args, **kwargs)`` runs inside the span before the call and
        its return value is handed to ``post(state, result)``, whose
        returned dict becomes the span's attributes.
        """

        def wrapper(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                state = pre(*args, **kwargs) if pre is not None else None
                result = fn(*args, **kwargs)
                if post is not None:
                    span.attrs = post(state, result)
                return result
            finally:
                self.end(span)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.__dict__, default=str))
                handle.write("\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # An attribute the owner only inherits (an instance shadowing a
        # class method) is deleted on undo, not pinned to its old value.
        previous = vars(owner).get(attr, self._MISSING)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def wrap(
        self, tracer: Tracer, owner: object, attr: str, name: str, layer: str,
        **hooks,
    ) -> None:
        self.set(owner, attr, tracer.wrap(getattr(owner, attr), name, layer, **hooks))

    def undo(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def _clipped(span: Span, lo: float, hi: float) -> float:
    return max(0.0, min(span.end, hi) - max(span.start, lo))


@dataclass
class Ledger:
    """Self time per layer and per thread over one measured window."""

    window: float
    self_by_layer: dict[str, float] = field(default_factory=dict)
    self_by_span: dict[int, float] = field(default_factory=dict)
    unattributed_by_thread: dict[str, float] = field(default_factory=dict)

    @property
    def unattributed(self) -> float:
        return sum(self.unattributed_by_thread.values())

    @property
    def thread_seconds(self) -> float:
        """``window`` times the number of threads that recorded spans."""
        return self.window * len(self.unattributed_by_thread)


def build_ledger(spans: list[Span], lo: float, hi: float) -> Ledger:
    """Self time of every span and layer, clipped to ``[lo, hi]``.

    A span's self time is its clipped duration minus the clipped
    durations of its direct children (which, being on the same thread,
    are disjoint).  Each thread that recorded a span gets
    ``hi - lo`` seconds; the part not covered by its root spans is its
    unattributed remainder.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    ledger = Ledger(window=hi - lo)
    by_layer: dict[str, float] = defaultdict(float)
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        own = _clipped(span, lo, hi)
        inner = sum(_clipped(child, lo, hi) for child in children[span.sid])
        self_time = own - inner
        ledger.self_by_span[span.sid] = self_time
        by_layer[span.layer] += self_time
        if span.parent is None:
            covered[span.thread] += own
        else:
            covered.setdefault(span.thread, 0.0)
    ledger.self_by_layer = dict(by_layer)
    ledger.unattributed_by_thread = {
        thread: ledger.window - inside for thread, inside in covered.items()
    }
    return ledger


class Visibility:
    """Pairs each acknowledged WAL seq with the publish that carried it.

    ``submitted(seq, t)`` records when a vote was due (or submitted);
    ``published(last_seq, t)`` is called when
    ``SimilarityEngine.publish`` returns for a batch whose last WAL seq
    is ``last_seq``.  WAL seqs are handed out in submit order and
    batches publish in order, so a publish covers every recorded seq up
    to ``last_seq`` not covered by an earlier one — including a batch
    whose weight patch was empty.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.due: dict[int, float] = {}
        self.visible: dict[int, float] = {}
        self.batch_of: dict[int, int] = {}
        self.publishes = 0
        self.drained = threading.Event()
        self._expected: "int | None" = None

    def submitted(self, seq: int, due: float) -> None:
        with self._lock:
            self.due[seq] = due

    def published(self, last_seq: "int | None", at: float) -> None:
        with self._lock:
            self.publishes += 1
            if last_seq is not None:
                for seq in self.due:
                    if seq <= last_seq and seq not in self.visible:
                        self.visible[seq] = at
                        self.batch_of[seq] = self.publishes
            self._check_drained()

    def expect(self, count: int) -> None:
        """Set ``drained`` once ``count`` acknowledged seqs are visible."""
        with self._lock:
            self._expected = count
            self._check_drained()

    def _check_drained(self) -> None:
        if self._expected is not None and len(self.visible) >= self._expected:
            self.drained.set()

    def delays(self) -> list[float]:
        with self._lock:
            return [self.visible[s] - self.due[s] for s in self.visible]

    def unpublished(self) -> list[int]:
        with self._lock:
            return sorted(s for s in self.due if s not in self.visible)
