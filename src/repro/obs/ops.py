"""The one instrumentation seam: ``with op(name, **attrs) as o: ... o.set(...)``.

The operation's :data:`~repro.obs.catalog.OPS` row declares its sinks.
On exit the operation reads the clock once and feeds every declared
sink from the same attribute dict; one that raises only marks its span
with the error.  One whose sinks are all inactive (recorder disarmed,
span sampled out, no histogram) reads no clock.  Objects owning
labelled series bind their operations once through :class:`Ops`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.obs.catalog import HISTOGRAM_BUCKETS, OPS
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, get_registry
from repro.obs.recorder import active_recorder
from repro.obs.tracing import Span, trace_span

__all__ = ["Ops", "op", "event"]


class Ops:
    """The catalog operations named ``<prefix>…``, bound once to a
    registry and label set, so :meth:`op` looks up no histogram."""

    def __init__(
        self, registry: "MetricsRegistry | None", prefix: str, **labels: str
    ) -> None:
        registry = registry if registry is not None else get_registry()
        self._bound: dict[str, Any] = {}
        for name, spec in OPS.items():
            if name.startswith(prefix):
                # (attribute, histogram) sinks; attribute None: the latency
                pairs = [(None, spec.histogram)] if spec.histogram else []
                pairs += spec.values.items()
                self._bound[name] = (spec, [
                    (attr, registry.histogram(
                        series,
                        buckets=HISTOGRAM_BUCKETS.get(series, DEFAULT_LATENCY_BUCKETS),
                        **labels,
                    ))
                    for attr, series in pairs
                ])

    def op(self, name: str, **attrs: Any) -> Any:
        """Open the bound operation ``name`` as a context manager."""
        spec, sinks = self._bound[name]
        rec = active_recorder() if spec.event == "timed" else None
        span = trace_span(name) if spec.span else None
        if isinstance(span, Span):
            span.attrs = attrs  # one attribute dict for every sink
        elif rec is None and not sinks:
            return _NOOP if span is None else span  # a sampled-out span is free
        return _Op(name, attrs, span, rec, sinks)


class _Op:
    """A running operation; :meth:`set` adds attributes for every sink."""

    __slots__ = ("name", "attrs", "span", "rec", "sinks", "start")

    def __init__(
        self, name: str, attrs: dict[str, Any], span: Any, rec: Any, sinks: Any
    ) -> None:
        self.name, self.attrs, self.span, self.rec = name, attrs, span, rec
        self.sinks = sinks

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Op":
        if self.span is not None:
            self.span.__enter__()
        live = isinstance(self.span, Span)
        self.start = self.span.start if live else perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = perf_counter()
        if self.span is not None:
            if isinstance(self.span, Span):
                self.span.end = end
            self.span.__exit__(*exc_info)
        if exc_info[0] is None:
            elapsed = end - self.start
            for attr, histogram in self.sinks:
                value = elapsed if attr is None else self.attrs.get(attr)
                if value is not None:
                    histogram.observe(float(value))
            if self.rec is not None:
                self.rec.record_ended(self.name, end, elapsed, self.attrs)
        return False


class _NoopOp:
    """An operation every sink skipped: entering and setting are free."""

    __slots__ = ()
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopOp":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP = _NoopOp()


def op(name: str, **attrs: Any) -> Any:
    """Open the catalog operation ``name`` (unlabelled histograms in the
    process registry) as a context manager."""
    return Ops(None, name).op(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record the catalog point event ``name`` if a recorder is armed."""
    rec = active_recorder()
    if rec is not None:
        rec.record(name, **attrs)
