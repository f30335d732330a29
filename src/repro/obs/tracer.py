"""Nested-span tracer with ``contextvars`` propagation.

The tracer is deliberately tiny and stdlib-only.  A :class:`Tracer` collects
:class:`Span` records; code under test wraps interesting phases in
:func:`span`, which is a *free function* so call sites never need a tracer
reference::

    from repro import obs

    tracer = obs.Tracer(service="cli")
    with tracer.activate():
        with obs.span("cli.batch", jobs=12):
            ...                     # nested obs.span() calls parent here

When no tracer is active — the default — :func:`span` returns a shared
no-op context manager without allocating anything, so instrumented hot
paths cost one module-level flag check per call (see
``tests/bench/test_tracing_overhead.py`` for the bound on that overhead and
perfbench's ``trace.overhead`` metric for the cost of tracing when on).

Propagation across threads is explicit (:func:`copy_context` at the spawn
site, as :mod:`contextvars` does not flow into new threads), and across
processes/HTTP via a ``traceparent``-style header (:func:`current_traceparent`
/ :meth:`Tracer.from_traceparent`) plus span records serialized back with
results (:meth:`Tracer.record_foreign`).
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "span",
    "tracing_enabled",
    "current_tracer",
    "current_traceparent",
    "format_traceparent",
    "parse_traceparent",
    "TRACEPARENT_HEADER",
]

#: HTTP header carrying the trace context between client and server.
TRACEPARENT_HEADER = "traceparent"

_NO_PARENT = "0" * 16

_ACTIVE_TRACER: "contextvars.ContextVar[Optional[Tracer]]" = contextvars.ContextVar(
    "repro_obs_tracer", default=None
)
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)

# Fast-path gate: number of live Tracer.activate() contexts process-wide.
# span() bails on `not _activations` before ever touching a ContextVar, which
# is what keeps disabled-mode overhead to a single integer truthiness test.
_activations = 0
_activations_lock = threading.Lock()


def _new_id(nbytes: int) -> str:
    return uuid.uuid4().hex[: nbytes * 2]


def tracing_enabled() -> bool:
    """True when at least one tracer is active anywhere in the process."""
    return _activations > 0


def current_tracer() -> Optional["Tracer"]:
    """The tracer active in the calling context, if any."""
    if not _activations:
        return None
    return _ACTIVE_TRACER.get()


@dataclass
class Span:
    """One finished (or in-flight) timed phase.

    ``start`` is wall-clock epoch seconds (so spans from different processes
    align on one timeline); ``duration`` is measured with
    :func:`time.perf_counter` so it is monotonic even if the clock steps.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    duration: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    process: str = ""
    thread: int = 0

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes after entry (e.g. counts known only at the end)."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "process": self.process,
            "thread": self.thread,
        }
        if self.parent_id:
            record["parent_id"] = self.parent_id
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=str(record["name"]),
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_id=record.get("parent_id"),
            start=float(record.get("start", 0.0)),
            duration=float(record.get("duration", 0.0)),
            attributes=dict(record.get("attributes") or {}),
            status=str(record.get("status", "ok")),
            process=str(record.get("process", "")),
            thread=int(record.get("thread", 0)),
        )


class _SpanContext:
    """Context manager for one live span; yields the :class:`Span`."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span.start = time.time()
        self._token = _CURRENT_SPAN.set(self._span)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.duration = time.perf_counter() - self._t0
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self._span.status = "error"
            self._span.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._record(self._span)
        return False


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one trace; thread-safe.

    :param service: logical process name stamped on every span (shows up as
        the process lane in Perfetto), e.g. ``"cli"`` or ``"server:8517"``.
    :param trace_id: adopt an existing trace id (distributed child tracers);
        ``None`` generates a fresh one.
    :param parent_id: span id that root-level spans of this tracer parent
        under — the remote caller's span when stitched over HTTP.
    """

    def __init__(
        self,
        *,
        service: str = "repro",
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.service = str(service)
        self.trace_id = str(trace_id) if trace_id else _new_id(16)
        self.root_parent_id = parent_id or None
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    @classmethod
    def from_traceparent(
        cls, header: Optional[str], *, service: str = "repro"
    ) -> "Tracer":
        """Tracer continuing the trace described by a ``traceparent`` header.

        A missing/malformed header yields a fresh root tracer, so servers can
        call this unconditionally.
        """
        parsed = parse_traceparent(header)
        if parsed is None:
            return cls(service=service)
        trace_id, parent_id = parsed
        return cls(service=service, trace_id=trace_id, parent_id=parent_id)

    # ------------------------------------------------------------------
    # span production
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        parent = _CURRENT_SPAN.get()
        record = Span(
            name=str(name),
            trace_id=self.trace_id,
            span_id=_new_id(8),
            parent_id=parent.span_id if parent is not None else self.root_parent_id,
            attributes=attributes,
            process=self.service,
            thread=threading.get_ident() & 0xFFFFFFFF,
        )
        return _SpanContext(self, record)

    def _record(self, record: Span) -> None:
        with self._lock:
            self._spans.append(record)

    def record_completed(
        self,
        name: str,
        duration: float,
        *,
        start: Optional[float] = None,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Record an externally-timed phase directly on *this* tracer.

        Unlike :func:`record_span` this ignores the ambient context — used
        when the measuring thread is not the thread the trace belongs to
        (e.g. the queue dispatcher recording a submitter's wait time).
        """
        record = Span(
            name=str(name),
            trace_id=self.trace_id,
            span_id=_new_id(8),
            parent_id=parent_id or self.root_parent_id,
            start=time.time() - duration if start is None else start,
            duration=max(float(duration), 0.0),
            attributes=attributes,
            process=self.service,
            thread=threading.get_ident() & 0xFFFFFFFF,
        )
        self._record(record)
        return record

    def record_foreign(self, records: Iterable[Dict[str, Any]]) -> int:
        """Merge serialized spans from another process/thread into this trace.

        Records are taken as-is (they already carry their own trace/parent
        ids); malformed ones are skipped.  Returns the number merged.
        """
        merged = 0
        for record in records or ():
            try:
                parsed = Span.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
            self._record(parsed)
            merged += 1
        return merged

    @property
    def spans(self) -> List[Span]:
        """Snapshot of the spans recorded so far."""
        with self._lock:
            return list(self._spans)

    def span_dicts(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready dicts (the cross-process wire form)."""
        return [record.to_dict() for record in self.spans]

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------

    def activate(self, *, parent_id: Optional[str] = None) -> "_Activation":
        """Context manager making this the tracer for the current context.

        While any activation is live anywhere in the process,
        :func:`tracing_enabled` is true; nesting and multi-thread activation
        are fine (each context sees its own tracer).  ``parent_id`` pins the
        parent that spans opened in this context attach under — used when a
        worker thread executes on behalf of a span opened elsewhere."""
        return _Activation(self, parent_id)


class _Activation:
    __slots__ = ("_tracer", "_parent_id", "_token", "_span_token")

    def __init__(self, tracer: Tracer, parent_id: Optional[str] = None) -> None:
        self._tracer = tracer
        self._parent_id = parent_id

    def __enter__(self) -> Tracer:
        global _activations
        self._token = _ACTIVE_TRACER.set(self._tracer)
        self._span_token = None
        if self._parent_id:
            # a stub span carrying only the id: children parent under it, it
            # is never recorded itself (the real span lives in another thread
            # or process)
            stub = Span(
                name="", trace_id=self._tracer.trace_id, span_id=self._parent_id
            )
            self._span_token = _CURRENT_SPAN.set(stub)
        with _activations_lock:
            _activations += 1
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _activations
        with _activations_lock:
            _activations -= 1
        if self._span_token is not None:
            _CURRENT_SPAN.reset(self._span_token)
        _ACTIVE_TRACER.reset(self._token)
        return False


def record_span(
    name: str,
    duration: float,
    *,
    start: Optional[float] = None,
    parent_id: Optional[str] = None,
    **attributes: Any,
) -> Optional[Span]:
    """Record an already-measured phase as a completed span.

    For phases whose timing is captured by the caller (event loops measured
    with a plain ``perf_counter`` pair, queue wait measured submit-to-drain)
    where a ``with`` block would force restructuring.  ``start`` defaults to
    "``duration`` seconds ago"; ``parent_id`` defaults to the context's
    current span.  No-op (returns ``None``) while tracing is disabled.
    """
    if not _activations:
        return None
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return None
    if parent_id is None:
        current = _CURRENT_SPAN.get()
        parent_id = current.span_id if current is not None else tracer.root_parent_id
    record = Span(
        name=str(name),
        trace_id=tracer.trace_id,
        span_id=_new_id(8),
        parent_id=parent_id,
        start=time.time() - duration if start is None else start,
        duration=max(float(duration), 0.0),
        attributes=attributes,
        process=tracer.service,
        thread=threading.get_ident() & 0xFFFFFFFF,
    )
    tracer._record(record)
    return record


def span(name: str, **attributes: Any):
    """Open a span on the context's active tracer; no-op when tracing is off.

    The disabled path returns a shared null context manager and performs no
    allocation — safe to leave in hot loops.
    """
    if not _activations:
        return _NULL_SPAN
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


# ----------------------------------------------------------------------
# traceparent propagation
# ----------------------------------------------------------------------


def format_traceparent(trace_id: str, span_id: Optional[str]) -> str:
    """``00-<trace_id>-<span_id>-01`` (W3C-shaped; ids are our own widths)."""
    return f"00-{trace_id}-{span_id or _NO_PARENT}-01"


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, Optional[str]]]:
    """Decode a traceparent header to ``(trace_id, parent_span_id)``.

    Returns ``None`` for a missing or malformed header; an all-zero parent
    field decodes to ``parent_span_id=None`` (trace id only).
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    _, trace_id, parent_id, _ = parts
    if not trace_id or any(c not in "0123456789abcdef" for c in trace_id.lower()):
        return None
    if set(trace_id) == {"0"}:
        return None
    if not parent_id or set(parent_id) == {"0"}:
        return trace_id, None
    return trace_id, parent_id


def current_span_id() -> Optional[str]:
    """Span id of the context's current span (None when not tracing)."""
    if not _activations:
        return None
    current = _CURRENT_SPAN.get()
    return current.span_id if current is not None else None


def current_traceparent() -> Optional[str]:
    """Header value carrying the calling context's trace position.

    ``None`` when no tracer is active — callers simply omit the header.
    """
    if not _activations:
        return None
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return None
    current = _CURRENT_SPAN.get()
    parent = current.span_id if current is not None else tracer.root_parent_id
    return format_traceparent(tracer.trace_id, parent)
