"""Hierarchical span tracer with Chrome-trace-event export.

:class:`Span` is the repo's single timing primitive: a context manager
measuring wall time with :func:`time.perf_counter`
(``repro.utils.timing.Timer`` is a thin alias).  A bare ``Span()``
records nothing — it is exactly the old ``Timer``.  A span obtained
from :meth:`Tracer.span` additionally reports itself to the tracer on
exit: the tracer keeps a per-thread open-span stack (so nesting is
captured even across helper calls), assigns depths and parent ids, and
exports the finished spans as Chrome trace events — a JSON file
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

The :data:`NULL_TRACER` singleton hands out plain unreported spans, so
instrumented code always writes ``with get_tracer().span(...) as s:``
and pays only the perf-counter pair when tracing is disabled.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = ["NULL_TRACER", "NullTracer", "Span", "SpanRecord", "Tracer"]


class Span:
    """Context manager measuring wall time, optionally reported.

    Drop-in superset of the pre-observability ``Timer``: ``elapsed``
    holds the last interval, :meth:`restart`/:meth:`lap` support
    lap-style reuse.  Spans handed out by a :class:`Tracer` also carry
    a name, a category and annotations, and are recorded on exit —
    including when the body raises, because ``__exit__`` always runs.

    Examples
    --------
    >>> with Span() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    __slots__ = ("name", "category", "elapsed", "_start", "_tracer", "_args")

    def __init__(
        self,
        name: str = "",
        category: str = "",
        tracer: "Tracer | None" = None,
        args: dict | None = None,
    ) -> None:
        self.name = name
        self.category = category
        self.elapsed: float = 0.0
        self._start: float | None = None
        self._tracer = tracer
        self._args = dict(args) if args else None

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer._pop(self)

    def restart(self) -> None:
        """Reset the start time and clear any previously stored interval.

        Without clearing, lap-style reuse (``restart()`` followed by an
        exception or an early exit before ``__exit__``) would report
        the *previous* interval's ``elapsed``.
        """
        self._start = time.perf_counter()
        self.elapsed = 0.0

    def lap(self) -> float:
        """Seconds since start/:meth:`restart` without stopping.

        Returns
        -------
        float
            The running interval.

        Raises
        ------
        RuntimeError
            If the span was never started.
        """
        if self._start is None:
            raise RuntimeError("Timer was never started")
        return time.perf_counter() - self._start

    def annotate(self, counters: dict | None = None, **kv: object) -> None:
        """Attach key/value payload shown in the trace viewer's args.

        Parameters
        ----------
        counters:
            Optional mapping folded in (the shape stage bodies return).
        **kv:
            Additional individual annotations.
        """
        if self._tracer is None:
            return
        if self._args is None:
            self._args = {}
        if counters:
            self._args.update(counters)
        if kv:
            self._args.update(kv)


class SpanRecord:
    """One finished span as stored by the tracer.

    Attributes
    ----------
    name, category:
        The span's identity (categories: ``stage``, ``shard``,
        ``solver``, ``stream``, ``serve``, ``io``, ...).
    start, duration:
        Seconds relative to the tracer's epoch / wall seconds.
    tid:
        Small integer thread id (stable within one tracer).
    depth:
        Nesting depth on its thread (0 = top level).
    parent:
        Name of the enclosing open span, or ``None``.
    args:
        Annotations attached via :meth:`Span.annotate`.
    """

    __slots__ = ("name", "category", "start", "duration", "tid", "depth",
                 "parent", "args")

    def __init__(self, name, category, start, duration, tid, depth, parent,
                 args) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.tid = tid
        self.depth = depth
        self.parent = parent
        self.args = args


class Tracer:
    """Collects finished spans and exports Chrome trace events.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner") as inner:
    ...         pass
    >>> [(r.name, r.depth) for r in tracer.records()]
    [('inner', 1), ('outer', 0)]
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._records: list[SpanRecord] = []
        self._tids: dict[int, int] = {}
        self._next_tid = 0
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        """Whether spans from this tracer are recorded (always True)."""
        return True

    def span(
        self, name: str, category: str = "", **args: object
    ) -> Span:
        """Create a span reporting to this tracer on exit.

        Parameters
        ----------
        name:
            Span name (pipeline stages use their profile names, so the
            trace nests ``densify.embedding`` under ``densify``).
        category:
            Coarse subsystem tag used for filtering (``stage``,
            ``shard``, ``solver``, ``stream``, ``serve``, ``io``).
        **args:
            Initial annotations (more via :meth:`Span.annotate`).

        Returns
        -------
        Span
            An *unstarted* span; use it as ``with tracer.span(...)``.
        """
        return Span(name, category=category, tracer=self, args=args or None)

    def _stack(self) -> list:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            # Thread-local by construction; no lock needed.
            self._local.stack = stack  # repro-lint: disable=R301
        return stack

    def _push(self, span: Span) -> None:
        """Register a span as opened on the current thread."""
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        """Record a finished span (tolerates out-of-order exits)."""
        stack = self._stack()
        if span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        depth = len(stack)
        parent = stack[-1].name if stack else None
        start = (span._start or 0.0) - self._epoch
        ident = threading.get_ident()
        with self._lock:
            tid = self._tid_locked(ident)
            self._records.append(
                SpanRecord(
                    span.name, span.category, start, span.elapsed, tid,
                    depth, parent, dict(span._args) if span._args else {},
                )
            )

    def _tid_locked(self, ident: int) -> int:
        """Small stable tid for a thread ident (caller holds the lock)."""
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._next_tid
            self._tids[ident] = tid
            self._next_tid += 1
        return tid

    def records(self, category: str | None = None) -> list:
        """Finished spans, in completion order.

        Parameters
        ----------
        category:
            Optional filter; only spans with this category.

        Returns
        -------
        list
            :class:`SpanRecord` objects (a copy — safe to mutate).
        """
        with self._lock:
            if category is None:
                return list(self._records)
            return [r for r in self._records if r.category == category]

    def clear(self) -> None:
        """Drop every recorded span (open spans are unaffected)."""
        with self._lock:
            self._records.clear()

    def chrome_trace(self) -> dict:
        """Build the Chrome trace-event representation.

        Complete (``"ph": "X"``) events with microsecond timestamps —
        the JSON shape Perfetto and ``chrome://tracing`` load directly.

        Returns
        -------
        dict
            ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.
        """
        with self._lock:
            events = [
                {
                    "name": record.name,
                    "cat": record.category or "repro",
                    "ph": "X",
                    "ts": round(record.start * 1e6, 3),
                    "dur": round(record.duration * 1e6, 3),
                    "pid": 0,
                    "tid": record.tid,
                    "args": record.args,
                }
                for record in self._records
            ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Serialize :meth:`chrome_trace` to a JSON file.

        Parameters
        ----------
        path:
            Destination file path (overwritten).
        """
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


class NullTracer:
    """Disabled tracer: hands out plain, unreported spans.

    Examples
    --------
    >>> with NULL_TRACER.span("ignored") as s:
    ...     pass
    >>> s.elapsed >= 0.0
    True
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """Whether spans from this tracer are recorded (always False)."""
        return False

    def span(self, name: str, category: str = "", **args: object) -> Span:
        """Create a plain span (timed, never recorded).

        Parameters
        ----------
        name:
            Span name (kept so callers can read it back).
        category:
            Ignored beyond storage.
        **args:
            Ignored.

        Returns
        -------
        Span
            An unreported span.
        """
        return Span(name, category=category)

    def records(self, category: str | None = None) -> list:
        """Always empty.

        Parameters
        ----------
        category:
            Ignored.

        Returns
        -------
        list
            ``[]``.
        """
        return []

    def clear(self) -> None:
        """No-op (disabled path)."""
        return None

    def chrome_trace(self) -> dict:
        """Empty trace document.

        Returns
        -------
        dict
            ``{"traceEvents": [], "displayTimeUnit": "ms"}``.
        """
        return {"traceEvents": [], "displayTimeUnit": "ms"}


#: Shared disabled-tracer singleton.
NULL_TRACER = NullTracer()
