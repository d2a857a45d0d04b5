"""Campaign telemetry: metrics registry, phase spans, pluggable sinks.

This package is the engine's first-class observability surface (the
"metrics surface" item on the roadmap): every layer — campaign executor,
adaptive scheduler, result store, simulator, dataset layer,
experiment runner — reports into the *current* :class:`Telemetry`:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms and timers whose snapshots merge across processes (worker
  processes return ``registry.snapshot()`` with each shard payload and the
  executor absorbs them, exactly like the campaign counter accumulator);
* :class:`~repro.obs.trace.Tracer` — span events over the pipeline phases
  (synthesize → golden trace → campaign → features → dataset → train →
  report), emitted as a structured JSONL stream;
* sinks (:mod:`repro.obs.sinks`) — JSONL file, in-memory capture for
  tests, and a live TTY progress line with throughput/ETA.

The default telemetry has a live registry but **no sinks**: metrics are
always recorded (a handful of dict operations per shard — measured < 2%
on the scheduler benchmark), while event emission, which is the expensive
part, only happens once a sink is attached (``Telemetry.active``).

Scoped use::

    from repro.obs import Telemetry, use_telemetry
    from repro.obs.sinks import JsonlSink

    telemetry = Telemetry(sinks=[JsonlSink("run.jsonl")])
    with use_telemetry(telemetry):
        CampaignEngine(spec).run()  # every layer reports into `telemetry`
    telemetry.close()

See ``docs/observability.md`` for the event schema and the CLI flags
(``--metrics-out``, ``--trace-out``, ``--live``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Timer,
)
from .sinks import JsonlSink, LiveProgressSink, MemorySink, NullSink, Sink
from .trace import PIPELINE_PHASES, Tracer

__all__ = [
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "ProgressThrottle",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Tracer",
    "PIPELINE_PHASES",
    "Sink",
    "JsonlSink",
    "MemorySink",
    "LiveProgressSink",
    "NullSink",
]


class Telemetry:
    """One registry + one tracer + any number of sinks."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sinks: Optional[Sequence[Sink]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sinks: List[Sink] = list(sinks) if sinks is not None else []
        self.tracer = Tracer(self)

    @property
    def active(self) -> bool:
        """Whether any sink is attached (event emission short-circuits
        entirely when not)."""
        return bool(self.sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def emit(self, event: Dict) -> None:
        """Stamp *event* with a wall-clock ``ts`` and fan out to sinks."""
        if not self.sinks:
            return
        event.setdefault("ts", round(time.time(), 6))
        for sink in self.sinks:
            if sink.accepts(event):
                sink.emit(event)

    def emit_provenance(self, **attrs: object) -> None:
        """The run's identity stamp — emitted once, first, per output file."""
        import platform as _platform

        from .. import __version__

        self.emit(
            {
                "event": "provenance",
                "code_version": __version__,
                "python": _platform.python_version(),
                "machine": _platform.machine(),
                **attrs,
            }
        )

    def flush_metrics(self, label: str = "final") -> MetricsSnapshot:
        """Emit the registry's current snapshot as a ``metrics`` event."""
        snapshot = self.registry.snapshot()
        self.emit(
            {"event": "metrics", "label": label, "metrics": snapshot.to_payload()}
        )
        return snapshot

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
        self.sinks = []


#: Process-wide current telemetry.  The default records metrics but emits
#: nothing (no sinks); worker processes start from this and the executor
#: absorbs their snapshots.
_CURRENT = Telemetry()


def get_telemetry() -> Telemetry:
    """The telemetry instance every instrumented layer reports into."""
    return _CURRENT


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install *telemetry* as current; returns the previous instance."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scope *telemetry* as current for the duration of the block."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


class ProgressThrottle:
    """Rate-limits a ``callback(done, total)`` without losing the ends.

    The campaign executor used to invoke its progress callback after every
    shard; on sharded paper-scale runs that is hundreds of calls (and, via
    the CLI, hundreds of printed lines) for a bar nobody can read.  The
    throttle forwards the **first** call, any call at least
    ``min_interval`` seconds after the last forwarded one, and — always —
    the **final** call (``done == total``), so consumers observe the exact
    terminal counts (regression-tested in ``tests/test_obs.py``).

    ``min_interval=0`` forwards everything (the pre-throttle behavior).
    """

    def __init__(
        self,
        callback: Callable[[int, int], None],
        min_interval: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.callback = callback
        self.min_interval = min_interval
        self.clock = clock
        self._last: Optional[float] = None
        self.forwarded = 0
        self.suppressed = 0

    def __call__(self, done: int, total: int) -> None:
        now = self.clock()
        if (
            done >= total
            or self._last is None
            or now - self._last >= self.min_interval
        ):
            self._last = now
            self.forwarded += 1
            self.callback(done, total)
        else:
            self.suppressed += 1
