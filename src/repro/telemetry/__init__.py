"""Simulation telemetry: counters, histograms, tracing, sampling.

Four sinks, each optional:

* :mod:`repro.telemetry.stats` — a hierarchical :class:`Stats` registry
  of named counters/histograms,
* :mod:`repro.telemetry.trace` — a structured :class:`Tracer` of typed
  events (instruction slices, send/recv/block/unblock, ``cix``
  invocations, cache misses, NoC link reservations) exporting Chrome
  trace-event JSON,
* :mod:`repro.telemetry.timeseries` — a :class:`TimeSeries` collector
  of fixed-interval ring-buffered samples (per-tile IPC/stall mix,
  per-link flit utilization, channel occupancy, energy per interval),
  rendered by :mod:`repro.telemetry.monitor` and ``repro monitor``,
* :class:`~repro.critpath.DependencyRecorder` — the causal recording
  ``repro critpath`` analyzes;

plus :mod:`repro.telemetry.rollup`, the :class:`SystemStats` per-run
aggregation attached to every :meth:`StitchSystem.run` result.

A :class:`Telemetry` bundle holds one of each and is the only thing
simulation code talks to: cores, NoC, fabric, co-simulator and chaos
injector fire one hook per simulated event, and the bundle decides at
construction which enabled sinks hear it.  A disabled event is a
``None`` hook, so the disabled path is one ``is not None`` check and
no call.  ``ensure_telemetry`` normalizes the values accepted by
constructor ``telemetry=`` parameters (``None``/``False`` → disabled
singleton, ``True`` → fresh enabled bundle, a bundle → itself).
"""

from repro.telemetry.stats import (
    Counter,
    Histogram,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_STATS,
    NullStats,
    Stats,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)
from repro.telemetry.timeseries import (
    NULL_TIMESERIES,
    NullTimeSeries,
    TimeSeries,
)
from repro.telemetry.rollup import ATTRIBUTION_BUCKETS, SystemStats
from repro.critpath.recorder import (
    DependencyRecorder,
    NULL_RECORDER,
    ensure_recorder,
)


#: The tracer instant each chaos event kind becomes.
_CHAOS_INSTANTS = {"fault": "fault", "detect": "fault_detected",
                   "recover": "fault_recovered"}


def _fan(*listeners):
    """One event's hook: ``None`` without listeners, the listener itself
    when there is one, else a call to each in order."""
    listeners = [listener for listener in listeners if listener is not None]
    if len(listeners) < 2:
        return listeners[0] if listeners else None

    def fan_out(*args):
        for listener in listeners:
            listener(*args)

    return fan_out


class Telemetry:
    """The one event surface of a simulation: stats, tracer, time
    series and dependency recorder behind one hook per simulated event.

    ``timeseries`` and ``recorder`` stay their null singletons unless
    passed explicitly — interval sampling and causal recording are
    opt-in (``repro monitor`` / ``repro critpath``), unlike
    stats/tracing which a bare ``Telemetry()`` enables.

    Simulation code never addresses a sink.  Each event is an attribute
    fixed at construction: ``None`` when no enabled sink listens (the
    call site makes one ``is not None`` check and no call), the sink's
    own bound method when exactly one does, else a fan-out in a fixed
    order:

    * ``cache_miss``, ``cix``, ``tile_span``, ``comm_unblocked``,
      ``deadlock``, ``recv_timeout`` — tracer;
    * ``comm_send``, ``comm_recv`` — recorder (which also takes the
      core's counter snapshot), then tracer;
    * ``comm_blocked`` — recorder, then tracer;
    * ``fabric_send``, ``fabric_recv`` — recorder;
    * ``tile_sample`` — time series (``Core.flush_timeseries``);
    * ``chaos_event`` — ``chaos.*`` stats counters, tracer, recorder.

    The two events that feed a stats histogram are bound per component,
    because a NoC or fabric registers its histogram when it is built:
    :meth:`link_crossed` and :meth:`channel_occupancy`.
    :meth:`close_run` is the run epilogue every harness shares.
    """

    __slots__ = (
        "stats", "tracer", "timeseries", "recorder", "observes_cores",
        "cache_miss", "cix", "tile_span", "comm_send", "comm_recv",
        "comm_blocked", "comm_unblocked", "fabric_send", "fabric_recv",
        "tile_sample", "chaos_event", "deadlock", "recv_timeout",
    )

    def __init__(self, stats=None, tracer=None, timeseries=None,
                 recorder=None):
        self.stats = stats = stats if stats is not None else Stats()
        self.tracer = tracer = tracer if tracer is not None else Tracer()
        self.timeseries = timeseries = (
            timeseries if timeseries is not None else NULL_TIMESERIES
        )
        self.recorder = recorder = ensure_recorder(recorder)
        traced, recorded = tracer.enabled, recorder.enabled
        #: A watched core runs instrumented: the fast loop has no hooks.
        self.observes_cores = traced or recorded or timeseries.enabled

        for event in ("cache_miss", "cix", "tile_span", "comm_unblocked",
                      "deadlock", "recv_timeout"):
            setattr(self, event, getattr(tracer, event) if traced else None)
        self.fabric_send = recorder.fabric_send if recorded else None
        self.fabric_recv = recorder.fabric_recv if recorded else None
        self.tile_sample = timeseries.tile_sample if timeseries.enabled else None
        self.comm_blocked = _fan(recorder.recv_blocked if recorded else None,
                                 tracer.comm_blocked if traced else None)
        self.comm_send = _fan(
            recorder.send if recorded else None,
            (lambda tile, peer, words, start, end, counters:
             tracer.comm_send(tile, peer, words, start, end))
            if traced else None,
        )
        self.comm_recv = _fan(
            recorder.recv if recorded else None,
            (lambda tile, peer, words, start, end, counters:
             tracer.comm_recv(tile, peer, words, start, end))
            if traced else None,
        )

        def count_chaos(tile, kind, site, cycle, detail):
            stats.add(f"chaos.{kind}")
            stats.add(f"chaos.{kind}.{site}")

        def trace_chaos(tile, kind, site, cycle, detail):
            instant = getattr(tracer, _CHAOS_INSTANTS[kind])
            instant(tile, site, cycle, **detail)

        self.chaos_event = _fan(
            count_chaos if stats.enabled else None,
            trace_chaos if traced else None,
            (lambda tile, kind, site, cycle, detail:
             recorder.chaos_event(tile, kind, site, cycle))
            if recorded else None,
        )

    def link_crossed(self, contention):
        """The ``link_crossed(link, src, dst, time, flits, waited)`` hook
        of one NoC, or ``None``: registers ``noc.link_wait`` (when stats
        are on) and feeds it only under the contention model, where
        crossings can queue; then the recorder, tracer and time series.
        """
        waits = self.stats.histogram("noc.link_wait").observe
        recorder, tracer, timeseries = (self.recorder, self.tracer,
                                        self.timeseries)
        return _fan(
            (lambda link, src, dst, time, flits, waited: waits(waited))
            if contention and self.stats.enabled else None,
            recorder.noc_crossing if recorder.enabled else None,
            tracer.link_reserved if tracer.enabled else None,
            (lambda link, src, dst, time, flits, waited:
             timeseries.link_flits(link, time, flits))
            if timeseries.enabled else None,
        )

    def channel_occupancy(self):
        """The ``channel_occupancy(src, dst, time, occupancy)`` hook of
        one fabric, or ``None``; registers ``fabric.channel_occupancy``
        (when stats are on) and feeds it, then the time series."""
        observe = self.stats.histogram("fabric.channel_occupancy").observe
        timeseries = self.timeseries
        return _fan(
            (lambda src, dst, time, occupancy: observe(occupancy))
            if self.stats.enabled else None,
            timeseries.channel_occupancy if timeseries.enabled else None,
        )

    def close_run(self, cores, reasons, outcome, snapshot=None,
                  energy=None):
        """The run epilogue: ``reasons`` maps each core to its stop
        reason, ``outcome`` is ``complete``/``deadlock``/``timeout``/
        ``budget``.  The recorder closes every tile's timeline, also for
        a partial run (its blocked receives become the frontier); a
        complete run also flushes each core's open sampling interval and
        derives interval energy from ``energy`` (an ``EnergyModel``,
        default the default platform's)."""
        recorder = self.recorder
        if recorder.enabled:
            for core in cores:
                recorder.tile_done(core.core_id, core.cycles, reasons[core],
                                   core._recorder_counters())
            recorder.finish(outcome, snapshot=snapshot)
        if outcome == "complete" and self.timeseries.enabled:
            from repro.power.chip import EnergyModel

            for core in cores:
                core.flush_timeseries()
            self.timeseries.add_energy(
                energy if energy is not None else EnergyModel())

    @property
    def enabled(self):
        return (self.stats.enabled or self.tracer.enabled
                or self.timeseries.enabled or self.recorder.enabled)

    def __repr__(self):
        return f"Telemetry(enabled={self.enabled}, {len(self.tracer)} events)"


NULL_TELEMETRY = Telemetry(NULL_STATS, NULL_TRACER, NULL_TIMESERIES)


def ensure_telemetry(value):
    """Normalize a constructor's ``telemetry=`` argument to a bundle."""
    if value is None or value is False:
        return NULL_TELEMETRY
    if value is True:
        return Telemetry()
    return value


__all__ = [
    "ATTRIBUTION_BUCKETS",
    "Counter",
    "DependencyRecorder",
    "Histogram",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "NULL_RECORDER",
    "NULL_STATS",
    "NULL_TELEMETRY",
    "NULL_TIMESERIES",
    "NULL_TRACER",
    "NullStats",
    "NullTimeSeries",
    "NullTracer",
    "Stats",
    "SystemStats",
    "Telemetry",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "ensure_recorder",
    "ensure_telemetry",
]
