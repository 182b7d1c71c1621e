"""Causal execution-graph recording for multi-tile runs.

A :class:`DependencyRecorder` observes one run of the co-simulator and
keeps, per tile, the alternating compute/communication segments in
program order, plus the cross-tile provenance of every received word.
The hooks are *telemetry-style*: components fire events on their
:class:`~repro.telemetry.Telemetry` bundle, which routes them here only
when recording is on (:data:`NULL_RECORDER` is then the bundle's
readable, empty ``recorder``) — the interpreter hot loop itself carries
**no** per-instruction work, because compute segments are
reconstructed from the tile-local clock at the comm events that
bracket them.

Two half-hooks meet per communication op:

* the **fabric** reports the timing facts it alone knows —
  ``fabric_send`` (NoC arrival + injection-done cycles, per-link
  crossings) and ``fabric_recv`` (ready time, drain, and the FIFO
  provenance of the popped words via :class:`ChannelMatcher`);
* the **core** closes the op — ``send``/``recv`` with its local issue
  and finish cycles plus a counter snapshot (instructions, stall
  buckets, cache misses/writebacks) so each compute segment carries an
  exact attribution and miss composition (the substrate of
  DRAM-latency what-ifs).

``tile_done``/``finish`` finalize a complete run; ``finish`` with a
``deadlock``/``budget`` outcome finalizes a *partial* graph whose
blocked receives become frontier nodes instead of crashing the
analysis.

This module must not import :mod:`repro.telemetry` or the simulator —
both import it.
"""

from repro.critpath.matcher import ChannelMatcher

#: Counter snapshot order (see :meth:`Core._recorder_counters`).  The
#: first four partition a compute segment's cycles exactly
#: (``cycles == instructions + memory + icache + branch`` between comm
#: ops — the attribution invariant); the last three are the DRAM-touch
#: counts a ``dram_latency`` what-if needs (each miss/writeback costs
#: exactly one DRAM latency).
COUNTER_FIELDS = (
    "instructions",
    "memory_stall",
    "icache_stall",
    "branch_bubble",
    "icache_misses",
    "dcache_misses",
    "dcache_writebacks",
    "cix",
)

_ZEROS = (0,) * len(COUNTER_FIELDS)

KIND_SEND = "send"
KIND_RECV = "recv"
KIND_HALT = "halt"
KIND_BLOCKED = "blocked"
KIND_CUT = "cut"


class OpRecord:
    """One tile-local event: a comm op, the halt, or a blocked recv.

    ``issue``/``end`` are tile-local cycles; the compute segment that
    *precedes* the event (from the previous event's ``end``) is stored
    on the record as ``compute`` plus its counter deltas, so each
    record fully describes one "compute then operate" step.
    """

    __slots__ = (
        "index", "kind", "tile", "seq", "issue", "end", "compute",
        "counters", "peer", "words",
        "arrival", "inject", "crossings",       # send
        "ready", "drain", "sources",            # recv
    )

    def __init__(self, index, kind, tile, seq, issue, end, compute,
                 counters, peer=None, words=None, arrival=None,
                 inject=None, crossings=(), ready=None, drain=None,
                 sources=()):
        self.index = index
        self.kind = kind
        self.tile = tile
        self.seq = seq
        self.issue = issue
        self.end = end
        self.compute = compute
        self.counters = counters
        self.peer = peer
        self.words = words
        self.arrival = arrival
        self.inject = inject
        self.crossings = list(crossings)
        self.ready = ready
        self.drain = drain
        self.sources = list(sources)

    @property
    def noc(self):
        """NoC flight time of a send: issue to last-flit arrival."""
        return self.arrival - self.issue if self.arrival is not None else None

    @property
    def wait(self):
        """Cycles a recv stalled beyond its local issue point."""
        if self.ready is None:
            return 0
        return max(0, self.ready - self.issue)

    @property
    def binding(self):
        """Record index of the send that delivered the last word."""
        return self.sources[-1][0] if self.sources else None

    def to_dict(self):
        payload = {
            "index": self.index,
            "kind": self.kind,
            "tile": self.tile,
            "seq": self.seq,
            "issue": self.issue,
            "end": self.end,
            "compute": self.compute,
            "counters": dict(self.counters),
        }
        if self.peer is not None:
            payload["peer"] = self.peer
        if self.words is not None:
            payload["words"] = self.words
        if self.kind == KIND_SEND:
            payload["arrival"] = self.arrival
            payload["inject"] = self.inject
            if self.crossings:
                payload["crossings"] = [list(c) for c in self.crossings]
        if self.kind == KIND_RECV:
            payload["ready"] = self.ready
            payload["drain"] = self.drain
            payload["sources"] = [list(s) for s in self.sources]
        return payload

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["index"], payload["kind"], payload["tile"],
            payload["seq"], payload["issue"], payload["end"],
            payload["compute"], dict(payload.get("counters", {})),
            peer=payload.get("peer"), words=payload.get("words"),
            arrival=payload.get("arrival"), inject=payload.get("inject"),
            crossings=[tuple(c) for c in payload.get("crossings", ())],
            ready=payload.get("ready"), drain=payload.get("drain"),
            sources=[tuple(s) for s in payload.get("sources", ())],
        )

    def __repr__(self):
        return (f"OpRecord({self.kind} tile {self.tile} seq {self.seq} "
                f"@{self.issue}..{self.end})")


class DependencyRecorder:
    """Records the causal dependency structure of one run."""

    enabled = True

    def __init__(self, platform=None):
        self.records = []
        self.outcome = None            # "complete" | "deadlock" | "budget"
        self.snapshot = {}             # error snapshot for partial runs
        self.blocked = {}              # tile -> {"peer", "words", "cycles"}
        self.meta = {}
        if platform is not None:
            self.meta = {
                "platform": platform.name,
                "dram_latency": platform.mem.dram_latency,
            }
        self.chaos_events = []         # (tile, kind, site, cycle) tuples
        self._matcher = ChannelMatcher()
        self._snap = {}                # tile -> counter tuple
        self._prev_end = {}            # tile -> local clock after last event
        self._seq = {}                 # tile -> next sequence number
        self._crossings = []           # scratch: current packet's links
        self._pending_send = None
        self._pending_recv = None

    # -- fabric-side half-hooks ---------------------------------------------

    def noc_crossing(self, link, src, dst, crossed, flits, waited):
        """One packet crossing one directed link (the NoC's
        ``link_crossed`` event)."""
        self._crossings.append((f"{link[0]}->{link[1]}", crossed, flits,
                                waited))

    def fabric_send(self, src, dst, words, now, arrival, injection_done):
        """The fabric injected a message; core-side ``send`` closes it."""
        crossings = self._crossings
        self._crossings = []
        self._pending_send = (src, dst, words, now, arrival, injection_done,
                              crossings)

    def fabric_recv(self, src, dst, words, now, ready, finish, drain):
        """The fabric satisfied a receive; core-side ``recv`` closes it."""
        sources = self._matcher.pop(src, dst, words)
        self._pending_recv = (src, dst, words, now, ready, finish, drain,
                              sources)

    # -- core-side hooks -----------------------------------------------------

    def send(self, tile, peer, words, issue, end, counters):
        pending = self._pending_send
        self._pending_send = None
        if pending is not None and pending[0] == tile and pending[3] == issue:
            arrival, crossings = pending[4], pending[6]
        else:  # no fabric hook (bare harness): injection is all we know
            arrival, crossings = end, ()
        record = self._record(KIND_SEND, tile, issue, end, counters,
                              peer=peer, words=words, arrival=arrival,
                              inject=end - issue, crossings=crossings)
        self._matcher.push(tile, peer, record.index, words)
        return record

    def recv(self, tile, peer, words, issue, end, counters):
        pending = self._pending_recv
        self._pending_recv = None
        if pending is not None and pending[1] == tile and pending[3] == issue:
            ready, drain, sources = pending[4], pending[6], pending[7]
        else:
            ready, drain, sources = issue, end - issue, ()
        self.blocked.pop(tile, None)
        return self._record(KIND_RECV, tile, issue, end, counters,
                            peer=peer, words=words, ready=ready,
                            drain=drain, sources=sources)

    def recv_blocked(self, tile, peer, words, now):
        """A receive found no data; overwritten on every re-poll."""
        self.blocked[tile] = {"peer": peer, "words": words, "cycles": now}

    def chaos_event(self, tile, kind, site, cycle):
        """A fault-injection event (fault/detect/recover) on one tile.

        Kept as a side-band annotation stream so causal analyses can
        correlate anomalous segments with the injected faults that
        caused them.
        """
        self.chaos_events.append((tile, kind, site, cycle))

    # -- finalization --------------------------------------------------------

    def tile_done(self, tile, cycles, reason, counters):
        """Close a tile's timeline: its final compute segment + state.

        ``reason`` is the core's stop reason — ``halt`` for a finished
        tile, anything else (a blocked receive, an exhausted round
        budget) yields a ``blocked`` or ``cut`` terminal so partial
        graphs stay analyzable.
        """
        if reason == KIND_HALT:
            return self._record(KIND_HALT, tile, cycles, cycles, counters)
        info = self.blocked.get(tile)
        if info is not None:
            return self._record(KIND_BLOCKED, tile, cycles, cycles, counters,
                                peer=info["peer"], words=info["words"])
        return self._record(KIND_CUT, tile, cycles, cycles, counters)

    def finish(self, outcome="complete", snapshot=None):
        self.outcome = outcome
        if snapshot is not None:
            self.snapshot = snapshot

    # -- views ---------------------------------------------------------------

    def tiles(self):
        """{tile: [records in program order]}."""
        by_tile = {}
        for record in self.records:
            by_tile.setdefault(record.tile, []).append(record)
        return by_tile

    def makespan(self):
        """Latest recorded local cycle across all tiles (0 if empty)."""
        return max((r.end for r in self.records), default=0)

    def __len__(self):
        return len(self.records)

    # -- internals -----------------------------------------------------------

    def _record(self, kind, tile, issue, end, counters, **fields):
        previous = self._snap.get(tile, _ZEROS)
        deltas = {
            field: counters[i] - previous[i]
            for i, field in enumerate(COUNTER_FIELDS)
            if counters[i] != previous[i]
        }
        self._snap[tile] = counters
        prev_end = self._prev_end.get(tile, 0)
        self._prev_end[tile] = end
        seq = self._seq.get(tile, 0)
        self._seq[tile] = seq + 1
        record = OpRecord(len(self.records), kind, tile, seq, issue, end,
                          issue - prev_end, deltas, **fields)
        self.records.append(record)
        return record


class NullDependencyRecorder:
    """Disabled recorder: the readable, empty value of a bundle's
    ``recorder`` when recording is off (no hook ever reaches it)."""

    enabled = False
    records = ()
    outcome = None
    snapshot = {}
    blocked = {}
    meta = {}
    chaos_events = ()

    def tiles(self):
        return {}

    def makespan(self):
        return 0

    def __len__(self):
        return 0


NULL_RECORDER = NullDependencyRecorder()


def ensure_recorder(value):
    """Normalize a ``recorder=`` argument (None/False -> disabled)."""
    if value is None or value is False:
        return NULL_RECORDER
    if value is True:
        return DependencyRecorder()
    return value
