"""A ``send``/``recv`` whose fetch misses the I-cache keeps that stall.

The comm port's transfer starts once the instruction's fetch has
completed, so the fetch stall lands in simulated time as well as in the
``icache_stall`` bucket, and a ``recv`` that blocks charges its fetch
stall once before returning.  Either way the V500 attribution sum
(every cycle in exactly one bucket) and the V900 PC histogram must
equal the core's cycle count.
"""

import pytest

from repro.cpu import ATTRIBUTION_BUCKETS, CommPort, Core, STOP_HALT, STOP_RECV
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.sim import StitchSystem
from repro.sweep.runner import ring_expected, ring_programs
from repro.verify import check_core

ENGINES = ("instrumented", "fast")
#: Cycles the stub NIC takes per transfer, issue slot included.
COMM = 3


class StubComm(CommPort):
    """A NIC that finishes every transfer ``COMM`` cycles after it
    starts; ``recv`` blocks until ``ready`` is set."""

    def __init__(self, ready=True):
        self.ready = ready
        self.starts = []

    def send(self, peer, values, now):
        self.starts.append(now)
        return now + COMM

    def try_recv(self, peer, count, now):
        self.starts.append(now)
        if not self.ready:
            return None
        return [0] * count, now + COMM


def make_core(source, comm, engine, **kwargs):
    return Core(assemble(source), MemorySystem.stitch(), comm=comm,
                engine=engine, **kwargs)


def bucket_sum(core):
    attribution = core.attribution()
    return sum(attribution[bucket] for bucket in ATTRIBUTION_BUCKETS)


def miss_stall(core):
    """The fetch stall of a single-word instruction that misses."""
    return core.memory.dram.latency


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("op", ["send", "recv"])
def test_missing_comm_fetch_lands_in_cycles(op, engine):
    comm = StubComm()
    core = make_core(f"{op} r0, r0, r0\nhalt", comm, engine)
    assert core.run().reason == STOP_HALT
    stall = miss_stall(core)
    assert comm.starts == [stall]  # the transfer waits for the fetch
    assert core.stall_icache == stall
    assert core.stall_comm == COMM - 1
    assert core.cycles == stall + COMM + 1  # + the hitting halt
    assert bucket_sum(core) == core.cycles


@pytest.mark.parametrize("engine", ENGINES)
def test_blocked_recv_charges_its_fetch_stall_once(engine):
    comm = StubComm(ready=False)
    core = make_core("recv r0, r0, r0\nhalt", comm, engine)
    stall = miss_stall(core)
    assert core.run().reason == STOP_RECV
    assert core.instret == 0
    assert core.cycles == core.stall_icache == stall
    assert bucket_sum(core) == core.cycles
    # Retrying hits the now-resident line: no second stall.
    assert core.run().reason == STOP_RECV
    assert core.cycles == stall
    comm.ready = True
    assert core.run().reason == STOP_HALT
    assert comm.starts == [stall, stall, stall]
    assert core.stall_icache == stall
    assert core.cycles == stall + COMM + 1
    assert bucket_sum(core) == core.cycles


@pytest.mark.parametrize("ready", [True, False])
def test_pc_histogram_holds_the_comm_fetch_stall(ready):
    comm = StubComm(ready=ready)
    core = make_core("recv r0, r0, r0\nhalt", comm, "instrumented",
                     profile_cycles=True)
    core.run()
    assert sum(cycles for cycles, _ in core.pc_profile.values()) == \
        core.cycles == bucket_sum(core)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("laps", [8, 20])
def test_long_ring_attribution_reconciles_on_every_tile(laps, engine):
    # The 8-lap ring body spans several I-cache lines, so some send and
    # recv instructions miss on their first fetch.
    system = StitchSystem(engine=engine)
    num_tiles = system.mesh.num_tiles
    for tile, program in ring_programs(num_tiles, laps=laps).items():
        system.load(tile, program)
    system.run()
    assert system.cores[0].regs[4] == ring_expected(num_tiles, laps=laps)
    for core in system.cores:
        report = check_core(core)
        assert report.ok(), report.render()
