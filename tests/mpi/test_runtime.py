"""Unit tests for the message-passing runtime."""

import pytest

from repro.cpu import Core, STOP_HALT, STOP_RECV
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.mpi import MessagePassing
from repro.noc import Network
from repro.platform import PlatformConfig


class TestChannels:
    def test_send_then_recv(self):
        fabric = MessagePassing()
        fabric.send(0, 1, [10, 20, 30], now=0)
        result = fabric.try_recv(0, 1, 3, now=1000)
        assert result is not None
        values, finish = result
        assert values == [10, 20, 30]
        assert finish >= 1000

    def test_recv_blocks_until_enough_words(self):
        fabric = MessagePassing()
        fabric.send(0, 1, [1, 2], now=0)
        assert fabric.try_recv(0, 1, 3, now=0) is None
        fabric.send(0, 1, [3], now=0)
        values, _ = fabric.try_recv(0, 1, 3, now=0)
        assert values == [1, 2, 3]

    def test_channels_are_pairwise(self):
        fabric = MessagePassing()
        fabric.send(0, 2, [5], now=0)
        assert fabric.try_recv(1, 2, 1, now=0) is None
        values, _ = fabric.try_recv(0, 2, 1, now=0)
        assert values == [5]

    def test_fifo_order_preserved(self):
        fabric = MessagePassing()
        fabric.send(0, 1, [1], now=0)
        fabric.send(0, 1, [2], now=0)
        values, _ = fabric.try_recv(0, 1, 2, now=0)
        assert values == [1, 2]

    def test_recv_finish_respects_arrival(self):
        fabric = MessagePassing()
        fabric.send(0, 15, [1], now=0)  # 6 hops away
        _, finish = fabric.try_recv(0, 15, 1, now=0)
        latency = fabric.network.uncontended_latency(0, 15, 1)
        assert finish >= latency

    def test_earliest_ready(self):
        fabric = MessagePassing()
        assert fabric.earliest_ready(1) is None
        fabric.send(0, 1, [1], now=0)
        assert fabric.earliest_ready(1) is not None

    def test_pending_words(self):
        fabric = MessagePassing()
        fabric.send(0, 1, [1, 2], now=0)
        fabric.send(2, 1, [3], now=0)
        assert fabric.pending_words(1) == 3
        assert fabric.pending_words() == 3

    @pytest.mark.parametrize("flit_bytes, drain", [(16, 4), (32, 2)])
    def test_recv_drain_uses_the_platform_flit_width(self, flit_bytes,
                                                     drain):
        platform = PlatformConfig.stitch().derive(
            noc={"flit_bytes": flit_bytes},
            fabric={"link_data_bits": flit_bytes * 8},
        )
        fabric = MessagePassing(Network(params=platform.noc))
        fabric.send(0, 1, list(range(16)), now=0)
        ready = fabric.channel(0, 1).ready_time(16)
        _, finish = fabric.try_recv(0, 1, 16, now=ready)
        assert finish - ready == drain  # one cycle per flit drained

    def test_invalid_tiles_rejected(self):
        fabric = MessagePassing()
        with pytest.raises(ValueError):
            fabric.port(16)
        with pytest.raises(ValueError):
            fabric.send(0, 99, [1], now=0)


class TestCoresOverFabric:
    def test_producer_consumer_programs(self):
        producer_src = """
            movi r1, 1       ; peer tile
            movi r2, 0x100   ; buffer
            movi r3, 4       ; words
            movi r4, 42
            sw   r4, 0(r2)
            sw   r4, 4(r2)
            sw   r4, 8(r2)
            sw   r4, 12(r2)
            send r1, r2, r3
            halt
        """
        consumer_src = """
            movi r1, 0       ; peer tile
            movi r2, 0x200
            movi r3, 4
            recv r1, r2, r3
            lw   r4, 12(r2)
            halt
        """
        fabric = MessagePassing()
        producer = Core(
            assemble(producer_src), MemorySystem.stitch(),
            comm=fabric.port(0), core_id=0,
        )
        consumer = Core(
            assemble(consumer_src), MemorySystem.stitch(),
            comm=fabric.port(1), core_id=1,
        )
        # Consumer first: blocks on recv.
        assert consumer.run().reason == STOP_RECV
        assert producer.run().reason == STOP_HALT
        assert consumer.run().reason == STOP_HALT
        assert consumer.regs[4] == 42

    def test_receiver_time_advances_past_arrival(self):
        fabric = MessagePassing()
        sender = Core(
            assemble("movi r1, 1\nmovi r2, 0x100\nmovi r3, 1\nsend r1, r2, r3\nhalt"),
            MemorySystem.stitch(), comm=fabric.port(0),
        )
        receiver = Core(
            assemble("movi r1, 0\nmovi r2, 0x100\nmovi r3, 1\nrecv r1, r2, r3\nhalt"),
            MemorySystem.stitch(), comm=fabric.port(1),
        )
        sender.run()
        receiver.run()
        # The receiver executed only 5 cheap instructions but must wait
        # for the network delivery initiated by the sender.
        latency = fabric.network.uncontended_latency(0, 1, 1)
        assert receiver.cycles >= latency
