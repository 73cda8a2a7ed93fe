"""Tests for repro.flowgraph."""

import numpy as np
import pytest

from repro.dsp.samples import SampleBuffer
from repro.errors import FlowGraphError, SchedulerError
from repro.flowgraph import (
    Block,
    BufferChunkSource,
    CallbackSink,
    CollectSink,
    EnergyFilterBlock,
    FlowGraph,
    FunctionBlock,
    SourceBlock,
)
from repro.util.timebase import Timebase


class _ListSource(SourceBlock):
    def __init__(self, values):
        super().__init__("list-source")
        self._values = values

    def items(self):
        return iter(self._values)


class TestWiring:
    def test_simple_chain(self):
        sink = CollectSink()
        graph = FlowGraph()
        graph.chain(_ListSource([1, 2, 3]), FunctionBlock(lambda x: x * 2), sink)
        graph.run()
        assert sink.items == [2, 4, 6]

    def test_fan_out(self):
        a, b = CollectSink("a"), CollectSink("b")
        src = _ListSource([1, 2])
        graph = FlowGraph()
        graph.connect(src, a)
        graph.connect(src, b)
        graph.run()
        assert a.items == b.items == [1, 2]

    def test_filter_drops(self):
        sink = CollectSink()
        keep_even = FunctionBlock(lambda x: x if x % 2 == 0 else None, "even")
        graph = FlowGraph().chain(_ListSource(range(6)), keep_even, sink)
        graph.run()
        assert sink.items == [0, 2, 4]

    def test_function_block_expands_lists(self):
        sink = CollectSink()
        split = FunctionBlock(lambda x: [x, x], "dup")
        graph = FlowGraph().chain(_ListSource([1]), split, sink)
        graph.run()
        assert sink.items == [1, 1]

    def test_cycle_rejected(self):
        a = FunctionBlock(lambda x: x, "a")
        b = FunctionBlock(lambda x: x, "b")
        graph = FlowGraph()
        graph.connect(a, b)
        with pytest.raises(FlowGraphError):
            graph.connect(b, a)

    def test_connect_into_source_rejected(self):
        graph = FlowGraph()
        with pytest.raises(FlowGraphError):
            graph.connect(FunctionBlock(lambda x: x), _ListSource([]))

    def test_run_without_source(self):
        graph = FlowGraph()
        graph.add(CollectSink())
        with pytest.raises(SchedulerError):
            graph.run()

    def test_callback_sink(self):
        seen = []
        graph = FlowGraph().chain(_ListSource([5]), CallbackSink(seen.append))
        graph.run()
        assert seen == [5]

    def test_finish_flushes_buffered_state(self):
        class Pairs(Block):
            def start(self):
                self._held = None

            def work(self, item):
                if self._held is None:
                    self._held = item
                    return []
                pair = (self._held, item)
                self._held = None
                return [pair]

            def finish(self):
                if self._held is not None:
                    return [(self._held, None)]
                return []

        sink = CollectSink()
        graph = FlowGraph().chain(_ListSource([1, 2, 3]), Pairs(), sink)
        graph.run()
        assert sink.items == [(1, 2), (3, None)]

    def test_rerun_resets_state(self):
        sink = CollectSink()
        graph = FlowGraph().chain(_ListSource([1]), sink)
        graph.run()
        graph.run()
        assert sink.items == [1]

    def test_check_cache_invalidated_by_connect(self):
        passthrough = FunctionBlock(lambda x: x, "passthrough")
        graph = FlowGraph().chain(_ListSource([1]), passthrough, CollectSink())
        graph.check()
        assert graph._validated
        graph.connect(passthrough, CollectSink("extra"))
        assert not graph._validated
        graph.check()
        assert graph._validated


class TestChunkBlocks:
    def _buffer(self):
        rng = np.random.default_rng(0)
        noise = 0.1 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
        noise[600:1000] += 3.0  # a strong burst
        return SampleBuffer(noise.astype(np.complex64), Timebase(8e6))

    def test_chunk_source(self):
        sink = CollectSink()
        graph = FlowGraph().chain(BufferChunkSource(self._buffer(), 200), sink)
        graph.run()
        assert len(sink.items) == 10
        assert sink.items[3][0] == 600

    def test_energy_filter_block(self):
        buf = self._buffer()
        filt = EnergyFilterBlock(noise_floor=0.01)
        sink = CollectSink()
        graph = FlowGraph().chain(BufferChunkSource(buf, 200), filt, sink)
        graph.run()
        passed_starts = [s for s, _ in sink.items]
        assert passed_starts == [600, 800]
        assert filt.passed == 2
        assert filt.dropped == 8
