"""Tests for the real parallel analysis stage (repro.core.parallel)."""

import threading
import time

import pytest

from repro import RFDumpMonitor
from repro.analysis.decoders import PacketRecord
from repro.core.accounting import StageClock
from repro.core.dispatcher import DispatchedRange
from repro.core.parallel import (
    AnalysisTask,
    ParallelAnalysisStage,
    decode_task,
    packet_sort_key,
)
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer


def _packet_key(p):
    """Everything observable about a packet (minus the decoded object)."""
    return (
        p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
        p.payload_size, p.rate_mbps, p.channel,
        sorted((k, v) for k, v in p.info.items()),
    )


def _windows(buffer, size):
    return [
        buffer.slice(lo, min(lo + size, len(buffer)))
        for lo in range(0, len(buffer), size)
    ]


@pytest.fixture(scope="module")
def serial_report(mixed_trace):
    return RFDumpMonitor().process(mixed_trace.buffer)


class _FakeDecoder:
    """Emits one packet per scanned range; can misbehave off-main-thread."""

    def __init__(self, fail_in_worker=False, sleep_in_worker=0.0):
        self.fail_in_worker = fail_in_worker
        self.sleep_in_worker = sleep_in_worker

    def scan(self, buffer, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            if self.fail_in_worker:
                raise RuntimeError("worker crash")
            if self.sleep_in_worker:
                time.sleep(self.sleep_in_worker)
        return [
            PacketRecord(
                protocol="wifi", start_sample=buffer.start_sample,
                end_sample=buffer.end_sample, ok=True, decoder="fake",
            )
        ]


def _fake_inputs(n_ranges=3, span=1000):
    buffer = SampleBuffer.from_array([0j] * (n_ranges * span))
    ranges = {
        "wifi": [
            DispatchedRange(start_sample=i * span, end_sample=(i + 1) * span)
            for i in range(n_ranges)
        ]
    }
    return buffer, ranges


class TestStageValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelAnalysisStage({}, workers=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ParallelAnalysisStage({}, backend="coroutine")

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            ParallelAnalysisStage({}, granularity="packet")

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            ParallelAnalysisStage({}, timeout_per_range=0.0)

    def test_monitor_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            RFDumpMonitor(workers=0)


class TestScheduling:
    def test_protocol_granularity_one_task_per_protocol(self):
        buffer, ranges = _fake_inputs(4)
        stage = ParallelAnalysisStage({"wifi": _FakeDecoder()})
        tasks = stage.tasks_for(buffer, ranges)
        assert [t.protocol for t in tasks] == ["wifi"]
        assert tasks[0].n_ranges == 4
        assert tasks[0].samples == 4000

    def test_range_granularity_one_task_per_range(self):
        buffer, ranges = _fake_inputs(4)
        stage = ParallelAnalysisStage({"wifi": _FakeDecoder()}, granularity="range")
        tasks = stage.tasks_for(buffer, ranges)
        assert len(tasks) == 4
        assert all(t.n_ranges == 1 for t in tasks)

    def test_none_decoders_skipped(self):
        buffer, ranges = _fake_inputs(2)
        ranges["microwave"] = [DispatchedRange(0, 1000)]
        stage = ParallelAnalysisStage({"wifi": _FakeDecoder(), "microwave": None})
        tasks = stage.tasks_for(buffer, ranges)
        assert [t.protocol for t in tasks] == ["wifi"]

    def test_decode_task_accounts_samples(self):
        buffer, ranges = _fake_inputs(3)
        task = AnalysisTask(
            "wifi", [(buffer.slice(r.start_sample, r.end_sample), None)
                     for r in ranges["wifi"]],
        )
        outcome = decode_task(_FakeDecoder(), task)
        assert len(outcome.packets) == 3
        assert outcome.clock.samples_touched["demodulation"] == 3000
        assert outcome.clock.seconds["demodulation"] >= 0.0


class TestSerialParallelEquivalence:
    """Acceptance: the Table 3 traffic-mix shape decodes identically."""

    @pytest.mark.parametrize("granularity", ["protocol", "range"])
    def test_thread_backend_matches_serial(self, mixed_trace, serial_report,
                                           granularity):
        with RFDumpMonitor(workers=4, granularity=granularity) as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert [_packet_key(p) for p in report.packets] == [
            _packet_key(p) for p in serial_report.packets
        ]
        assert report.parallel_fallbacks == 0
        assert [
            (c.peak.start_sample, c.detector) for c in report.classifications
        ] == [
            (c.peak.start_sample, c.detector)
            for c in serial_report.classifications
        ]

    def test_process_backend_matches_serial(self, mixed_trace, serial_report):
        with RFDumpMonitor(workers=2, backend="process") as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert [_packet_key(p) for p in report.packets] == [
            _packet_key(p) for p in serial_report.packets
        ]

    def test_serial_output_is_sorted(self, serial_report):
        keys = [packet_sort_key(p) for p in serial_report.packets]
        assert keys == sorted(keys)

    def test_streaming_parallel_matches_streaming_serial(self, mixed_trace):
        def run(workers):
            with StreamingMonitor(RFDumpMonitor(workers=workers)) as stream:
                stream.run(_windows(mixed_trace.buffer, 500_000))
            return stream.packets

        serial, parallel = run(1), run(3)
        assert [_packet_key(p) for p in parallel] == [
            _packet_key(p) for p in serial
        ]


class TestAccounting:
    def test_worker_clocks_merge_into_report(self, mixed_trace):
        with RFDumpMonitor(workers=3) as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert report.clock.seconds["demodulation"] > 0
        assert report.clock.seconds["demodulation_wall"] > 0
        assert report.clock.samples_touched["demodulation"] > 0
        assert set(report.demod_seconds_by_protocol) == {"wifi", "bluetooth"}
        # worker CPU across protocols adds up like a serial run's would
        assert sum(report.demod_seconds_by_protocol.values()) == pytest.approx(
            report.clock.seconds["demodulation"], rel=0.05
        )

    def test_parallel_samples_touched_match_serial(self, mixed_trace,
                                                   serial_report):
        with RFDumpMonitor(workers=3, granularity="range") as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert (
            report.clock.samples_touched["demodulation"]
            == serial_report.clock.samples_touched["demodulation"]
        )


class TestFallback:
    def test_worker_failure_falls_back_to_serial(self):
        buffer, ranges = _fake_inputs(3)
        stage = ParallelAnalysisStage(
            {"wifi": _FakeDecoder(fail_in_worker=True)},
            workers=2, granularity="range",
        )
        with stage:
            packets, demod, fallbacks = stage.run(buffer, ranges)
        assert fallbacks == 3
        assert stage.fallbacks == 3
        assert len(packets) == 3  # nothing dropped
        assert demod["wifi"] >= 0.0

    def test_timeout_sheds_by_default(self):
        # a timed-out task is shed, not re-run: its budget is spent
        buffer, ranges = _fake_inputs(1)
        stage = ParallelAnalysisStage(
            {"wifi": _FakeDecoder(sleep_in_worker=1.0)},
            workers=2, timeout_per_range=0.05,
        )
        packets, _, fallbacks = stage.run(buffer, ranges)
        stage._discard_executor()  # don't wait out the sleeping worker
        assert fallbacks == 0
        assert packets == []
        assert stage.shed_ranges == 1
        assert [r.action for r in stage.take_error_records()] == ["timeout"]

    def test_fallbacks_surface_in_report(self, wifi_trace):
        monitor = RFDumpMonitor(protocols=("wifi",), workers=2)
        monitor._parallel.decoders["wifi"] = _FakeDecoder(fail_in_worker=True)
        monitor._decoders["wifi"] = _FakeDecoder(fail_in_worker=True)
        with monitor:
            report = monitor.process(wifi_trace.buffer)
        assert report.parallel_fallbacks > 0

    def test_deterministic_order_despite_fallbacks(self):
        buffer, ranges = _fake_inputs(5)
        stage = ParallelAnalysisStage(
            {"wifi": _FakeDecoder(fail_in_worker=True)},
            workers=2, granularity="range",
        )
        with stage:
            packets, _, _ = stage.run(buffer, ranges)
        assert [p.start_sample for p in packets] == [0, 1000, 2000, 3000, 4000]


class TestLifecycle:
    def test_close_then_reuse_rebuilds_pool(self):
        buffer, ranges = _fake_inputs(2)
        stage = ParallelAnalysisStage({"wifi": _FakeDecoder()}, workers=2)
        first, _, _ = stage.run(buffer, ranges)
        stage.close()
        assert stage._executor is None
        second, _, _ = stage.run(buffer, ranges)
        stage.close()
        assert [p.start_sample for p in first] == [p.start_sample for p in second]

    def test_serial_monitor_close_is_noop(self):
        monitor = RFDumpMonitor()
        assert monitor.parallel_stage is None
        monitor.close()  # must not raise
