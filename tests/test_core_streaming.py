"""Tests for the streaming monitor (window-overlap handling)."""

import numpy as np
import pytest

from repro import RFDumpMonitor, Scenario, WifiPingSession
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer


def _windows(buffer, size):
    out = []
    for lo in range(0, len(buffer), size):
        out.append(buffer.slice(lo, min(lo + size, len(buffer))))
    return out


@pytest.fixture(scope="module")
def straddle_trace():
    """A trace whose second exchange straddles the 300k-sample boundary."""
    scenario = Scenario(duration=0.1, seed=33)
    scenario.add(WifiPingSession(n_pings=2, snr_db=20.0, interval=45e-3))
    return scenario.render()


class TestStreamingMonitor:
    def test_no_packets_lost_at_boundaries(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.run(_windows(straddle_trace.buffer, 300_000))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(monitor.packets) == len(truth)

    def test_no_duplicates(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.run(_windows(straddle_trace.buffer, 200_000))
        starts = [p.start_sample for p in monitor.packets]
        assert len(starts) == len(set(starts))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(starts) == len(truth)

    def test_matches_batch_monitor(self, straddle_trace):
        batch = RFDumpMonitor(protocols=("wifi",)).process(straddle_trace.buffer)
        stream = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        stream.run(_windows(straddle_trace.buffer, 250_000))
        assert sorted(p.start_sample for p in stream.packets) == sorted(
            p.start_sample for p in batch.packets
        )

    def test_rejects_gap_in_stream(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)),
                                   on_error="raise")
        monitor.process(straddle_trace.buffer.slice(0, 100_000))
        with pytest.raises(ValueError):
            monitor.process(straddle_trace.buffer.slice(200_000, 300_000))

    def test_clock_accumulates(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.run(_windows(straddle_trace.buffer, 400_000))
        assert monitor.clock.seconds["peak_detection"] > 0

    def test_rejects_negative_overlap(self):
        with pytest.raises(ValueError):
            StreamingMonitor(RFDumpMonitor(), overlap=-1)

    def test_first_window_shorter_than_overlap_clamps_frontier(
        self, straddle_trace
    ):
        """Regression: the emission frontier must never move backwards."""
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(straddle_trace.buffer.slice(0, 30_000))
        assert monitor._emitted_to == 0  # seed code: 30_000 - overlap < 0

    def test_flush_midstream_no_duplicates(self, straddle_trace):
        """Regression: a flushed packet re-detected from the carried tail
        must not be emitted again by the next window — and a packet still
        straddling the stream head must not be lost."""
        # 50k windows put fully-decodable packets inside the deferral
        # (overlap) region, so every flush releases results early
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        for window in _windows(straddle_trace.buffer, 50_000):
            monitor.process(window)
            monitor.flush()  # incremental consumer wants results now
        starts = [p.start_sample for p in monitor.packets]
        assert len(starts) == len(set(starts))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(starts) == len(truth)

    def test_windows_shorter_than_overlap_no_duplicates(self, straddle_trace):
        """Regression: a window shorter than the overlap computes an
        emission frontier behind results a flush already released;
        without clamping, everything in between is re-emitted."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(buffer.slice(0, 50_000))
        monitor.flush()
        for lo in range(50_000, len(buffer), 20_000):  # < overlap windows
            monitor.process(buffer.slice(lo, min(lo + 20_000, len(buffer))))
        monitor.flush()
        starts = [p.start_sample for p in monitor.packets]
        assert len(starts) == len(set(starts))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(starts) == len(truth)

    def test_empty_windows_are_harmless(self, straddle_trace):
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(buffer.slice(0, 0))  # empty stream head
        for window in _windows(buffer, 300_000):
            monitor.process(window)
            report = monitor.process(buffer.slice(
                window.end_sample, window.end_sample
            ))
            assert report.total_samples == 0
            assert report.packets == []
        monitor.flush()
        batch = RFDumpMonitor(protocols=("wifi",)).process(buffer)
        assert [p.start_sample for p in monitor.packets] == [
            p.start_sample for p in batch.packets
        ]

    def test_flush_is_idempotent(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.run(_windows(straddle_trace.buffer, 300_000))
        n_packets = len(monitor.packets)
        n_classifications = len(monitor.classifications)
        monitor.flush().flush()
        assert len(monitor.packets) == n_packets
        assert len(monitor.classifications) == n_classifications

    def test_classification_dedup(self, straddle_trace):
        monitor = StreamingMonitor(
            RFDumpMonitor(protocols=("wifi",), demodulate=False)
        )
        monitor.run(_windows(straddle_trace.buffer, 200_000))
        keys = [
            (c.peak.start_sample, c.detector) for c in monitor.classifications
        ]
        assert len(keys) == len(set(keys))

    def test_empty_discontiguous_window_does_not_raise(self, straddle_trace):
        """Regression: an empty window whose start does not match the
        carried tail used to hit the gap check before the early return —
        there is nothing to analyze or resync, so it must be a no-op."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(buffer.slice(0, 300_000))
        report = monitor.process(buffer.slice(123_457, 123_457))
        assert report.total_samples == 0
        assert report.packets == []
        # the tail survived: the contiguous continuation still stitches
        monitor.process(buffer.slice(300_000, 600_000))
        assert monitor.gaps == 0

    def test_midstream_flush_classifications_match_batch(self, straddle_trace):
        """Satellite: classifications flushed mid-stream must be exactly
        the batch set, with no duplicates from tail re-detection."""
        from repro.core.config import MonitorConfig
        from repro.obs import Observability

        obs = Observability()
        monitor = StreamingMonitor(RFDumpMonitor(config=MonitorConfig(
            protocols=("wifi",), demodulate=False, obs=obs
        )))
        for window in _windows(straddle_trace.buffer, 50_000):
            monitor.process(window)
            monitor.flush()  # incremental consumer wants results now
        keys = [
            (c.peak.start_sample, c.detector) for c in monitor.classifications
        ]
        assert len(keys) == len(set(keys))
        batch = StreamingMonitor(
            RFDumpMonitor(protocols=("wifi",), demodulate=False)
        )
        batch.run(_windows(straddle_trace.buffer, 50_000))
        assert sorted(keys) == sorted(
            (c.peak.start_sample, c.detector) for c in batch.classifications
        )
        # mid-stream flushes released deferred classifications, and said so
        assert obs.registry.value(
            "rfdump_stream_flushed_classifications_total"
        ) > 0
