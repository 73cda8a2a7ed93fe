"""Stream-level faults through the streaming monitor, per error policy.

The acceptance bar: under each fault class the monitor completes in
degrade mode with nonzero degradation counters and produces identical
packets on the unaffected windows, while raise mode surfaces the fault
as its typed :class:`~repro.errors.RFDumpError` subclass.
"""

import numpy as np
import pytest

from repro.errors import RFDumpError, SampleIntegrityError, StreamGapError
from repro.faults import (
    FaultPlan,
    NaNBurstInjector,
    StreamGapInjector,
    TruncateWindowInjector,
    preset_windows,
    run_faulted,
)
from repro.obs import Observability

WINDOW = 160_000
OVERLAP = 48_000


@pytest.fixture(scope="module")
def windows():
    return preset_windows(
        "wifi", duration=0.08, window_samples=WINDOW, seed=3
    )


@pytest.fixture(scope="module")
def clean(windows):
    return run_faulted(windows, protocols=("wifi",), overlap=OVERLAP)


def _key(p):
    return (p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
            p.payload_size, p.rate_mbps, p.channel)


def _outside(packets, spans):
    def affected(p):
        return any(p.start_sample < hi and p.end_sample > lo
                   for lo, hi in spans)

    return sorted(_key(p) for p in packets if not affected(p))


class TestStreamGap:
    def _plan(self):
        return FaultPlan(StreamGapInjector(gap_samples=5_000, at=(2,)))

    def test_degrade_completes_and_counts(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == 5_000
        (record,) = [e for e in monitor.errors
                     if e.error == "StreamGapError"]
        assert record.action == "resync"
        assert record.stage == "stream"
        reg = obs.registry
        assert reg.value("rfdump_stream_gaps_total") == 1
        assert reg.value("rfdump_stream_gap_lost_samples_total") == 5_000
        # unaffected windows are packet-identical to the fault-free run
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)
        assert _outside(clean.packets, spans)  # comparison is not vacuous

    def test_gap_errors_ride_on_window_report(self, windows):
        run = run_faulted(windows, self._plan(), on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",))
        faulted_report = run.reports[2]
        assert faulted_report.degraded
        assert faulted_report.last_error.error == "StreamGapError"

    def test_raise_mode_surfaces_typed_error(self, windows):
        with pytest.raises(StreamGapError) as excinfo:
            run_faulted(windows, self._plan(), on_error="raise",
                        overlap=OVERLAP, protocols=("wifi",))
        exc = excinfo.value
        assert isinstance(exc, RFDumpError)
        assert isinstance(exc, ValueError)  # legacy contract preserved
        assert exc.gap_samples == 5_000

    def test_default_resyncs_with_gap_record(self, windows):
        # the default policy is degrade: a gap resyncs and is recorded
        run = run_faulted(windows, self._plan(),
                          overlap=OVERLAP, protocols=("wifi",))
        assert run.monitor.on_error == "degrade"
        assert run.monitor.gaps == 1
        (record,) = [e for e in run.monitor.errors
                     if e.error == "StreamGapError"]
        assert record.action == "resync"


class TestNaNBurst:
    def _plan(self, burst=512):
        return FaultPlan(
            NaNBurstInjector(burst_samples=burst, offset=10_000, at=(1,))
        )

    def test_degrade_sanitizes_and_counts(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        (record,) = [e for e in run.monitor.errors
                     if e.error == "SampleIntegrityError"]
        assert record.action == "sanitized"
        assert obs.registry.value(
            "rfdump_stream_nonfinite_samples_total"
        ) == 512
        assert run.monitor.lost_samples == 0  # sanitized, not dropped
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    def test_raise_mode_surfaces_integrity_error(self, windows):
        with pytest.raises(SampleIntegrityError) as excinfo:
            run_faulted(windows, self._plan(), on_error="raise",
                        overlap=OVERLAP, protocols=("wifi",))
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.bad_samples == 512

    def test_skip_mode_drops_window_without_gap(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="skip",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 0  # the dropped window leaves no gap behind
        assert monitor.lost_samples == WINDOW
        (record,) = monitor.errors
        assert record.action == "skipped"
        assert obs.registry.value(
            "rfdump_stream_windows_skipped_total"
        ) == 1
        # the whole skipped window is affected; the rest must match
        spans = [(windows[1].start_sample - OVERLAP,
                  windows[1].end_sample + OVERLAP)]
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_noise_floor_survives_nan_in_first_window_by_default(
        self, windows, clean
    ):
        # a NaN burst in the very first window would poison the
        # noise-floor estimate (percentile over NaN), and the carried
        # value would disable peak detection for the rest of the stream.
        # The default policy sanitizes the burst before the estimator
        # sees it.
        obs = Observability()
        plan = FaultPlan(
            NaNBurstInjector(burst_samples=5_000, offset=10_000, at=(0,))
        )
        run = run_faulted(windows, plan, overlap=OVERLAP,
                          protocols=("wifi",), obs=obs)
        assert obs.registry.value(
            "rfdump_stream_nonfinite_samples_total"
        ) == 5_000
        floor = run.monitor._noise_floor
        assert floor is not None and np.isfinite(floor)
        # detection recovered: later windows still decode their packets
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)


class TestEmptyDiscontiguousWindow:
    def test_degrade_absorbs_emptied_window(self, windows, clean):
        # keep=0/shift makes window 1 empty *and* discontiguous; the gap
        # then surfaces at window 2 and degrade mode resyncs across it
        obs = Observability()
        plan = FaultPlan(TruncateWindowInjector(keep=0, shift=17, at=(1,)))
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == WINDOW
        assert run.reports[1].total_samples == 0
        assert obs.registry.value("rfdump_stream_gaps_total") == 1
        spans = [(windows[1].start_sample - OVERLAP,
                  windows[1].end_sample + OVERLAP)]
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    def test_empty_window_itself_never_raises(self, windows):
        # satellite regression: the empty window early-returns before the
        # continuity check in every mode, including raise
        plan = FaultPlan(TruncateWindowInjector(keep=0, shift=17, at=(3,)))
        run = run_faulted(windows[:4], plan, on_error="raise",
                          overlap=OVERLAP, protocols=("wifi",))
        assert run.reports[3].total_samples == 0


class TestComposedFaults:
    def test_gap_and_nan_burst_together(self, windows, clean):
        obs = Observability()
        plan = FaultPlan(
            StreamGapInjector(gap_samples=2_000, at=(1,)),
            NaNBurstInjector(burst_samples=256, offset=40_000, at=(2,)),
        )
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == 2_000
        assert {e.error for e in monitor.errors} == {
            "StreamGapError", "SampleIntegrityError"
        }
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)
