"""Detector crashes through the error-policy layer and circuit breaker."""

import pytest

from repro import RFDumpMonitor
from repro.core.config import MonitorConfig
from repro.core.pipeline import default_detectors
from repro.errors import DetectorCrashError, RFDumpError
from repro.faults import CrashingDetector
from repro.obs import Observability


def _detectors(crasher):
    return default_detectors(("wifi",), ("timing", "phase")) + [crasher]


@pytest.fixture(scope="module")
def baseline(wifi_trace):
    return RFDumpMonitor(protocols=("wifi",)).process(wifi_trace.buffer)


def _classification_keys(report):
    return sorted((c.peak.start_sample, c.detector)
                  for c in report.classifications)


class TestDegrade:
    def test_healthy_detectors_unaffected(self, wifi_trace, baseline):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert crasher.crashes == 1
        assert _classification_keys(report) == _classification_keys(baseline)
        assert len(report.packets) == len(baseline.packets)

    def test_errors_and_counters_recorded(self, wifi_trace):
        obs = Observability()
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(
                protocols=("wifi",), on_error="degrade", obs=obs
            ),
        )
        report = monitor.process(wifi_trace.buffer)
        (record,) = [e for e in report.errors if e.stage == "detector"]
        assert record.component == crasher.name
        assert record.error == "InjectedFault"
        assert record.action == "quarantined"
        assert report.degraded
        assert obs.registry.value(
            "rfdump_detector_errors_total", detector=crasher.name
        ) == 1

    def test_circuit_breaker_trips_after_repeated_crashes(self, wifi_trace):
        obs = Observability()
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(
                protocols=("wifi",), on_error="degrade", obs=obs
            ),
        )
        for _ in range(4):
            report = monitor.process(wifi_trace.buffer)
        # the 4th window never reached the quarantined detector
        assert crasher.calls == 3
        assert monitor.quarantined_detectors == (crasher.name,)
        assert report.quarantined_detectors == (crasher.name,)
        reg = obs.registry
        assert reg.value("rfdump_detector_circuit_trips_total") == 1
        assert reg.value(
            "rfdump_detector_circuit_open", detector=crasher.name
        ) == 1

    def test_readmit_gives_detector_another_chance(self, wifi_trace):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        for _ in range(3):
            monitor.process(wifi_trace.buffer)
        assert monitor.quarantined_detectors
        monitor.readmit_detectors()
        assert monitor.quarantined_detectors == ()
        monitor.process(wifi_trace.buffer)
        assert crasher.calls == 4

    def test_intermittent_crash_resets_breaker(self, wifi_trace):
        # two crashes, a healthy call, two more crashes: never 3 in a
        # row, so the breaker must not trip
        crasher = CrashingDetector(at=(0, 1, 3, 4))
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        for _ in range(5):
            monitor.process(wifi_trace.buffer)
        assert crasher.calls == 5
        assert monitor.quarantined_detectors == ()


class TestSkip:
    def test_skip_also_quarantines_per_window(self, wifi_trace, baseline):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="skip"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert _classification_keys(report) == _classification_keys(baseline)
        assert [e.action for e in report.errors] == ["quarantined"]


class TestRaise:
    def test_typed_error_names_the_detector(self, wifi_trace):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="raise"),
        )
        with pytest.raises(DetectorCrashError) as excinfo:
            monitor.process(wifi_trace.buffer)
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.detector == crasher.name


class TestDefaultPolicy:
    def test_default_mode_quarantines_crashing_detector(self, wifi_trace,
                                                        baseline):
        # the default policy is degrade: the crash is recorded and the
        # healthy detectors' output is untouched
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",)),
        )
        report = monitor.process(wifi_trace.buffer)
        (record,) = report.errors
        assert record.stage == "detector"
        assert record.component == crasher.name
        assert record.action == "quarantined"
        assert record.error == "InjectedFault"
        assert _classification_keys(report) == _classification_keys(baseline)


class TestWrappedDetector:
    def test_wrapped_detector_delegates_when_healthy(self, wifi_trace,
                                                     baseline):
        from repro.core.detectors import WifiSifsTimingDetector

        crasher = CrashingDetector(wrapped=WifiSifsTimingDetector(), at=())
        monitor = RFDumpMonitor(
            detectors=[crasher],
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert crasher.protocol == "wifi"
        assert report.errors == []
        wrapped_keys = {
            c.peak.start_sample for c in baseline.classifications
            if c.detector == WifiSifsTimingDetector().name
        }
        assert {c.peak.start_sample
                for c in report.classifications} == wrapped_keys
