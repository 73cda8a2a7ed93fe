"""Which entry points of the program the traced run wraps, and what
each layer's numbers are once the spans are in.

Every wrap is installed on the class, from the benchmark, before the
monitor under test is built (a shard worker binds its range filter at
construction).  The counts that the per-layer ratios need are recorded
on the span of the call that did the work.

:func:`check` cross-checks the spans against each other and against
what the program reports on its own.  A wrapper that drops or
double-counts calls makes it raise, so a broken trace fails the run
instead of producing numbers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from perfbench.tracer import Span, Tracer

PROTOCOLS = ("wifi", "bluetooth", "zigbee")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points."""
    from repro.analysis import decoders
    from repro.core import detectors
    from repro.core.dispatcher import Dispatcher
    from repro.core.peak_detector import PeakDetector
    from repro.core.pipeline import RFDumpMonitor
    from repro.core.shards.broker import ShardBroker
    from repro.core.shards.splitter import BandSplitter
    from repro.core.shards.worker import ShardWorker
    from repro.core.streaming import StreamingMonitor
    from repro.phy.bluetooth import BluetoothDemodulator
    from repro.phy.wifi import WifiDemodulator
    from repro.phy.zigbee import ZigbeeDemodulator
    from repro.service.hub import EventHub

    def peak(span, args, kwargs, result):
        span.attrs["samples"] = len(args[1])
        span.attrs["peaks"] = len(result.history)

    tracer.wrap(PeakDetector, "detect", "peak_detector", peak)

    def classify(span, args, kwargs, result):
        span.attrs["detector"] = type(args[0]).__name__
        span.attrs["kind"] = args[0].kind
        span.attrs["classifications"] = len(result)

    for name in detectors.__all__:
        cls = getattr(detectors, name)
        if (isinstance(cls, type) and issubclass(cls, detectors.Detector)
                and cls is not detectors.Detector
                and "classify" in cls.__dict__):
            tracer.wrap(cls, "classify", "detector", classify)

    def dispatch(span, args, kwargs, result):
        span.attrs["ranges"] = sum(len(rs) for rs in result.values())
        for protocol, ranges in result.items():
            span.attrs[f"forwarded.{protocol}"] = sum(r.length for r in ranges)

    tracer.wrap(Dispatcher, "dispatch", "dispatcher", dispatch)

    for protocol, cls in (("wifi", decoders.WifiStreamDecoder),
                          ("bluetooth", decoders.BluetoothStreamDecoder),
                          ("zigbee", decoders.ZigbeeStreamDecoder)):
        def scan(span, args, kwargs, result, _protocol=protocol):
            span.attrs["protocol"] = _protocol
            span.attrs["samples"] = len(args[1])
            span.attrs["packets"] = len(result)

        tracer.wrap(cls, "scan", f"decoder.{protocol}", scan)

    for protocol, cls in (("wifi", WifiDemodulator),
                          ("bluetooth", BluetoothDemodulator),
                          ("zigbee", ZigbeeDemodulator)):
        tracer.wrap(cls, "demodulate", f"phy.{protocol}")

    def pipeline(span, args, kwargs, result):
        span.attrs["samples"] = result.total_samples
        for protocol, seconds in result.demod_seconds_by_protocol.items():
            span.attrs[f"demod_s.{protocol}"] = seconds

    tracer.wrap(RFDumpMonitor, "process", "pipeline", pipeline)

    # the emission frontier each streaming monitor has reached; a packet
    # starting before it was emitted by an earlier window and is dropped
    frontiers: Dict[int, int] = {}

    def streaming(span, args, kwargs, result):
        monitor, window = args[0], args[1]
        span.attrs["window"] = len(window)
        span.attrs["stitched"] = result.total_samples
        if not result.total_samples:
            return
        before = frontiers.get(id(monitor), 0)
        span.attrs["dedup"] = sum(
            1 for p in result.packets if p.start_sample < before)
        frontiers[id(monitor)] = max(before,
                                     window.end_sample - monitor.overlap)

    tracer.wrap(StreamingMonitor, "process", "streaming", streaming)
    tracer.wrap(ShardBroker, "process", "shards.broker")
    tracer.wrap(ShardWorker, "process", "shards.worker")

    def wants(span, args, kwargs, result):
        span.attrs["accepted"] = bool(result)
        span.attrs["protocol"] = args[1]
        span.attrs["length"] = args[2].length

    tracer.wrap(ShardWorker, "wants_range", "shards.wants_range", wants)
    tracer.wrap(BandSplitter, "active_channels", "shards.splitter")
    tracer.wrap(EventHub, "publish", "service.hub.publish")


def _sum(spans: Iterable[Span], key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans)


def _busy(spans: Iterable[Span]) -> float:
    return sum(s.duration for s in spans)


def by_layer(tracer: Tracer) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        out[span.layer].append(span)
    return out


def layer_metrics(tracer: Tracer, input_samples: int) -> Dict[str, float]:
    """Per-layer numbers of one traced pass over ``input_samples``."""
    spans = by_layer(tracer)
    own = tracer.self_times()
    inputs = max(input_samples, 1)
    seen = max(_sum(spans["pipeline"], "samples"), 1)
    m: Dict[str, float] = {}
    peak = spans["peak_detector"]
    m["peak_detector.busy_s"] = _busy(peak)
    m["peak_detector.samples_per_input"] = _sum(peak, "samples") / inputs
    m["peak_detector.peaks"] = _sum(peak, "peaks")
    detector = spans["detector"]
    for kind in ("timing", "phase"):
        m[f"detectors.{kind}.busy_s"] = _busy(
            s for s in detector if s.attrs.get("kind") == kind)
    m["detectors.classifications"] = _sum(detector, "classifications")
    dispatch = spans["dispatcher"]
    m["dispatcher.busy_s"] = _busy(dispatch)
    m["dispatcher.ranges"] = _sum(dispatch, "ranges")
    for protocol in PROTOCOLS:
        m[f"dispatcher.forwarded_share.{protocol}"] = (
            _sum(dispatch, f"forwarded.{protocol}") / seen)
    for protocol in PROTOCOLS:
        scans = spans[f"decoder.{protocol}"]
        scanned = _sum(scans, "samples")
        packets = _sum(scans, "packets")
        m[f"decoders.{protocol}.busy_s"] = _busy(scans)
        m[f"decoders.{protocol}.samples_per_input"] = scanned / inputs
        m[f"decoders.{protocol}.packets"] = packets
        m[f"decoders.{protocol}.packets_per_msample"] = (
            packets / (scanned / 1e6) if scanned else 0.0)
        demods = spans[f"phy.{protocol}"]
        m[f"phy.{protocol}.demod_attempts"] = len(demods)
        m[f"phy.{protocol}.demod_failed"] = sum(
            1 for s in demods if "error" in s.attrs)
        m[f"phy.{protocol}.demod_busy_s"] = _busy(demods)
    m["pipeline.self_s"] = sum(own[s.id] for s in spans["pipeline"])
    streaming = spans["streaming"]
    m["streaming.self_s"] = sum(own[s.id] for s in streaming)
    stitched = _sum(streaming, "stitched")
    m["streaming.reanalysed_share"] = (
        (stitched - _sum(streaming, "window")) / stitched if stitched else 0.0)
    m["streaming.dedup_dropped"] = _sum(streaming, "dedup")
    m["shards.broker.self_s"] = sum(own[s.id] for s in spans["shards.broker"])
    m["shards.splitter.busy_s"] = _busy(spans["shards.splitter"])
    wants = spans["shards.wants_range"]
    m["shards.ranges_declined_share"] = (
        sum(1 for s in wants if not s.attrs["accepted"]) / len(wants)
        if wants else 0.0)
    sends = spans["service.ingest.send"]
    m["service.ingest.send_blocked_s"] = _busy(sends)
    m["service.ingest.frame_bytes"] = _sum(sends, "bytes")
    m["service.hub.publish_busy_s"] = _busy(spans["service.hub.publish"])
    return m


def check(tracer: Tracer, windows: int, shards: int) -> None:
    """Raise AssertionError if the spans contradict each other.

    ``windows`` is how many windows the traced pass submitted and
    ``shards`` how many monitors each window went through.
    """
    spans = by_layer(tracer)
    problems: List[str] = []

    def expect(what: str, got: float, want: float) -> None:
        if got != want:
            problems.append(f"{what}: {got} spans/units, expected {want}")

    calls = windows * shards
    expect("streaming calls", len(spans["streaming"]), calls)
    expect("pipeline calls", len(spans["pipeline"]), calls)
    expect("peak detector calls", len(spans["peak_detector"]), calls)
    expect("dispatcher calls", len(spans["dispatcher"]), calls)
    if shards > 1:
        expect("broker calls", len(spans["shards.broker"]), windows)
        expect("shard worker calls", len(spans["shards.worker"]), calls)
    per_detector: Dict[str, int] = defaultdict(int)
    for s in spans["detector"]:
        per_detector[s.attrs["detector"]] += 1
    for name, count in sorted(per_detector.items()):
        expect(f"{name}.classify calls", count, calls)
    for protocol in PROTOCOLS:
        scans = spans[f"decoder.{protocol}"]
        scanned = _sum(scans, "samples")
        if shards > 1:
            forwarded = sum(s.attrs["length"] for s in spans["shards.wants_range"]
                            if s.attrs["accepted"]
                            and s.attrs["protocol"] == protocol)
        else:
            forwarded = _sum(spans["dispatcher"], f"forwarded.{protocol}")
        expect(f"{protocol} samples scanned vs forwarded", scanned, forwarded)
        # the pipeline's own demodulation clock brackets every scan call
        reported = _sum(spans["pipeline"], f"demod_s.{protocol}")
        traced = _busy(scans)
        slack = 0.1 * reported + 50e-6 * len(scans)
        if abs(traced - reported) > slack:
            problems.append(
                f"{protocol} scan spans sum to {traced:.4f} s but the "
                f"reports' demod_seconds_by_protocol say {reported:.4f} s")
        ids = {s.id for s in scans}
        strays = [s for s in spans[f"phy.{protocol}"] if s.parent not in ids]
        if strays:
            problems.append(f"{len(strays)} {protocol} demodulate calls "
                            f"outside a scan")
    for span_id, value in tracer.self_times().items():
        if value < -1e-6:
            problems.append(f"span {span_id} has negative self time {value}")
    if problems:
        raise AssertionError("trace inconsistent: " + "; ".join(problems))
