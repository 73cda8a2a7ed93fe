"""The trace cross-checks reject a wrapper that drops or double-counts."""

import pytest

from perfbench.layers import check, layer_metrics
from perfbench.tracer import Span, Tracer


def _window(tracer, t, parent_ids):
    """Spans of one window through streaming -> pipeline -> layers."""
    def add(layer, t0, t1, parent, **attrs):
        span = Span(len(tracer.spans), parent, "r", layer, "main", t0, t1,
                    dict(attrs))
        tracer.spans.append(span)
        return span.id

    s = add("streaming", t, t + 10, None, window=100, stitched=130, dedup=0)
    p = add("pipeline", t + 1, t + 9, s, samples=130, **{"demod_s.wifi": 4.0})
    add("peak_detector", t + 1, t + 2, p, samples=130, peaks=2)
    add("detector", t + 2, t + 3, p, detector="WifiSifs", kind="timing",
        classifications=1)
    add("dispatcher", t + 3, t + 3.5, p, ranges=1, **{"forwarded.wifi": 40})
    d = add("decoder.wifi", t + 4, t + 8, p, protocol="wifi", samples=40,
            packets=1)
    add("phy.wifi", t + 5, t + 7, d)


def _tracer(windows=2):
    tracer = Tracer()
    for k in range(windows):
        _window(tracer, 20.0 * k, None)
    return tracer


def test_consistent_trace_passes_and_yields_layer_numbers():
    tracer = _tracer()
    check(tracer, windows=2, shards=1)
    m = layer_metrics(tracer, input_samples=200)
    assert m["peak_detector.samples_per_input"] == 260 / 200
    assert m["decoders.wifi.samples_per_input"] == 80 / 200
    assert m["decoders.wifi.busy_s"] == 8.0
    assert m["phy.wifi.demod_attempts"] == 2
    assert m["pipeline.self_s"] == pytest.approx(2 * (8 - 1 - 1 - 0.5 - 4))
    assert m["streaming.self_s"] == pytest.approx(2 * 2.0)
    assert m["streaming.reanalysed_share"] == 60 / 260


def test_a_dropped_call_fails_the_check():
    tracer = _tracer()
    tracer.spans = [s for s in tracer.spans
                    if not (s.layer == "dispatcher" and s.t0 > 20)]
    with pytest.raises(AssertionError, match="dispatcher calls"):
        check(tracer, windows=2, shards=1)


def test_a_double_counted_scan_fails_the_check():
    tracer = _tracer()
    scan = next(s for s in tracer.spans if s.layer == "decoder.wifi")
    tracer.spans.append(Span(99, scan.parent, "r", scan.layer, "main",
                             scan.t0, scan.t1, dict(scan.attrs)))
    with pytest.raises(AssertionError, match="wifi"):
        check(tracer, windows=2, shards=1)

