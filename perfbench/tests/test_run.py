"""Timing summaries: tails and the host-speed scaling."""

from types import SimpleNamespace

import pytest

from perfbench.hostspeed import REFERENCE_S
from perfbench.run import median_of_medians, tail, timings
from perfbench.workloads import WINDOW, Pass, _ProcessCount


def test_tail_needs_ten_samples_beyond_it():
    assert tail(range(1, 101)) == (90, 90.0, 10)
    assert tail(range(1, 21)) == (10, 50.0, 10)
    assert tail(range(1, 11)) == (10, 100.0, 0)


def test_median_of_medians_takes_each_item_over_the_passes_first():
    # item medians 2, 5 and 3; the pooled median would be 4
    assert median_of_medians([[1, 5, 3], [2, 4, 30], [9, 6, 3]]) == 3
    # a pass cut short counts for the items it has
    assert median_of_medians([[1, 2], [3]]) == 2.0
    assert median_of_medians([]) == 0.0


def _pass(latencies):
    return Pass(window_latency=list(latencies), due=[0.0] * len(latencies),
                samples=WINDOW * len(latencies))


def test_scaling_a_window_scales_its_latency_and_the_speed():
    passes = [_pass([0.1, 0.2, 0.3]), _pass([0.2, 0.4, 0.6])]
    raw = timings(passes, [[1.0] * 3, [1.0] * 3])["metrics"]
    # the second pass ran on a host half as fast: scaled, it matches
    scaled = timings(passes, [[1.0] * 3, [0.5] * 3])["metrics"]
    assert scaled["window_latency_p50_ms"] == pytest.approx(200.0)
    # each window's median over the two passes: 0.15, 0.3 and 0.45 s
    assert raw["window_latency_p50_ms"] == pytest.approx(300.0)
    per_pass = 3 * WINDOW / 0.6 / 8e6
    assert scaled["realtime_factor"] == pytest.approx(per_pass)
    assert raw["realtime_factor"] == pytest.approx(
        (per_pass + per_pass / 2) / 2)
    # only the last window of the second pass was slowed down
    partly = timings(passes, [[1.0] * 3, [1.0, 1.0, 0.5]])["metrics"]
    assert partly["realtime_factor"] == pytest.approx(
        (per_pass + 3 * WINDOW / 0.9 / 8e6) / 2)


def test_each_window_scales_by_the_probes_beside_it():
    p = Pass(due=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
             probes=[REFERENCE_S, None, 2 * REFERENCE_S, None, None])
    # window 1 has no probe after it; window 4 none beside it, so it
    # takes the median of the pass's probes
    assert p.scales() == pytest.approx([1.0, 1.0, 0.5, 0.5, 2 / 3, 2 / 3])


def _event(end_sample):
    return SimpleNamespace(meta=SimpleNamespace(end_sample=end_sample))


def test_open_loop_scales_only_what_follows_the_newest_due_window():
    # one event whose last sample is in window 0, received 0.3 s after
    # window 0 was due, when window 1 (due at 0.16 s) was the newest sent
    open_pass = Pass(events=[_event(100)], received=[0.3], newest=[1],
                     due=[0.0, 0.16], open_loop=True)
    assert open_pass.event_latencies([1.0, 0.5]) == pytest.approx(
        [0.16 + 0.07])


def test_closed_loop_leaves_the_probes_between_windows_out():
    # window 0 took 0.1 s, a probe 0.05 s, and the event came 0.15 s
    # into window 1: it waited 0.25 s, each window at its own factor
    closed = Pass(events=[_event(100)], received=[0.3], newest=[1],
                  due=[0.0, 0.15], window_latency=[0.1, 0.2])
    assert closed.event_latencies() == pytest.approx([0.25])
    assert closed.event_latencies([0.5, 2.0]) == pytest.approx(
        [0.05 + 0.3])


def test_process_count_waits_for_a_span_to_close():
    def span(name, t_end=0.0):
        return SimpleNamespace(name=name, t_end=t_end)

    tracer = SimpleNamespace(spans=[span("process", 1.0), span("detect", 1.0),
                                    span("process")])
    count = _ProcessCount(tracer)
    assert count() == 1
    tracer.spans[2].t_end = 2.0
    tracer.spans.append(span("process"))
    assert count() == 2
