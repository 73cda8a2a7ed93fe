"""Shard failure domains: broker error policy, breaker trips, rebalance.

Killing one shard with the fault-injection harness must trip the
broker's per-shard circuit breaker, reassign the dead shard's sub-bands
to a healthy neighbor, and let the remaining shards complete the band —
with every degradation counted and surfaced.
"""

import pytest

from repro.analysis.decoders import PacketRecord
from repro.core.config import MonitorConfig
from repro.core.shards import ShardBroker, merge_classifications, merge_packets
from repro.core.streaming import StreamingMonitor
from repro.errors import DetectorCrashError, ShardCrashError
from repro.faults.components import CrashingDetector, InjectedFault
from repro.faults.harness import preset_windows
from repro.obs import Observability

WINDOW = 160_000
OVERLAP = 48_000


@pytest.fixture(scope="module")
def windows():
    return preset_windows("mix", duration=0.08, window_samples=WINDOW, seed=7)


@pytest.fixture(scope="module")
def serial(windows):
    monitor = StreamingMonitor(config=MonitorConfig(), overlap=OVERLAP)
    for window in windows:
        monitor.process(window)
    monitor.flush()
    return monitor


def _key(p):
    return (p.start_sample, p.end_sample, p.protocol, p.decoder, p.channel)


def _kill_shard(broker, index, at=None):
    """Make shard ``index`` crash on every window (or on the windows in
    ``at``): its inner monitor runs the raise policy, so the injected
    detector fault propagates out of the worker and lands on the
    broker's policy seam."""
    inner = broker.workers[index].monitor.monitor
    inner.on_error = "raise"
    inner.detectors.append(CrashingDetector(at=at))


class TestRebalance:
    def test_killed_shard_rebalances_and_band_completes(self, windows, serial):
        obs = Observability()
        broker = ShardBroker(config=MonitorConfig(shards=4, obs=obs),
                             overlap=OVERLAP, on_error="degrade",
                             breaker_threshold=1)
        _kill_shard(broker, 1)
        for window in windows:
            broker.process(window)
        broker.flush()

        assert broker.rebalances == 1
        assert broker.dead_shards == (1,)
        assert broker.healthy_shards == (0, 2, 3)
        # shard1's sub-bands went to its nearest healthy neighbor (tie
        # between 0 and 2 breaks low), and the band is fully covered
        assert sorted(broker.owned_channels(0)) == [0, 1, 2, 3]
        assert broker.owned_channels(1) == frozenset()
        covered = set()
        for k in broker.healthy_shards:
            covered |= broker.owned_channels(k)
        assert sorted(covered) == list(range(8))

        # the survivors completed the band: no spurious packets, and
        # every window after the trip decodes exactly the serial output
        serial_keys = [_key(p) for p in serial.packets]
        merged_keys = [_key(p) for p in broker.packets]
        assert set(merged_keys) <= set(serial_keys)
        assert merged_keys == sorted(set(merged_keys) & set(serial_keys))
        after = windows[0].end_sample
        assert [k for k in merged_keys if k[0] >= after] == \
               [k for k in serial_keys if k[0] >= after]

        # the degradation is counted and surfaced
        trip = [e for e in broker.errors if e.error == "CircuitBreakerOpen"]
        assert len(trip) == 1
        assert "rebalanced" in trip[0].action
        assert trip[0].component == "shard1"
        assert obs.registry.value("rfdump_shard_failures_total",
                                  shard="shard1") == 1
        assert obs.registry.value("rfdump_shard_rebalances_total") == 1
        assert obs.registry.value("rfdump_shard_owned_channels",
                                  shard="shard0") == 4
        assert obs.registry.value("rfdump_shard_owned_channels",
                                  shard="shard1") == 0
        assert obs.registry.value("rfdump_shard_healthy", shard="shard1") == 0
        assert obs.registry.value("rfdump_shard_healthy", shard="shard0") == 1

    def test_skip_policy_counts_until_threshold(self, windows):
        broker = ShardBroker(config=MonitorConfig(shards=2), overlap=OVERLAP,
                             on_error="skip", breaker_threshold=3)
        _kill_shard(broker, 0)
        for window in windows[:2]:
            broker.process(window)
        # two failures recorded, breaker (threshold 3) not yet tripped
        assert broker.workers[0].failures == 2
        assert broker.rebalances == 0
        assert broker.healthy_shards == (0, 1)
        broker.process(windows[2])
        assert broker.rebalances == 1
        assert broker.dead_shards == (0,)
        assert sorted(broker.owned_channels(1)) == list(range(8))

    def test_raise_surfaces_and_default_skips_the_crash(self, windows):
        broker = ShardBroker(config=MonitorConfig(shards=2),
                             overlap=OVERLAP, on_error="raise")
        _kill_shard(broker, 1)
        with pytest.raises(ShardCrashError) as err:
            broker.process(windows[0])
        assert err.value.shard == "shard1"
        assert isinstance(err.value.__cause__, DetectorCrashError)
        assert isinstance(err.value.__cause__.__cause__, InjectedFault)

        # the default policy (degrade) skips the dead shard's window,
        # recorded, and the healthy shard keeps reporting
        broker = ShardBroker(config=MonitorConfig(shards=2), overlap=OVERLAP)
        assert broker.on_error == "degrade"
        _kill_shard(broker, 1)
        broker.process(windows[0])
        (record,) = broker.errors
        assert (record.stage, record.component, record.action) == \
            ("shard", "shard1", "skipped")
        assert broker.workers[1].failures == 1
        assert broker.workers[0].windows == 1

    def test_policy_inherited_from_config(self, windows):
        broker = ShardBroker(config=MonitorConfig(shards=2, on_error="raise"),
                             overlap=OVERLAP)
        assert broker.on_error == "raise"

    def test_all_shards_dead_yields_empty_reports(self, windows):
        broker = ShardBroker(config=MonitorConfig(shards=2), overlap=OVERLAP,
                             on_error="degrade", breaker_threshold=1)
        _kill_shard(broker, 0)
        _kill_shard(broker, 1)
        first = broker.process(windows[0])
        assert broker.dead_shards == (0, 1)
        assert first.packets == []
        assert len(first.errors) >= 2
        # the outage is terminal but never an exception: later windows
        # produce empty reports and the run still flushes cleanly
        later = broker.process(windows[1])
        assert later.packets == []
        broker.flush()
        assert broker.rebalances == 1  # the second trip had no heir
        retired = [e for e in broker.errors if "no healthy shard" in e.action]
        assert len(retired) == 1

    def test_retired_shards_output_is_kept(self, windows, serial):
        # a shard killed mid-stream keeps what it completed before dying:
        # results it alone owned stay in the band-wide accumulation
        broker = ShardBroker(config=MonitorConfig(shards=4), overlap=OVERLAP,
                             on_error="degrade", breaker_threshold=1)
        kill_after = 2
        _kill_shard(broker, 1, at=tuple(range(kill_after, 100)))
        for window in windows:
            broker.process(window)
        broker.flush()
        assert broker.dead_shards == (1,)
        serial_keys = [_key(p) for p in serial.packets]
        merged_keys = [_key(p) for p in broker.packets]
        assert set(merged_keys) <= set(serial_keys)
        assert len(merged_keys) == len(set(merged_keys))


class TestMergeHelpers:
    def _packet(self, start, protocol="wifi", decoder="d", channel=None):
        return PacketRecord(protocol=protocol, start_sample=start,
                            end_sample=start + 100, ok=True, decoder=decoder,
                            channel=channel)

    def test_merge_packets_dedups_and_orders(self):
        a, b, c = (self._packet(s) for s in (300, 100, 200))
        dup = self._packet(100)
        merged = merge_packets([[a, b], [dup, c]])
        assert [p.start_sample for p in merged] == [100, 200, 300]

    def test_merge_packets_first_copy_wins(self):
        first = self._packet(100)
        second = self._packet(100)
        merged = merge_packets([[first], [second]])
        assert merged[0] is first

    def test_merge_packets_distinguishes_channels(self):
        a = self._packet(100, protocol="bluetooth", channel=38)
        b = self._packet(100, protocol="bluetooth", channel=39)
        assert len(merge_packets([[a], [b]])) == 2

    def test_merge_classifications_dedups(self, wifi_report):
        sample = list(wifi_report.classifications)
        assert sample  # fixture sanity
        merged = merge_classifications([sample, list(reversed(sample))])
        assert len(merged) == len(sample)
        assert sorted(
            (c.peak.start_sample, c.detector) for c in merged
        ) == sorted((c.peak.start_sample, c.detector) for c in sample)

    def test_merge_empty(self):
        assert merge_packets([]) == []
        assert merge_classifications([[], []]) == []
