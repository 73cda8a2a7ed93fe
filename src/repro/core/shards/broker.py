"""Shard broker: window fan-out, report merge, and rebalancing.

The broker is the service's control plane, after the felix
broker/switch/routing split: it routes every stream window to the
healthy shard workers, merges their per-shard reports into one
band-wide :class:`~repro.core.pipeline.MonitorReport`, and owns the
shard-level failure domain — a per-shard
:class:`~repro.core.errorpolicy.CircuitBreaker` that, once tripped,
*rebalances* the dead shard's sub-bands onto its nearest healthy
neighbor so the remaining shards keep covering the whole band.

Merge semantics (the equivalence guarantee):

* every shard runs detection over the same windows, so dispatch is
  identical everywhere and each dispatched range is demodulated by at
  least one shard (every sub-band always has exactly one owner);
* a range whose energy straddles a shard boundary is active in both
  neighbors, demodulated twice, and de-duplicated here by packet key —
  so the merged packet list equals the single-monitor run's, in the
  same deterministic :func:`~repro.core.parallel.packet_sort_key` order.

Per-shard counters (windows, failures, packets) and the shard-ownership
gauge are exported through the band config's :mod:`repro.obs` sink.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.decoders import PacketRecord
from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig
from repro.core.detectors.base import Classification
from repro.core.errorpolicy import (
    CircuitBreaker,
    ErrorRecord,
    validate_error_policy,
)
from repro.core.monitor import Monitor
from repro.core.pipeline import MonitorReport
from repro.core.report import merge_classifications, merge_packets, packet_key
from repro.core.shards.splitter import BandSplitter
from repro.core.shards.worker import ShardWorker
from repro.dsp.samples import SampleBuffer
from repro.errors import ShardCrashError
from repro.obs import NULL
from repro.sanitize.hooks import new_lock


class ShardBroker(Monitor):
    """N shard workers behind one :class:`Monitor` facade.

    Mirrors the :class:`~repro.core.streaming.StreamingMonitor`
    interface (``process`` per window, ``flush``, accumulated
    ``packets`` / ``classifications`` / ``errors`` / ``clock``) so the
    CLI and benchmarks drive either through the same loop.

    Parameters
    ----------
    config:
        Band-wide :class:`MonitorConfig`; ``config.shards`` sets the
        worker count unless ``shards`` overrides it, ``config.obs``
        receives the broker's per-shard metrics, and ``config.on_error``
        is the shard-level fault policy unless ``on_error`` overrides.
    shards:
        Worker count override (1..nchannels).
    overlap:
        Streaming window overlap per worker.
    nchannels / fft_size / occupancy_fraction:
        Forwarded to :class:`BandSplitter`.
    breaker_threshold:
        Consecutive window failures before a shard is retired and its
        sub-bands rebalanced.
    """

    def __init__(self, config: Optional[MonitorConfig] = None,
                 shards: Optional[int] = None, overlap: int = 48_000,
                 nchannels: int = 8, fft_size: int = 256,
                 occupancy_fraction: float = 0.25,
                 breaker_threshold: int = 3,
                 on_error: Optional[str] = None):
        config = config if config is not None else MonitorConfig()
        nshards = int(shards if shards is not None else config.shards)
        self.config = config
        self.obs = config.obs
        self.on_error = validate_error_policy(
            on_error if on_error is not None else config.on_error
        )
        self.splitter = BandSplitter(
            nshards, nchannels=nchannels, fft_size=fft_size,
            occupancy_fraction=occupancy_fraction,
        )
        # guards the ownership map: a daemon /healthz or metrics export
        # reads owned_channels() while a rebalance on the pump thread
        # rewrites it.  Leaf domain — never held while calling workers.
        self._ownership_lock = new_lock("shards.ownership")
        self._owner: Dict[int, int] = self.splitter.initial_ownership()
        self.workers: List[ShardWorker] = [
            ShardWorker(
                k, config, self.splitter,
                owned=self._owned_getter(k),
                overlap=overlap, filtered=nshards > 1,
            )
            for k in range(nshards)
        ]
        self._breaker = CircuitBreaker(threshold=breaker_threshold)
        #: shard-level faults the broker handled (worker window failures,
        #: rebalances); workers keep their own stream-level records too
        self.errors: List[ErrorRecord] = []
        #: sub-band reassignments performed after breaker trips
        self.rebalances = 0
        self._total_samples = 0
        self._duration = 0.0
        self._noise_floor: Optional[float] = None
        # transmission keys already yielded by events(); the merged
        # band-wide list is re-sorted on every access, so a positional
        # cursor would mis-count after a rebalance interleaves a retired
        # shard's flushed output with the survivors'
        self._emitted_event_keys: set = set()
        self._export_ownership()

    # -- ownership ------------------------------------------------------------

    def _owned_getter(self, shard: int):
        def owned() -> FrozenSet[int]:
            return self.owned_channels(shard)
        return owned

    def owned_channels(self, shard: int) -> FrozenSet[int]:
        """Sub-band channels shard ``shard`` currently owns."""
        with self._ownership_lock:
            return frozenset(
                ch for ch, owner in self._owner.items() if owner == shard
            )

    @property
    def nshards(self) -> int:
        return len(self.workers)

    @property
    def healthy_shards(self) -> Tuple[int, ...]:
        return tuple(w.index for w in self.workers if w.healthy)

    @property
    def dead_shards(self) -> Tuple[int, ...]:
        return tuple(w.index for w in self.workers if not w.healthy)

    def _export_ownership(self) -> None:
        obs = self.obs or NULL
        for worker in self.workers:
            obs.gauge(
                "rfdump_shard_owned_channels",
                help="sub-band channels currently owned per shard (0 = "
                     "retired)",
                shard=worker.name,
            ).set(len(self.owned_channels(worker.index)))
            obs.gauge(
                "rfdump_shard_healthy",
                help="1 while the shard is in rotation, 0 once retired",
                shard=worker.name,
            ).set(1 if worker.healthy else 0)

    # -- failure handling -----------------------------------------------------

    def _handle_failure(self, worker: ShardWorker, exc: Exception,
                        window: SampleBuffer,
                        window_errors: List[ErrorRecord]) -> None:
        if self.on_error == "raise":
            raise ShardCrashError(
                f"{worker.name} failed window [{window.start_sample}, "
                f"{window.end_sample}): {exc}", shard=worker.name,
            ) from exc
        worker.failures += 1
        record = ErrorRecord.from_exception(
            stage="shard", component=worker.name, exc=exc,
            action="skipped", start_sample=window.start_sample,
            end_sample=window.end_sample,
        )
        self.errors.append(record)
        window_errors.append(record)
        obs = self.obs or NULL
        obs.counter(
            "rfdump_shard_failures_total",
            help="window failures absorbed per shard by the error policy",
            shard=worker.name,
        ).inc()
        if self._breaker.record_failure(worker.name):
            self._rebalance(worker, window, window_errors)

    def _rebalance(self, dead: ShardWorker, window: SampleBuffer,
                   window_errors: List[ErrorRecord]) -> None:
        """Retire a tripped shard and hand its sub-bands to a neighbor."""
        dead.retire()
        # owned_channels() takes the ownership lock itself; compute the
        # orphan set before re-acquiring for the rewrite
        orphaned = sorted(self.owned_channels(dead.index))
        healthy = [w.index for w in self.workers if w.healthy]
        obs = self.obs or NULL
        if healthy:
            # nearest healthy neighbor by shard index; ties go low, so
            # the reassignment is deterministic
            heir = min(healthy, key=lambda k: (abs(k - dead.index), k))
            with self._ownership_lock:
                for channel in orphaned:
                    self._owner[channel] = heir
            action = (f"rebalanced: sub-bands {orphaned} -> shard{heir}"
                      if orphaned else "rebalanced: no sub-bands owned")
            self.rebalances += 1
            obs.counter(
                "rfdump_shard_rebalances_total",
                help="sub-band reassignments after a shard's breaker "
                     "tripped",
            ).inc()
        else:
            # nothing left to absorb the band; the outage is recorded and
            # every subsequent merge is empty rather than wrong
            action = f"retired: no healthy shard left for {orphaned}"
        record = ErrorRecord(
            stage="shard", component=dead.name, error="CircuitBreakerOpen",
            message=f"{dead.name} tripped after "
                    f"{self._breaker.threshold} consecutive window "
                    f"failures",
            action=action, start_sample=window.start_sample,
            end_sample=window.end_sample,
        )
        self.errors.append(record)
        window_errors.append(record)
        self._export_ownership()

    # -- the monitor interface ------------------------------------------------

    def process(self, window: SampleBuffer) -> MonitorReport:
        """Fan one stream window out to every healthy shard; returns the
        merged window report."""
        obs = self.obs or NULL
        window_errors: List[ErrorRecord] = []
        reports: List[Tuple[int, MonitorReport]] = []
        for worker in self.workers:
            if not worker.healthy:
                continue
            try:
                report = worker.process(window)
            except Exception as exc:  # noqa: BLE001 - policy seam
                self._handle_failure(worker, exc, window, window_errors)
                continue
            self._breaker.record_success(worker.name)
            obs.counter(
                "rfdump_shard_windows_total",
                help="stream windows analyzed per shard",
                shard=worker.name,
            ).inc()
            if report.packets:
                obs.counter(
                    "rfdump_shard_packets_total",
                    help="packets decoded per shard (pre-merge, so "
                         "boundary duplicates count on both owners)",
                    shard=worker.name,
                ).inc(len(report.packets))
            reports.append((worker.index, report))
        self._total_samples += len(window)
        self._duration += window.duration
        return self._merge_window(window, reports, window_errors)

    def _merge_window(self, window: SampleBuffer,
                      reports: List[Tuple[int, MonitorReport]],
                      window_errors: List[ErrorRecord]) -> MonitorReport:
        obs = self.obs or NULL
        if not reports:
            return MonitorReport(
                total_samples=len(window), duration=window.duration,
                peaks=None, classifications=[], ranges={}, packets=[],
                clock=StageClock(), noise_floor=self._noise_floor,
                errors=window_errors,
            )
        reference = reports[0][1]
        raw = sum(len(r.packets) for _, r in reports)
        packets = merge_packets([r.packets for _, r in reports])
        if raw > len(packets):
            obs.counter(
                "rfdump_shard_merge_dedup_total",
                help="boundary-duplicate packets collapsed by the merge",
            ).inc(raw - len(packets))
        for packet in packets:
            obs.counter(
                "rfdump_packets_merged_total",
                help="band-wide packets after the shard merge",
                protocol=packet.protocol,
            ).inc()
        clock = StageClock()
        errors = list(window_errors)
        fallbacks = 0
        quarantined = set()
        for _, report in reports:
            clock = clock.merged(report.clock)
            fallbacks += report.parallel_fallbacks
            quarantined.update(report.quarantined_detectors)
            for record in report.errors:
                if record not in errors:
                    errors.append(record)
        self._noise_floor = reference.noise_floor
        # every shard stitched the same overlap tail, so the reference
        # totals match what a single streaming monitor would report
        return MonitorReport(
            total_samples=reference.total_samples,
            duration=reference.duration,
            peaks=reference.peaks,
            classifications=merge_classifications(
                [r.classifications for _, r in reports]
            ),
            ranges=reference.ranges, packets=packets, clock=clock,
            noise_floor=reference.noise_floor,
            parallel_fallbacks=fallbacks, errors=errors,
            quarantined_detectors=tuple(sorted(quarantined)),
        )

    # -- accumulated band-wide output -----------------------------------------

    @property
    def packets(self) -> List[PacketRecord]:
        """Band-wide packets so far (all shards, retired ones included)."""
        return merge_packets([w.packets for w in self.workers])

    @property
    def classifications(self) -> List[Classification]:
        return merge_classifications([w.classifications for w in self.workers])

    @property
    def clock(self) -> StageClock:
        """Total per-stage cost across every shard (real CPU spent)."""
        clock = StageClock()
        for worker in self.workers:
            clock = clock.merged(worker.monitor.clock)
        return clock

    @property
    def quarantined_detectors(self) -> Tuple[str, ...]:
        out = set()
        for worker in self.workers:
            out.update(worker.quarantined_detectors)
        return tuple(sorted(out))

    @property
    def all_errors(self) -> List[ErrorRecord]:
        """Broker-level plus per-worker stream-level fault records."""
        out = list(self.errors)
        for worker in self.workers:
            out.extend(worker.errors)
        return out

    def merged_report(self) -> MonitorReport:
        """One band-wide report for the whole run so far."""
        return MonitorReport(
            total_samples=self._total_samples, duration=self._duration,
            peaks=None, classifications=self.classifications,
            ranges={}, packets=self.packets, clock=self.clock,
            noise_floor=self._noise_floor, errors=self.all_errors,
            quarantined_detectors=self.quarantined_detectors,
        )

    def flush(self) -> "ShardBroker":
        """Release every healthy shard's deferred results; idempotent."""
        for worker in self.workers:
            if worker.healthy:
                worker.flush()
        return self

    def run(self, windows) -> "ShardBroker":
        """Process every window of a stream, then flush; returns self."""
        for window in windows:
            self.process(window)
        return self.flush()

    # -- events() hooks -------------------------------------------------------

    def _drain_new_packets(self) -> List[PacketRecord]:
        """Band-wide packets not yet yielded as events, in merge order."""
        new = []
        for packet in self.packets:
            key = packet_key(packet)
            if key not in self._emitted_event_keys:
                self._emitted_event_keys.add(key)
                new.append(packet)
        return new

    def _final_packets(self, report: MonitorReport) -> List[PacketRecord]:
        return self._drain_new_packets()

    def _final_flush(self) -> List[PacketRecord]:
        self.flush()
        return self._drain_new_packets()

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
