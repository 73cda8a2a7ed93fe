"""The four workloads and the loops that drive them.

Every workload cuts its trace into 160,000-sample windows (20 ms at
8 Msps) and monitors them with a 48,000-sample overlap, the geometry of
the ``window_latency`` and ``sharded`` rfbench entries.  A *pass* feeds
the whole trace through a freshly built monitor (or daemon); a run
repeats whole passes, so every window counts equally often.

Closed loop (``mix``, ``mix-shard4``, ``zigbee-coex``): the next window
is handed to ``Monitor.events()`` as soon as the events of the previous
one are out.  A window's latency is the time from handing it over to
the monitor asking for the next one.

Open loop (``campus-daemon``): one thread sends window frames to an
in-process :class:`RFDumpDaemon` on a fixed schedule, at 0.0625x the
capture rate (one 20 ms window every 320 ms), whatever the daemon is
doing; a second thread reads the events as a subscriber.  Event
latency counts from the time a window was *due*, so a stall shows in
every later window too.  Window latency is the daemon's own ``process``
span per window, from the observability sink the daemon always runs.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

SAMPLE_RATE = 8e6
WINDOW = 160_000
OVERLAP = 48_000
#: the open loop's send rate as a share of the capture rate: about a
#: quarter of the daemon's capacity, so that even the heaviest campus
#: window is done before the next one is due and no queue forms
OPEN_LOOP_RATE = 0.0625
#: how long before a window is due the open-loop generator probes the
#: host, and how many probes it takes there (the median is kept): the
#: daemon idles most of each period, so they cost nothing
PROBE_LEAD_S = 0.04
OPEN_LOOP_PROBES = 3
#: the seed the preset workloads draw their traffic schedule from
TRAFFIC_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seconds of trace one pass covers
    duration: float
    loop: str
    shards: int = 1
    protocols: Tuple[str, ...] = ("wifi", "bluetooth")
    preset: Optional[str] = None

    def scenario(self, seed: int):
        """The workload's scenario with its channel noise drawn from
        ``seed``.

        The traffic schedule is the same for every seed: a preset's is
        the one it draws at :data:`TRAFFIC_SEED`, and the ZigBee
        scenario's sessions keep their fixed schedules.  What a window
        costs to decode swings with the traffic (campus load by +-30%
        between preset seeds; ZigBee's retry loop with where Wi-Fi
        backoff lands on its frames), which would bury any change under
        run-to-run spread.  At ``seed == TRAFFIC_SEED`` a preset workload
        renders exactly ``build_preset(preset, duration, seed=3)``.
        """
        if self.preset is not None:
            from repro.emulator.presets import build_preset

            scenario = build_preset(self.preset, self.duration,
                                    seed=TRAFFIC_SEED)
            scenario.seed = seed
            return scenario
        from repro.emulator import Scenario, WifiPingSession, ZigbeePingSession

        scenario = Scenario(duration=self.duration, seed=seed)
        scenario.add(ZigbeePingSession(
            n_packets=int(self.duration / 12e-3) + 1, interval=12e-3))
        scenario.add(WifiPingSession(
            n_pings=int(self.duration / 40e-3) + 1, interval=40e-3))
        return scenario

    def config(self):
        from repro.core.config import MonitorConfig

        return MonitorConfig(protocols=self.protocols, shards=self.shards)

    def monitor(self):
        """A fresh closed-loop monitor (streaming state is per pass)."""
        from repro.core.monitor import make_monitor

        kind = "sharded" if self.shards > 1 else "streaming"
        return make_monitor(kind, self.config(), overlap=OVERLAP)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mix", "Wi-Fi pings plus Bluetooth l2ping through one "
             "streaming monitor; Wi-Fi demodulation dominates",
             duration=0.5, loop="closed", preset="mix"),
    Workload("mix-shard4", "the mix trace through a 4-shard broker; "
             "detection and wideband Wi-Fi demodulation run 4 times",
             duration=0.5, loop="closed", shards=4, preset="mix"),
    Workload("campus-daemon", "campus traffic fed to rfdumpd in an open "
             "loop at 0.0625x capture rate; the only service-layer workload",
             duration=0.5, loop="open", preset="campus"),
    Workload("zigbee-coex", "ZigBee pings beside Wi-Fi pings with ZigBee "
             "monitored; ZigBee demodulation dominates, absent elsewhere",
             duration=0.1, loop="closed",
             protocols=("wifi", "bluetooth", "zigbee")),
)}


@dataclass
class Trace:
    """A rendered workload input: windows plus ground truth."""

    windows: list
    truth: list
    samples: int


def render(workload: Workload, seed: int) -> Trace:
    from repro.faults.harness import split_windows
    from perfbench.score import truth_spans

    rendered = workload.scenario(seed).render()
    return Trace(split_windows(rendered.buffer, WINDOW),
                 truth_spans(rendered.ground_truth, SAMPLE_RATE),
                 len(rendered.buffer))


@dataclass
class Pass:
    """What one pass over a trace produced and how long it took."""

    events: list = field(default_factory=list)
    #: perf_counter when each event reached the consumer
    received: List[float] = field(default_factory=list)
    #: newest window index handed over when each event arrived
    newest: List[int] = field(default_factory=list)
    #: perf_counter when each window was handed over (closed) or due (open)
    due: List[float] = field(default_factory=list)
    window_latency: List[float] = field(default_factory=list)
    #: host-speed reading (median seconds of the kernel runs) taken
    #: between window k and window k+1, or None where none was taken
    probes: List[Optional[float]] = field(default_factory=list)
    #: samples of the windows that finished
    samples: int = 0
    windows_sent: int = 0
    windows_failed: int = 0
    wall: float = 0.0
    error: Optional[str] = None
    #: open loop only
    open_loop: bool = False
    generator_lag: List[float] = field(default_factory=list)
    delivered_ok: bool = True
    events_dropped: int = 0
    obs_series: int = 0
    service_busy: float = 0.0

    def scales(self) -> List[float]:
        """Per window handed over, the factor taking its timings to the
        reference host: from the probes taken just before and just after
        it, else from every probe of the pass."""
        from perfbench.hostspeed import scale_of

        taken = [x for x in self.probes if x is not None]
        out = []
        for i in range(len(self.due)):
            near = [x for x in self.probes[max(i - 1, 0):i + 1]
                    if x is not None]
            out.append(scale_of(near or taken))
        return out

    def event_latencies(self, scales: Optional[List[float]] = None
                        ) -> List[float]:
        """Per event: receipt minus due time of the window holding the
        packet's last sample (or the newest window sent, if earlier).

        ``scales`` (per window, default 1) multiply the host-bound part
        of each latency: each window's share by its own factor.  In the
        closed loop an event waits for the windows from its own to the
        newest one, and the probes between them are left out.  In the
        open loop the gap between two due times is the generator's
        schedule, which no host speed changes, so only the time after
        the newest window was due is scaled.
        """
        scales = scales or [1.0] * len(self.due)
        out = []
        for event, t, newest in zip(self.events, self.received, self.newest):
            k = max(min((event.meta.end_sample - 1) // WINDOW, newest), 0)
            if self.open_loop:
                waited = self.due[newest] - self.due[k]
            else:
                waited = sum(self.window_latency[j] * scales[j]
                             for j in range(k, newest))
            out.append(waited + (t - self.due[newest]) * scales[newest])
        return out


def _error_windows(records, sent: int) -> int:
    """Distinct windows that carried an ErrorRecord."""
    hit = set()
    for record in records:
        start = getattr(record, "start_sample", None)
        hit.add(start // WINDOW if start is not None else -1)
    return min(len(hit), sent)


def closed_pass(workload: Workload, trace: Trace, speed=None) -> Pass:
    """Feed the trace through a fresh monitor's ``events()``; with a
    :class:`~perfbench.hostspeed.HostSpeed`, probe the host between
    windows, outside their timing, and keep the median of the probes."""
    from time import perf_counter

    from perfbench.hostspeed import probes_after

    out = Pass()
    monitor = workload.monitor()

    def feed():
        for window in trace.windows:
            now = perf_counter()
            if out.due:
                out.window_latency.append(now - out.due[-1])
                if speed is not None:
                    out.probes.append(speed.seconds(
                        probes_after(out.window_latency[-1])))
                    now = perf_counter()
            out.due.append(now)
            yield window
        out.window_latency.append(perf_counter() - out.due[-1])

    t0 = perf_counter()
    try:
        with monitor:
            for event in monitor.events(feed()):
                out.received.append(perf_counter())
                out.events.append(event)
                out.newest.append(len(out.due) - 1)
            errors = getattr(monitor, "all_errors", None) or monitor.errors
    except Exception as exc:  # noqa: BLE001 - a failing window is a result
        out.error = f"{type(exc).__name__}: {exc}"
        errors = []
    out.wall = perf_counter() - t0
    done = len(out.window_latency)
    out.windows_sent = len(trace.windows)
    out.samples = sum(len(w) for w in trace.windows[:done])
    out.windows_failed = min(
        out.windows_sent, out.windows_sent - done
        + _error_windows(errors, out.windows_sent))
    return out


def open_pass(workload: Workload, trace: Trace, frames: list,
              send: Optional[Callable] = None, speed=None) -> Pass:
    """Send the trace to a fresh daemon on the open-loop schedule.

    ``send`` replaces the plain :func:`send_frame` call for the window
    frames (the traced run wraps it in a span).  With a
    :class:`~perfbench.hostspeed.HostSpeed`, the generator probes the
    host :data:`PROBE_LEAD_S` before a window is due, if the daemon
    has finished every window sent by then.
    """
    from repro.errors import ServiceProtocolError
    from repro.obs import render_prometheus
    from repro.service import RFDumpDaemon, protocol

    send = send or protocol.send_frame
    period = WINDOW / (OPEN_LOOP_RATE * SAMPLE_RATE)
    out = Pass(open_loop=True)
    eos: Dict = {}
    daemon = RFDumpDaemon(workload.config(), kind="streaming").start()
    conns: List[socket.socket] = []
    reader: Optional[threading.Thread] = None
    t0 = time.perf_counter()
    try:
        def connect(hello: Dict):
            conn = socket.create_connection(daemon.address, timeout=60)
            conns.append(conn)
            rw = conn.makefile("rwb")
            protocol.send_frame(rw, dict(hello, v=protocol.PROTOCOL_VERSION))
            frame = protocol.recv_frame(rw)
            if frame is None or frame[0].get("type") != "welcome":
                raise RuntimeError(f"daemon refused {hello['role']}: {frame}")
            return rw

        sub = connect({"type": "hello", "role": "subscribe", "from_seq": 0})

        def read_events():
            from repro.core.events import PacketEvent

            while True:
                frame = protocol.recv_frame(sub)
                if frame is None:
                    return
                header = frame[0]
                if header["type"] != "event":
                    eos.update(header)
                    return
                out.received.append(time.perf_counter())
                out.events.append(PacketEvent.from_dict(header["event"]))
                out.newest.append(len(out.due) - 1)

        reader = threading.Thread(target=read_events, name="bench-subscriber")
        reader.start()
        ingest = connect({"type": "hello", "role": "ingest",
                          "sample_rate": SAMPLE_RATE})
        start = time.perf_counter() + 0.01
        processed = _ProcessCount(daemon.obs.tracer)
        for k, (header, payload) in enumerate(frames):
            due = start + k * period
            if speed is not None and k:
                probe = None
                wait = due - PROBE_LEAD_S - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                    if processed() >= k:
                        probe = speed.seconds(OPEN_LOOP_PROBES)
                out.probes.append(probe)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.generator_lag.append(time.perf_counter() - due)
            out.due.append(due)
            send(ingest, dict(header, seq=k), payload)
        out.windows_sent = len(out.due)
        protocol.send_frame(ingest, {"type": "end",
                                     "windows": out.windows_sent})
        done = protocol.recv_frame(ingest)
        reader.join(60)
        if done is None or done[0].get("type") != "done" \
                or reader.is_alive() or eos.get("type") != "eos":
            raise RuntimeError(f"daemon did not finish the stream: {done}, "
                               f"{eos}")
        backlog = [e.to_json() for e in daemon.hub.backlog()]
        out.delivered_ok = backlog == [e.to_json() for e in out.events]
        out.events_dropped = int(eos.get("dropped", 0))
        spans = [s for s in daemon.obs.tracer.spans if s.name == "process"]
        out.window_latency = [s.duration for s in spans]
        out.service_busy = sum(out.window_latency)
        out.samples = sum(len(w) for w in trace.windows[:len(spans)])
        out.obs_series = sum(
            1 for line in render_prometheus(daemon.obs.registry).splitlines()
            if line and not line.startswith("#"))
        lost = out.windows_sent - daemon.windows_ingested
        failed = lost + _error_windows(daemon.errors, out.windows_sent)
        failed += 0 if daemon.stream_error is None else 1
        failed += 0 if out.delivered_ok and not out.events_dropped else 1
        out.windows_failed = min(failed, out.windows_sent)
    except (OSError, RuntimeError, ServiceProtocolError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        out.windows_failed = out.windows_sent = len(frames)
    finally:
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if reader is not None:
            reader.join(10)
        daemon.stop()
    out.wall = time.perf_counter() - t0
    return out


class _ProcessCount:
    """How many windows the daemon has finished: its closed ``process``
    spans, counted incrementally.  The tracer appends a span when it
    opens and sets ``t_end`` when it closes; one thread processes the
    windows, so they close in order."""

    def __init__(self, tracer):
        self._spans = tracer.spans
        self._seen = 0
        self._count = 0

    def __call__(self) -> int:
        spans = self._spans
        while self._seen < len(spans):
            span = spans[self._seen]
            if span.name == "process":
                if not span.t_end:
                    break
                self._count += 1
            self._seen += 1
        return self._count


def frames_for(trace: Trace) -> list:
    """Window frames, serialized once so sending costs only the write."""
    from repro.service import protocol

    return [protocol.window_frame(w) for w in trace.windows]


def run_pass(workload: Workload, trace: Trace, frames: Optional[list],
             send: Optional[Callable] = None, speed=None) -> Pass:
    if workload.loop == "open":
        return open_pass(workload, trace, frames, send, speed)
    return closed_pass(workload, trace, speed)
