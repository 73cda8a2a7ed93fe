"""The flowgraph assembly behind the uniform :class:`Monitor` contract.

``make_monitor("flowgraph", ...)`` runs Figure 2 as an actual block
graph — :func:`~repro.flowgraph.rfdump_graph.build_rfdump_graph` per
window — instead of the batch :class:`~repro.core.pipeline.RFDumpMonitor`
calls — the structural twin of the batch pipeline, with the same
packets and classifications.
"""

from __future__ import annotations

from typing import Optional

from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig
from repro.core.monitor import Monitor


class FlowGraphMonitor(Monitor):
    """One-shot monitor that streams each window through the block DAG."""

    def __init__(self, config: Optional[MonitorConfig] = None):
        self.config = config if config is not None else MonitorConfig()
        self.obs = self.config.obs

    def process(self, buffer) -> "MonitorReport":
        from repro.core.pipeline import MonitorReport
        from repro.flowgraph.rfdump_graph import build_rfdump_graph

        cfg = self.config
        clock = StageClock(obs=self.obs)
        with clock.stage("flowgraph"):
            graph, packet_sink, cls_sink = build_rfdump_graph(
                buffer,
                protocols=cfg.protocols,
                kinds=cfg.kinds,
                center_freq=cfg.center_freq,
                demodulate=cfg.demodulate,
                noise_floor=cfg.noise_floor,
                obs=self.obs,
            )
            graph.run()
        clock.touch("flowgraph", len(buffer))
        return MonitorReport(
            total_samples=len(buffer),
            duration=len(buffer) / cfg.sample_rate,
            peaks=None,
            classifications=list(cls_sink.items),
            ranges={},
            packets=list(packet_sink.items),
            clock=clock,
            noise_floor=cfg.noise_floor,
        )
