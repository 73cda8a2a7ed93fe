"""Ground-truth scorer: reported packets against the emulator's log.

A reported packet *matches* a transmission when both carry the same
protocol and their sample ranges overlap.  Packets are taken in stream
order; each claims the overlapping transmission it shares the most
samples with among those not yet matched.  A packet whose overlapping
transmissions are all matched already is a *duplicate*; a packet that
overlaps none is a *phantom*.  A packet that overlaps only transmissions
the monitor could not have seen in full (outside the band, or cut by
the end of the trace) is *unscored*: it is neither a hit nor an error.

Recall counts the observable transmissions
(:meth:`GroundTruth.observable`) that some packet matched.  Nothing is
filtered: a transmission decoded twice shows as one duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class TruthSpan:
    """One ground-truth transmission in sample coordinates."""

    protocol: str
    start: int
    end: int
    observable: bool = True


@dataclass(frozen=True)
class Reported:
    """One reported packet in sample coordinates."""

    protocol: str
    start: int
    end: int


@dataclass
class Score:
    """What the scorer found; every reported packet lands in one bucket."""

    truth: int
    reported: int
    matched: int
    duplicates: int
    phantoms: int
    unscored: int
    truth_by_protocol: Dict[str, int] = field(default_factory=dict)
    matched_by_protocol: Dict[str, int] = field(default_factory=dict)

    @property
    def recall(self) -> float:
        return self.matched / self.truth if self.truth else 1.0

    @property
    def precision(self) -> float:
        """Reported packets that are the first match of a transmission."""
        scored = self.reported - self.unscored
        return self.matched / scored if scored else 1.0

    def recall_by_protocol(self) -> Dict[str, float]:
        return {
            p: self.matched_by_protocol.get(p, 0) / n
            for p, n in sorted(self.truth_by_protocol.items()) if n
        }

    def check(self) -> None:
        """Raise if the buckets do not add up (a scorer defect)."""
        if self.matched + self.duplicates + self.phantoms + self.unscored \
                != self.reported:
            raise AssertionError(f"scorer buckets do not add up: {self}")
        if not 0 <= self.matched <= self.truth:
            raise AssertionError(f"more matches than transmissions: {self}")


def truth_spans(ground_truth, sample_rate: float) -> List[TruthSpan]:
    """A :class:`GroundTruth` log in sample coordinates.

    Start and end round the way :meth:`Scenario.render` places a
    waveform, so a packet decoded at its true position overlaps it.
    """
    return [
        TruthSpan(t.protocol, int(round(t.start_time * sample_rate)),
                  int(round(t.end_time * sample_rate)), bool(t.observable))
        for t in ground_truth.transmissions
    ]


def reported_from_events(events: Iterable) -> List[Reported]:
    """Reported packets from :class:`PacketEvent` objects."""
    return [Reported(e.protocol, e.meta.start_sample, e.meta.end_sample)
            for e in events]


def score(truth: Sequence[TruthSpan], reported: Sequence[Reported]) -> Score:
    """Match ``reported`` (in stream order) against ``truth``."""
    by_protocol: Dict[str, List[Tuple[int, TruthSpan]]] = {}
    for i, t in enumerate(truth):
        by_protocol.setdefault(t.protocol, []).append((i, t))
    claimed = set()
    matched = duplicates = phantoms = unscored = 0
    matched_by: Dict[str, int] = {}
    for packet in reported:
        overlaps = [
            (min(packet.end, t.end) - max(packet.start, t.start), i, t)
            for i, t in by_protocol.get(packet.protocol, ())
            if t.start < packet.end and packet.start < t.end
        ]
        if not overlaps:
            phantoms += 1
            continue
        free = [o for o in overlaps if o[1] not in claimed]
        if not free:
            duplicates += 1
            continue
        # most shared samples wins; the earlier transmission breaks a tie
        _, index, best = max(free, key=lambda o: (o[0], -o[1]))
        claimed.add(index)
        if best.observable:
            matched += 1
            matched_by[packet.protocol] = matched_by.get(packet.protocol, 0) + 1
        else:
            unscored += 1
    truth_by: Dict[str, int] = {}
    for t in truth:
        if t.observable:
            truth_by[t.protocol] = truth_by.get(t.protocol, 0) + 1
    result = Score(
        truth=sum(truth_by.values()), reported=len(reported),
        matched=matched, duplicates=duplicates, phantoms=phantoms,
        unscored=unscored, truth_by_protocol=truth_by,
        matched_by_protocol=matched_by,
    )
    result.check()
    return result
