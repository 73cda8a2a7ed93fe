"""Scorer self-tests on a hand-built ground truth."""

from perfbench.score import Reported, TruthSpan, score

TRUTH = [
    TruthSpan("wifi", 0, 1_000),
    TruthSpan("wifi", 2_000, 3_000),
    TruthSpan("bluetooth", 4_000, 4_500),
    TruthSpan("wifi", 9_000, 9_800, observable=False),
]


def test_one_missed_one_duplicated_one_phantom():
    reported = [
        Reported("wifi", 10, 990),
        Reported("wifi", 520, 1_400),      # the same transmission again
        Reported("bluetooth", 4_010, 4_490),
        Reported("zigbee", 2_100, 2_900),  # overlaps Wi-Fi, wrong protocol
    ]
    result = score(TRUTH, reported)
    assert (result.truth, result.reported) == (3, 4)
    assert result.matched == 2            # the one at 2000 was missed
    assert result.duplicates == 1
    assert result.phantoms == 1
    assert result.unscored == 0
    assert result.recall == 2 / 3
    assert result.precision == 2 / 4
    assert result.recall_by_protocol() == {"bluetooth": 1.0, "wifi": 0.5}


def test_perfect_stream_scores_one():
    reported = [Reported(t.protocol, t.start, t.end) for t in TRUTH[:3]]
    result = score(TRUTH, reported)
    assert (result.recall, result.precision) == (1.0, 1.0)
    assert result.duplicates == result.phantoms == 0


def test_packet_on_a_transmission_the_monitor_could_not_see_is_unscored():
    result = score(TRUTH, [Reported("wifi", 9_100, 9_700)])
    assert (result.matched, result.unscored, result.phantoms) == (0, 1, 0)
    assert result.precision == 1.0


def test_two_packets_in_a_collision_claim_both_transmissions():
    truth = [TruthSpan("wifi", 0, 1_000), TruthSpan("wifi", 600, 1_600)]
    result = score(truth, [Reported("wifi", 0, 1_000),
                           Reported("wifi", 600, 1_600)])
    assert (result.matched, result.duplicates) == (2, 0)


def test_touching_ranges_do_not_overlap():
    result = score(TRUTH, [Reported("wifi", 1_000, 2_000)])
    assert result.phantoms == 1
