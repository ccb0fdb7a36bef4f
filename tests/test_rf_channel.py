"""Channel loss/latency behavior and the measurement helpers, checked on the
`packet_send` payloads that `Channel.send` returns."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _channel import measure_pdr, measure_rtt, timed_send
from wardsim import AddressingError, ConfigurationError
from wardsim.rf_channel import Channel, ChannelConfig, LinkCondition, Packet, PacketKind
from wardsim.rng import Doubles


def make_channel(seed=0, **kw):
    return Channel(ChannelConfig(**kw), [1, 2, 3, 4], np.random.default_rng(seed))


def cmd(src, dst, seq, t):
    return Packet(src, dst, seq, PacketKind.COMMAND, {}, t)


def test_pdr_one_delivers_everything():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0)
    records = [ch.send(cmd(1, 2, i, i)) for i in range(200)]
    assert len(ch.in_flight) == 200
    assert all(r["outcome"] == "delivered" for r in records)


def test_pdr_near_zero_drops_almost_everything():
    ch = make_channel(pdr_clear=1e-9, pdr_obstructed=1e-9)
    records = [ch.send(cmd(1, 2, i, i)) for i in range(200)]
    assert len(ch.in_flight) == 0
    assert all(r["outcome"] == "dropped" and r["delay_ms"] == 0.0 for r in records)


def test_unknown_destination_raises():
    ch = make_channel()
    with pytest.raises(AddressingError):
        ch.send(cmd(1, 99, 0, 0))


def test_config_invariants():
    with pytest.raises(ConfigurationError):
        ChannelConfig(pdr_clear=0.5, pdr_obstructed=0.9)
    with pytest.raises(ConfigurationError):
        ChannelConfig(rtt_ms=0.0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(one_way_jitter_ms=-1.0)
    # the jitter's draw spans twice the jitter, which must be a finite float
    with pytest.raises(ConfigurationError,
                       match="one_way_jitter_ms must be at most half the float maximum"):
        ChannelConfig(one_way_jitter_ms=1e308)
    ChannelConfig(one_way_jitter_ms=sys.float_info.max / 2)


def test_delay_is_half_rtt_plus_bounded_jitter():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, rtt_ms=37.0,
                      one_way_jitter_ms=3.0)
    delays = [ch.send(cmd(1, 2, i, 0))["delay_ms"] for i in range(500)]
    assert all(15.5 <= d <= 21.5 for d in delays)
    assert np.mean(delays) == pytest.approx(18.5, abs=0.2)


def reference_send(config, gen, conditions, packet, extra_delay_ms):
    """`Channel.send` as it drew its jitter with a numpy Generator's own
    `uniform`: the `packet_send` payload, and the packet's arrival time if
    delivered."""
    cond = conditions.get((packet.src, packet.dst), LinkCondition.CLEAR)
    sent = {"src": packet.src, "dst": packet.dst, "packet_kind": packet.kind.value,
            "seq": packet.seq, "condition": cond.value}
    if not gen.random() < config.pdr(cond):
        return {**sent, "outcome": "dropped", "delay_ms": 0.0}, None
    j = config.one_way_jitter_ms
    delay = config.rtt_ms / 2.0 + (gen.uniform(-j, j) if j > 0 else 0.0)
    delay = max(delay, 1.0)
    return ({**sent, "outcome": "delivered", "delay_ms": delay},
            packet.sent_at + delay + extra_delay_ms)


@pytest.mark.corridor_oracle
@given(jitter=st.sampled_from([0.0, -0.0, 3.0]) | st.floats(0.0, 1e3),
       rtt=st.floats(0.5, 100.0), pdr=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1),
       obstructed=st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3))),
       sends=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 50),
                                st.sampled_from([0.0, 5.0])), max_size=40))
def test_channel_send_equals_the_generators_uniform(jitter, rtt, pdr, seed, obstructed, sends):
    config = ChannelConfig(pdr_clear=pdr, pdr_obstructed=pdr / 2, rtt_ms=rtt,
                           one_way_jitter_ms=jitter)
    channel = Channel(config, [1, 2, 3], Doubles(np.random.default_rng(seed)))
    gen = np.random.default_rng(seed)
    conditions = {link: LinkCondition.OBSTRUCTED for link in obstructed}
    for src, dst in obstructed:
        channel.set_condition(src, dst, LinkCondition.OBSTRUCTED)
    arrivals = []
    for seq, (src, dst, sent_at, extra) in enumerate(sends):
        packet = cmd(src, dst, seq, sent_at)
        want, arrival = reference_send(config, gen, conditions, packet, extra)
        assert repr(channel.send(packet, extra)) == repr(want)
        if arrival is not None:
            arrivals.append((arrival, seq, packet))
    # the same packets arrive in the same order
    assert channel.deliveries_due(float("inf")) == [p for _, _, p in sorted(arrivals)]
    assert channel.rng.random() == gen.random()  # the same number of draws


def test_delay_floor_one_ms():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, rtt_ms=0.5,
                      one_way_jitter_ms=3.0)
    assert all(ch.send(cmd(1, 2, i, 0))["delay_ms"] >= 1.0 for i in range(200))


def test_deliveries_due_ordering_and_exhaustion():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, one_way_jitter_ms=0.0)
    for i in range(5):
        ch.send(cmd(1, 2, i, i * 10))
    early = ch.deliveries_due(30.0)   # arrivals at 18.5, 28.5, 38.5, ...
    assert [p.seq for p in early] == [0, 1]
    rest = ch.deliveries_due(1e9)
    assert [p.seq for p in rest] == [2, 3, 4]
    assert ch.deliveries_due(1e9) == []


def test_extra_delay_shifts_arrival():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, one_way_jitter_ms=0.0)
    ch.send(cmd(1, 2, 0, 0), extra_delay_ms=1000.0)
    assert ch.deliveries_due(100) == []
    assert len(ch.deliveries_due(1018.5)) == 1


def test_conservation_sent_equals_delivered_plus_dropped():
    ch = make_channel(seed=3)
    records = [ch.send(cmd(1, 2, i, i)) for i in range(2000)]
    delivered = sum(1 for r in records if r["outcome"] == "delivered")
    dropped = sum(1 for r in records if r["outcome"] == "dropped")
    assert delivered + dropped == 2000
    assert len(ch.in_flight) == delivered


def test_condition_buckets_are_per_directed_link():
    ch = make_channel(seed=4)
    ch.set_condition(1, 2, LinkCondition.OBSTRUCTED)
    sends = [timed_send(ch, cmd(1, 2, 0, 0)), timed_send(ch, cmd(2, 1, 0, 0))]
    assert [payload["condition"] for _, payload in sends] == ["obstructed", "clear"]
    assert set(measure_pdr(sends)) == {LinkCondition.OBSTRUCTED, LinkCondition.CLEAR}


def test_same_seed_same_outcomes():
    def outcomes(seed):
        ch = make_channel(seed=seed)
        return [ch.send(cmd(1, 2, i, i))["outcome"] for i in range(300)]

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)


def test_measure_pdr_empty_log_raises():
    with pytest.raises(ValueError):
        measure_pdr([])


def test_measure_rtt_requires_matched_pairs():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0)
    with pytest.raises(ValueError):
        measure_rtt([timed_send(ch, cmd(1, 2, 0, 0))])   # command without an ack


def test_measure_rtt_matches_command_ack_pairs():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, one_way_jitter_ms=0.0)
    records = []
    for i in range(10):
        records.append(timed_send(ch, cmd(1, 2, i, i * 100)))
        # ack leaves the follower the moment the command arrives
        records.append(timed_send(ch, Packet(2, 1, i, PacketKind.ACK, {}, i * 100 + 18.5)))
    mean, std = measure_rtt(records)
    assert mean == pytest.approx(37.0)
    assert std == pytest.approx(0.0, abs=1e-9)


def test_measure_rtt_pairs_each_ack_with_the_latest_command_before_it():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, one_way_jitter_ms=0.0)
    records = []
    for t in (0, 100):   # the same seq twice, each acked on arrival
        records.append(timed_send(ch, cmd(1, 2, 7, t)))
        records.append(timed_send(ch, Packet(2, 1, 7, PacketKind.ACK, {}, t + 18.5)))
    assert measure_rtt(records) == (37.0, 0.0)


def test_record_payload_is_the_packet_send_event_payload():
    ch = make_channel(pdr_clear=1.0, pdr_obstructed=1.0, one_way_jitter_ms=0.0)
    ch.set_condition(1, 2, LinkCondition.OBSTRUCTED)
    assert ch.send(cmd(1, 2, 5, 40)) == {
        "src": 1, "dst": 2, "packet_kind": "command", "seq": 5,
        "condition": "obstructed", "outcome": "delivered", "delay_ms": 18.5}
