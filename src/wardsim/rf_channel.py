"""Lossy addressed unicast channel with Bernoulli loss and jittered delay.

Delivery is decided per send from the packet delivery ratio of the current
link condition; dropped packets vanish silently, so loss is only observable
through protocol timeouts. One-way delay is half the configured round trip
plus symmetric uniform jitter, floored at 1 ms.

The channel keeps no delivery log: `send` returns the payload of the send's
`packet_send` event, which the engine logs as it is, and the delivery ratio
and round trip are folded from those events with the other metrics.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import NamedTuple

from . import AddressingError, require
from .rng import Doubles, symmetric_range, symmetric_range_checks


class PacketKind(enum.Enum):
    COMMAND = "command"
    ACK = "ack"
    STATUS = "status"
    VITALS_REPORT = "vitals_report"
    ALERT = "alert"


class LinkCondition(enum.Enum):
    CLEAR = "clear"
    OBSTRUCTED = "obstructed"


# Packet is an immutable record made for every send; as a NamedTuple it
# costs under half as much to build as a frozen dataclass, whose __init__
# sets each field through object.__setattr__.

class Packet(NamedTuple):
    src: int
    dst: int
    seq: int
    kind: PacketKind
    payload: dict
    sent_at: int  # sim-time ms


@dataclass(frozen=True)
class ChannelConfig:
    pdr_clear: float = 0.96
    pdr_obstructed: float = 0.92
    rtt_ms: float = 37.0
    one_way_jitter_ms: float = 3.0

    def __post_init__(self):
        require((0.0 < self.pdr_obstructed <= self.pdr_clear <= 1.0,
                 "require 0 < pdr_obstructed <= pdr_clear <= 1"),
                (self.rtt_ms > 0, "rtt_ms must be positive"),
                *symmetric_range_checks(self.one_way_jitter_ms, "one_way_jitter_ms"))
        # a delivered packet's jitter is uniform(-j, j); not a field, so set past __setattr__
        object.__setattr__(self, "jitter_range", symmetric_range(self.one_way_jitter_ms))

    def pdr(self, condition: LinkCondition) -> float:
        return self.pdr_clear if condition is LinkCondition.CLEAR else self.pdr_obstructed


class Channel:
    """Owns link conditions and the in-flight queue; keeps no delivery log,
    since each send returns its event's payload. `in_flight` is a heap of
    (delivery time, send count, packet), which callers only read: its head
    is the next delivery."""

    def __init__(self, config: ChannelConfig, addresses, rng: Doubles):
        self.config = config
        self.addresses = set(addresses)
        self.rng = rng
        self._jitter_low, self._jitter_span = config.jitter_range
        self.conditions: dict[tuple[int, int], LinkCondition] = {}
        self.in_flight: list[tuple[float, int, Packet]] = []
        self._counter = 0

    def set_condition(self, src: int, dst: int, condition: LinkCondition):
        self.conditions[(src, dst)] = condition

    def condition_for(self, src: int, dst: int) -> LinkCondition:
        return self.conditions.get((src, dst), LinkCondition.CLEAR)

    def send(self, packet: Packet, extra_delay_ms: float = 0.0) -> dict:
        """Submit a packet at packet.sent_at and return what became of it as
        the payload of its `packet_send` event: the outcome, "delivered" or
        "dropped", and the one-way delay, 0 for a drop (the protocol must not
        peek — reliability belongs to the protocol)."""
        if packet.dst not in self.addresses:
            raise AddressingError(f"unknown destination address {packet.dst}")
        cond = self.condition_for(packet.src, packet.dst)
        if not self.rng.random() < self.config.pdr(cond):
            outcome, delay = "dropped", 0.0
        else:
            span = self._jitter_span
            delay = self.config.rtt_ms / 2.0 + (self._jitter_low + span * self.rng.random()
                                                if span > 0 else 0.0)
            delay = max(delay, 1.0)
            heapq.heappush(self.in_flight,
                           (packet.sent_at + delay + extra_delay_ms, self._counter, packet))
            self._counter += 1
            outcome = "delivered"
        # `_value_` is the plain attribute behind `.value`, which on Python
        # 3.11 is a Python-level descriptor about four times slower to read;
        # the engine reads it the same way on its other per-record paths
        return {"src": packet.src, "dst": packet.dst, "packet_kind": packet.kind._value_,
                "seq": packet.seq, "condition": cond._value_,
                "outcome": outcome, "delay_ms": delay}

    def deliveries_due(self, now_ms: float) -> list[Packet]:
        """Pop all packets whose delivery time has arrived, in order."""
        out = []
        while self.in_flight and self.in_flight[0][0] <= now_ms:
            _, _, pkt = heapq.heappop(self.in_flight)
            out.append(pkt)
        return out
