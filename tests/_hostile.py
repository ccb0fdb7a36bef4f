"""A hostile link for engine tests: `DuplicatingChannel` delivers some of
the packets that `Channel` delivers a second time, and late, so that a
duplicate can also arrive after packets sent later than it.

Swap it in for `wardsim.engine.Channel` (with pytest's monkeypatch, say),
through `functools.partial` to give it settings other than the defaults. Its
own draws come from its own `random.Random(seed)`, so the engine's named
streams, and every send's outcome and delay, stay those of an unswapped run.
"""

import heapq
import random

from wardsim.rf_channel import Channel

DUPLICATE_P = 0.2        # the share of delivered packets delivered again
DUPLICATE_LATE_MS = 300  # a duplicate arrives up to this long after the packet


class DuplicatingChannel(Channel):
    """Delivers each delivered packet again with probability `duplicate_p`,
    uniformly 0 to `late_ms` after the packet itself; a window of 0 delivers
    the duplicate on the same tick as the packet."""

    def __init__(self, *args, duplicate_p=DUPLICATE_P, late_ms=DUPLICATE_LATE_MS, seed=0,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.duplicate_p, self.late_ms = duplicate_p, late_ms
        self._hostile = random.Random(seed)
        self.duplicated = 0

    def send(self, packet, extra_delay_ms=0.0):
        sent = super().send(packet, extra_delay_ms)
        if sent["outcome"] == "delivered" and self._hostile.random() < self.duplicate_p:
            due = (packet.sent_at + sent["delay_ms"] + extra_delay_ms
                   + self._hostile.uniform(0.0, self.late_ms))
            heapq.heappush(self.in_flight, (due, self._counter, packet))
            self._counter += 1
            self.duplicated += 1
        return sent
