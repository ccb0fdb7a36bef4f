"""Channel measurements from the `packet_send` payloads that `Channel.send`
returns, each paired with its send time: the delivery ratio per link
condition and the command round trip. Both fold the pairs as `packet_send`
events through `MetricsAccumulator`, the same fold as the live and replayed
metrics."""

from wardsim.metrics import MetricsAccumulator, RunMetrics
from wardsim.rf_channel import LinkCondition


def timed_send(channel, packet, extra_delay_ms=0.0) -> tuple[float, dict]:
    """Send `packet`; return its send time and the payload `send` returns."""
    return packet.sent_at, channel.send(packet, extra_delay_ms)


def _fold(sends) -> RunMetrics:
    acc = MetricsAccumulator()
    for time_ms, payload in sends:
        acc.consume({"kind": "packet_send", "time_ms": time_ms, "payload": payload})
    return acc.result()


def measure_pdr(sends) -> dict[LinkCondition, float]:
    """Observed delivered/sent ratio per link condition bucket."""
    pdr = _fold(sends).pdr
    if not pdr:
        raise ValueError("no sends recorded; PDR undefined")
    return {LinkCondition(cond): v for cond, v in pdr.items()}


def measure_rtt(sends) -> tuple[float, float]:
    """Mean and stddev of command round trips over matched command/ack pairs.

    As in the live metrics, a delivered ack (b -> a) with sequence s pairs
    with the latest delivered command (a -> b) with sequence s before it, and
    each command pairs at most once. Unmatched commands are excluded."""
    m = _fold(sends)
    if m.rtt_mean_ms is None:
        raise ValueError("no completed command/ack pairs; RTT undefined")
    return m.rtt_mean_ms, m.rtt_std_ms
