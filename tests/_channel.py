"""Channel measurements from the records that `Channel.send` returns: the
delivery ratio per link condition and the command round trip. Both fold the
records as `packet_send` events through `MetricsAccumulator`, the same fold
as the live and replayed metrics."""

from wardsim.metrics import MetricsAccumulator, RunMetrics
from wardsim.rf_channel import LinkCondition


def _fold(records) -> RunMetrics:
    acc = MetricsAccumulator()
    for r in records:
        acc.consume({"kind": "packet_send", "time_ms": r.time_ms, "payload": r.payload()})
    return acc.result()


def measure_pdr(records) -> dict[LinkCondition, float]:
    """Observed delivered/sent ratio per link condition bucket."""
    pdr = _fold(records).pdr
    if not pdr:
        raise ValueError("no sends recorded; PDR undefined")
    return {LinkCondition(cond): v for cond, v in pdr.items()}


def measure_rtt(records) -> tuple[float, float]:
    """Mean and stddev of command round trips over matched command/ack pairs.

    As in the live metrics, a delivered ack (b -> a) with sequence s pairs
    with the latest delivered command (a -> b) with sequence s before it, and
    each command pairs at most once. Unmatched commands are excluded."""
    m = _fold(records)
    if m.rtt_mean_ms is None:
        raise ValueError("no completed command/ack pairs; RTT undefined")
    return m.rtt_mean_ms, m.rtt_std_ms
