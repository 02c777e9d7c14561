"""Simulated client<->server network channel.

The partition optimizer's objective includes network transfer cost, and
the demo UI lets users "simulate different network latencies".  This
module provides that knob: a deterministic channel with configurable
round-trip latency and bandwidth that *accounts* time on a virtual clock
rather than sleeping, so benchmarks run fast yet report realistic
latencies.
"""

from collections import deque
from dataclasses import dataclass

from repro.metrics import NULL
from repro.net.payload import request_bytes
from repro.telemetry.tracer import NOOP

#: default per-transfer log capacity; aggregates stay exact past it
DEFAULT_LOG_CAPACITY = 256

#: the virtual clock's tick.  Charged times are whole ticks, so sums and
#: differences of them are exact in any order (below 2**13 seconds) and a
#: round trip's cost can be split over its statements without remainder.
TICKS_PER_SECOND = 2.0 ** 40


@dataclass
class TransferRecord:
    """One logged round trip."""

    request_bytes: int
    response_bytes: int
    seconds: float
    label: str = ""


class NetworkStats:
    """Aggregate traffic counters for a channel.

    Counters (``round_trips``, ``bytes_*``, ``seconds``) are exact over
    the channel's whole lifetime; ``log`` is a bounded ring buffer of the
    most recent :class:`TransferRecord` entries (old sessions grew it
    without bound — one record per round trip, forever), with
    ``log_dropped`` counting records the ring has discarded.
    """

    def __init__(self, log_capacity=DEFAULT_LOG_CAPACITY):
        if log_capacity <= 0:
            raise ValueError("log_capacity must be positive")
        self.round_trips = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.seconds = 0.0
        self.log_capacity = log_capacity
        self.log = deque(maxlen=log_capacity)
        self.log_dropped = 0

    def record(self, record):
        """Append to the ring, tracking how many records fell off."""
        if len(self.log) == self.log.maxlen:
            self.log_dropped += 1
        self.log.append(record)

    def as_dict(self):
        return {
            "round_trips": self.round_trips,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "seconds": self.seconds,
            "log_entries": len(self.log),
            "log_capacity": self.log_capacity,
            "log_dropped": self.log_dropped,
        }


class NetworkChannel:
    """A latency/bandwidth model for the client-server link.

    ``latency_ms`` is the one-way latency; a round trip costs twice that
    plus serialization time at ``bandwidth_mbps`` (megaBITS per second,
    matching how link speeds are usually quoted).  ``log_capacity``
    bounds the per-transfer log (aggregate counters stay exact).
    """

    def __init__(self, latency_ms=20.0, bandwidth_mbps=100.0,
                 log_capacity=DEFAULT_LOG_CAPACITY):
        if latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be > 0")
        self.latency_ms = float(latency_ms)
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.log_capacity = log_capacity
        self.stats = NetworkStats(log_capacity=log_capacity)
        #: telemetry sink; the session installs its tracer here
        self.tracer = NOOP
        #: always-on plane; the session installs its labeled MetricsView
        self.metrics = NULL

    @property
    def bytes_per_second(self):
        return self.bandwidth_mbps * 1e6 / 8.0

    def transfer_seconds(self, payload_bytes):
        """Pure cost function: time to move ``payload_bytes`` one way,
        excluding latency.  Used by the planner's cost model."""
        return payload_bytes / self.bytes_per_second

    def round_trip_seconds(self, request_bytes, response_bytes):
        """Cost of one request/response exchange."""
        return (
            2.0 * self.latency_ms / 1000.0
            + self.transfer_seconds(request_bytes)
            + self.transfer_seconds(response_bytes)
        )

    def charged(self, seconds):
        """``seconds`` as the virtual clock counts it: in whole ticks."""
        return round(seconds * TICKS_PER_SECOND) / TICKS_PER_SECOND

    def request(self, request_bytes, response_bytes, label="", **attributes):
        """Account one round trip on the virtual clock; returns seconds.
        ``attributes`` go on the ``net.transfer`` span."""
        seconds = self.charged(
            self.round_trip_seconds(request_bytes, response_bytes))
        self.stats.round_trips += 1
        self.stats.bytes_sent += int(request_bytes)
        self.stats.bytes_received += int(response_bytes)
        self.stats.seconds += seconds
        self.stats.record(
            TransferRecord(
                request_bytes=int(request_bytes),
                response_bytes=int(response_bytes),
                seconds=seconds,
                label=label,
            )
        )
        if self.tracer.enabled:
            # Virtual time: the span's duration is the modeled seconds.
            self.tracer.measured_span(
                "net.transfer", seconds,
                label=label, request_bytes=int(request_bytes),
                response_bytes=int(response_bytes), virtual_seconds=seconds,
                **attributes
            )
        if self.metrics.enabled:
            self.metrics.inc("net.round_trips")
            self.metrics.inc("net.bytes_sent", int(request_bytes))
            self.metrics.inc("net.bytes_received", int(response_bytes))
            self.metrics.observe("net.round_trip_seconds", seconds)
        return seconds

    def reset(self):
        self.stats = NetworkStats(log_capacity=self.log_capacity)

    def __repr__(self):
        return "NetworkChannel(latency_ms={}, bandwidth_mbps={})".format(
            self.latency_ms, self.bandwidth_mbps
        )


class Exchange:
    """One interaction's server work crossing the link as one request.

    Every program a run hands to the server joins the exchange (``sinks``
    names who sent it) and every batch coming back is noted in
    ``responses``; :meth:`close` then charges the link once — one
    latency, however many statements and sinks took part.
    """

    __slots__ = ("channel", "programs", "sinks", "responses")

    def __init__(self, channel):
        self.channel = channel
        #: serialised programs, in the order they joined
        self.programs = []
        self.sinks = []
        #: wire bytes of each result batch of the response
        self.responses = []

    def close(self, label=""):
        """Charge the round trip; returns the seconds each response
        carries — the transfer time of its own bytes, the first also the
        latency and the request — which add up to the charge exactly."""
        channel = self.channel
        seconds = channel.request(
            request_bytes("".join(self.programs)), sum(self.responses),
            label=label, statements=len(self.responses),
            sinks=",".join(self.sinks),
        )
        shares = [channel.charged(channel.transfer_seconds(size))
                  for size in self.responses]
        shares[0] = seconds - sum(shares[1:])
        return shares
