"""An http_load-like HTTP benchmark client.

Reproduces the paper's configuration: "http_load was configured to use at
most one connection at a time with an unlimited rate for 30 s", and its
three reported metrics (Table 1):

* **fetches/s** — completed page fetches per second,
* **ms/connect** — time to complete the TCP three-way handshake,
* **ms/first-response** — time from connection start to the first
  response byte.

(The real http_load reports first-response from request send; measuring
from connection start as we do includes the connect time, which only
shifts both columns by a shared constant — the rule-depth *trend* the
paper shows is unchanged.  The per-fetch transfer must complete before
the next connection opens, like the real tool with ``-parallel 1``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.metrics import mean
from repro.host.host import Host
from repro.net.addresses import Ipv4Address
from repro.obs.registry import LATENCY_MS_BUCKETS


@dataclass
class FetchRecord:
    """Timing of one page fetch."""

    started_at: float
    connect_time: Optional[float] = None
    first_response_time: Optional[float] = None
    completed_at: Optional[float] = None
    bytes_received: int = 0
    failed: bool = False

    @property
    def succeeded(self) -> bool:
        """True for a completed fetch."""
        return self.completed_at is not None and not self.failed


@dataclass
class HttpLoadResult:
    """Aggregate of one http_load run."""

    duration: float
    fetches: List[FetchRecord] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Number of successful fetches."""
        return sum(1 for fetch in self.fetches if fetch.succeeded)

    @property
    def failures(self) -> int:
        """Number of failed fetch attempts."""
        return sum(1 for fetch in self.fetches if fetch.failed)

    @property
    def fetches_per_second(self) -> float:
        """Successful fetches per second."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_connect_ms(self) -> float:
        """Mean TCP connect latency in milliseconds."""
        samples = [f.connect_time for f in self.fetches if f.connect_time is not None]
        return mean(samples) * 1e3

    @property
    def mean_first_response_ms(self) -> float:
        """Mean time-to-first-response-byte in milliseconds."""
        samples = [
            f.first_response_time for f in self.fetches if f.first_response_time is not None
        ]
        return mean(samples) * 1e3


class HttpLoadSession:
    """One running http_load measurement (single connection at a time)."""

    profile_category = "app.http_load"

    def __init__(
        self,
        host: Host,
        server_ip: Ipv4Address,
        port: int,
        path: str,
        duration: float,
    ):
        self.host = host
        self.sim = host.sim
        self.server_ip = server_ip
        self.port = port
        self.path = path
        self.duration = duration
        self.started_at = self.sim.now
        self.deadline = self.started_at + duration
        self.result_data = HttpLoadResult(duration=duration)
        self.finished = False
        # Fetch completion/failure is a cold path (one event per page),
        # so direct instruments are fine here.
        metrics = self.sim.metrics
        self._fetch_metric = metrics.counter("app_http_fetches", app="http_load", outcome="completed")
        self._failure_metric = metrics.counter("app_http_fetches", app="http_load", outcome="failed")
        self._bytes_metric = metrics.counter("app_bytes_delivered", app="http_load", transport="tcp")
        self._connect_latency = metrics.histogram(
            "app_connect_latency_ms", buckets=LATENCY_MS_BUCKETS, app="http_load"
        )
        self._first_response_latency = metrics.histogram(
            "app_first_response_latency_ms", buckets=LATENCY_MS_BUCKETS, app="http_load"
        )
        self.sim.schedule(duration, self._finish)
        self._begin_fetch()

    # ------------------------------------------------------------------

    def _begin_fetch(self) -> None:
        if self.finished or self.sim.now >= self.deadline:
            return
        record = FetchRecord(started_at=self.sim.now)
        self.result_data.fetches.append(record)
        connection = self.host.tcp.connect(self.server_ip, self.port)
        state = {"header": bytearray(), "total": 0, "expect": None}

        def on_connected(conn) -> None:
            record.connect_time = self.sim.now - record.started_at
            self._connect_latency.observe(record.connect_time * 1e3)
            request = (
                f"GET {self.path} HTTP/1.0\r\n"
                f"Host: {self.server_ip}\r\n"
                f"User-Agent: http_load-sim\r\n"
                f"\r\n"
            ).encode("ascii")
            conn.send(len(request), request)

        def on_data(conn, data: bytes, size: int) -> None:
            if size and record.first_response_time is None:
                record.first_response_time = self.sim.now - record.started_at
                self._first_response_latency.observe(record.first_response_time * 1e3)
            state["header"].extend(data)
            state["total"] += size
            if state["expect"] is None:
                header = bytes(state["header"])
                end = header.find(b"\r\n\r\n")
                if end >= 0:
                    state["expect"] = end + 4 + _content_length(header[:end])
            if state["expect"] is not None and state["total"] >= state["expect"]:
                record.bytes_received = state["total"]
                record.completed_at = self.sim.now
                self._fetch_metric.inc()
                self._bytes_metric.inc(state["total"])
                conn.on_data = None
                conn.on_closed = None
                conn.close()
                self._begin_fetch()

        def on_failed(conn) -> None:
            # Refused, reset mid-transfer, or handshake timeout: count the
            # failure and keep trying (http_load presses on).
            if record.completed_at is None and not record.failed:
                record.failed = True
                self._failure_metric.inc()
            self._begin_fetch()

        connection.on_connected = on_connected
        connection.on_data = on_data
        connection.on_refused = on_failed
        connection.on_closed = on_failed

    def _finish(self) -> None:
        self.finished = True

    def result(self) -> HttpLoadResult:
        """The run's aggregate metrics (valid once the window elapsed)."""
        if not self.finished:
            raise RuntimeError("http_load window has not elapsed yet")
        return self.result_data


class HttpLoadClient:
    """Factory for http_load sessions from a client host."""

    profile_category = "app.http_load"

    def __init__(self, host: Host):
        self.host = host

    def start(
        self,
        server_ip: Ipv4Address,
        port: int = 80,
        path: str = "/",
        duration: float = 30.0,
    ) -> HttpLoadSession:
        """Begin fetching ``path`` repeatedly for ``duration`` seconds."""
        return HttpLoadSession(self.host, server_ip, port, path, duration)


def _content_length(header: bytes) -> int:
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            try:
                return int(line.split(b":", 1)[1].strip())
            except ValueError:
                return 0
    return 0
