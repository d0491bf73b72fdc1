"""Measurement and attack applications.

Re-implementations of the tools the paper's methodology is built from:
iperf (bandwidth), http_load + Apache (application performance), and the
raw packet-flood generator (the attacker).
"""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import (
    FetchRecord,
    HttpLoadClient,
    HttpLoadResult,
    HttpLoadSession,
)
from repro.apps.httpd import DEFAULT_PAGE_SIZE, HttpServer
from repro.apps.iperf import (
    DEFAULT_PORT,
    IperfClient,
    IperfResult,
    IperfServer,
    TcpIperfSession,
    UdpIperfSession,
)

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PORT",
    "FetchRecord",
    "FloodGenerator",
    "FloodKind",
    "FloodSpec",
    "HttpLoadClient",
    "HttpLoadResult",
    "HttpLoadSession",
    "HttpServer",
    "IperfClient",
    "IperfResult",
    "IperfServer",
    "TcpIperfSession",
    "UdpIperfSession",
]
