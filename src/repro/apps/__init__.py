"""Measurement and attack applications.

Re-implementations of the tools the paper's methodology is built from:
iperf (bandwidth), http_load + Apache (application performance), and the
raw packet-flood generator (the attacker).
"""

from repro import _lazy

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

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".flood": ("FloodGenerator", "FloodKind", "FloodSpec"),
    ".http_load": ("FetchRecord", "HttpLoadClient", "HttpLoadResult", "HttpLoadSession"),
    ".httpd": ("DEFAULT_PAGE_SIZE", "HttpServer"),
    ".iperf": (
        "DEFAULT_PORT",
        "IperfClient",
        "IperfResult",
        "IperfServer",
        "TcpIperfSession",
        "UdpIperfSession",
    ),
})
