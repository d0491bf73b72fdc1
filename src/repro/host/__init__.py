"""End-host protocol stack: IP, ICMP, UDP and TCP over a NIC.

The stack is deliberately sized to what the paper's measurement tools
exercise: TCP bulk transfer and connection setup/teardown (iperf,
http_load/Apache), UDP datagrams (iperf UDP, flood), and ICMP (echo and
the port-unreachable errors that answer UDP floods).
"""

from repro import _lazy

__all__ = [
    "Host",
    "IcmpLayer",
    "IpLayer",
    "MSS",
    "ReceiveBuffer",
    "SendBuffer",
    "TcpConnection",
    "TcpListener",
    "TcpManager",
    "TcpState",
    "UdpManager",
    "UdpSocket",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".host": ("Host",),
    ".icmp": ("IcmpLayer",),
    ".ip": ("IpLayer",),
    ".tcp": (
        "MSS",
        "ReceiveBuffer",
        "SendBuffer",
        "TcpConnection",
        "TcpListener",
        "TcpManager",
        "TcpState",
    ),
    ".udp": ("UdpManager", "UdpSocket"),
})
