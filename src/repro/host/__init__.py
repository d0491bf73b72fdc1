"""End-host protocol stack: IP, ICMP, UDP and TCP over a NIC.

The stack is deliberately sized to what the paper's measurement tools
exercise: TCP bulk transfer and connection setup/teardown (iperf,
http_load/Apache), UDP datagrams (iperf UDP, flood), and ICMP (echo and
the port-unreachable errors that answer UDP floods).
"""

from repro.host.host import Host
from repro.host.icmp import IcmpLayer
from repro.host.ip import IpLayer
from repro.host.tcp import (
    MSS,
    ReceiveBuffer,
    SendBuffer,
    TcpConnection,
    TcpListener,
    TcpManager,
    TcpState,
)
from repro.host.udp import UdpManager, UdpSocket

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
