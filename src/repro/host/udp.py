"""UDP sockets.

Datagrams to an unbound port elicit an ICMP port-unreachable — the UDP
analogue of the TCP RST, and the other source of the response traffic
that loads the firewall NIC's transmit path during an "allowed" flood.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.addresses import Ipv4Address
from repro.net.packet import Ipv4Packet, UdpDatagram

#: Handler signature: (source_ip, source_port, size, data).
DatagramHandler = Callable[[Ipv4Address, int, int, bytes], None]


class UdpSocket:
    """A bound UDP port."""

    profile_category = "host.udp"

    def __init__(self, manager: "UdpManager", port: int, handler: Optional[DatagramHandler]):
        self.manager = manager
        self.port = port
        self.handler = handler
        self.datagrams_received = 0
        self.bytes_received = 0

    def send(self, dst_ip: Ipv4Address, dst_port: int, size: int, data: bytes = b"") -> None:
        """Send a datagram with ``size`` payload bytes (``data`` real)."""
        self.manager.send_from(self.port, dst_ip, dst_port, size, data)

    def close(self) -> None:
        """Unbind the port."""
        self.manager.unbind(self.port)

    def _deliver(self, src_ip: Ipv4Address, src_port: int, size: int, data: bytes) -> None:
        self.datagrams_received += 1
        self.bytes_received += size
        if self.handler is not None:
            self.handler(src_ip, src_port, size, data)


class UdpManager:
    """Per-host UDP: port binding and demultiplexing."""

    EPHEMERAL_BASE = 32768

    profile_category = "host.udp"

    def __init__(self, host) -> None:
        self.host = host
        self._sockets: Dict[int, UdpSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.datagrams_received = 0
        self.unreachable_sent = 0

    def bind(self, port: int, handler: Optional[DatagramHandler] = None) -> UdpSocket:
        """Bind ``port`` (0 allocates an ephemeral port)."""
        if port == 0:
            port = self._allocate_port()
        if port in self._sockets:
            raise RuntimeError(f"UDP port {port} already bound")
        socket = UdpSocket(self, port, handler)
        self._sockets[port] = socket
        return socket

    def unbind(self, port: int) -> None:
        """Release a bound port.  Idempotent."""
        self._sockets.pop(port, None)

    def send_from(
        self,
        src_port: int,
        dst_ip: Ipv4Address,
        dst_port: int,
        size: int,
        data: bytes = b"",
    ) -> None:
        """Emit a datagram from a bound source port."""
        datagram = UdpDatagram(
            src_port=src_port, dst_port=dst_port, payload_size=size, data=data
        )
        self.host.ip_layer.send(dst_ip, datagram)

    def datagram_arrived(self, packet: Ipv4Packet) -> None:
        """Demultiplex an inbound datagram."""
        datagram = packet.payload
        if type(datagram) is not UdpDatagram:
            return
        self.datagrams_received += 1
        socket = self._sockets.get(datagram.dst_port)
        if socket is None:
            self.unreachable_sent += 1
            self.host.icmp.send_port_unreachable(packet)
            return
        socket._deliver(packet.src, datagram.src_port, datagram.payload_size, datagram.data)

    def _allocate_port(self) -> int:
        for _ in range(0xFFFF - self.EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self._sockets:
                return port
        raise RuntimeError("UDP ephemeral port space exhausted")
