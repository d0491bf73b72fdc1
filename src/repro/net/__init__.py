"""Layer-1/2 network substrate: addresses, packets, links and switches.

This package models the physical testbed of the paper's Figure 1, a
100 Mbps switched Ethernet segment connecting four hosts, and the
multi-switch fleet fabric it is the smallest case of.  It provides

* :mod:`~repro.net.addresses` -- MAC and IPv4 address value types,
* :mod:`~repro.net.packet` -- Ethernet/IPv4/TCP/UDP/ICMP packet model with
  exact wire sizes and binary (de)serialization,
* :mod:`~repro.net.checksum` -- the Internet checksum,
* :mod:`~repro.net.link` -- full-duplex point-to-point links with
  serialization and propagation delay and bounded transmit queues,
* :mod:`~repro.net.switch` -- a store-and-forward learning switch,
* :mod:`~repro.net.topology` -- the spine/leaf fabric builder, whose
  ``leaf_count=0`` case is the single-switch segment,
* :mod:`~repro.net.capture` -- packet capture taps for tests and debugging.
"""

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.capture import CaptureTap
from repro.net.link import Link, LinkPort
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ArpMessage,
    ArpOp,
    EthernetFrame,
    IcmpMessage,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)
from repro.net.switch import EthernetSwitch
from repro.net.topology import FabricTopology

__all__ = [
    "BROADCAST_MAC",
    "ArpMessage",
    "ArpOp",
    "CaptureTap",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "EthernetFrame",
    "EthernetSwitch",
    "FabricTopology",
    "IcmpMessage",
    "IpProtocol",
    "Ipv4Address",
    "Ipv4Packet",
    "Link",
    "LinkPort",
    "MacAddress",
    "RawPayload",
    "TcpFlags",
    "TcpSegment",
    "UdpDatagram",
]
