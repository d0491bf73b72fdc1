"""The switched fabric every testbed runs on.

:class:`FabricTopology` builds a loop-free multi-switch fabric (a chain
of spine switches with leaf switches hanging off it — one spine and it
is a two-level tree, several and it is a spine-chain/leaf fabric) with
inter-switch trunk links that can run at a different bandwidth than the
station access links, and hands back the station-side
:class:`~repro.net.link.LinkPort` of each access link for a NIC to attach
to.  The paper's testbed, four hosts on a single 100 Mbps switch, is its
smallest case: ``leaf_count=0``.

MAC learning on every switch makes any-to-any forwarding work without
configuration; for 200+-host fabrics
:meth:`FabricTopology.prime_mac_tables` pre-installs the learning tables
so the first frame between every host pair does not flood the whole
tree.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.link import Link, LinkPort
from repro.net.switch import EthernetSwitch
from repro.sim import units
from repro.sim.engine import Simulator

#: Default inter-switch trunk bandwidth (gigabit uplinks, as a
#: SuperStack-class wiring closet would use).
DEFAULT_TRUNK_BPS = units.gbps(1)


class FabricTopology:
    """A loop-free switched fabric, from one switch to a spine/leaf fleet.

    Layout: ``spine_count`` spine switches joined in a chain by trunk
    links, with ``leaf_count`` leaf switches distributed round-robin
    across the spines (leaf *j* uplinks to spine *j mod spine_count*).
    Stations attach to leaves round-robin (or to an explicit ``leaf=``).
    The graph is a tree, so MAC learning converges without a spanning
    tree protocol and broadcasts cannot loop.

    ``leaf_count=0`` is the **degenerate star** of the paper's Figure 1:
    stations attach straight to the one switch, named ``<name>.switch``
    (the fabric tests pin its frame timings).

    Parameters
    ----------
    sim:
        Simulation kernel.
    leaf_count, spine_count:
        Fabric shape.  ``leaf_count=0`` requires ``spine_count=1``.
    bandwidth_bps, propagation_delay, queue_capacity:
        Station access-link parameters (defaults match the paper's
        100 Mbps segments).
    trunk_bandwidth_bps, trunk_propagation_delay, trunk_queue_capacity:
        Inter-switch trunk parameters.  Defaults: gigabit trunks, the
        access propagation delay, and 4x the access queue bound (trunks
        aggregate many stations).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "fabric",
        *,
        leaf_count: int = 4,
        spine_count: int = 1,
        bandwidth_bps: float = units.FAST_ETHERNET_BPS,
        propagation_delay: float = units.microseconds(0.5),
        queue_capacity: int = 128,
        trunk_bandwidth_bps: Optional[float] = None,
        trunk_propagation_delay: Optional[float] = None,
        trunk_queue_capacity: Optional[int] = None,
    ):
        if spine_count < 1:
            raise ValueError(f"spine_count must be >= 1, got {spine_count}")
        if leaf_count < 0:
            raise ValueError(f"leaf_count must be >= 0, got {leaf_count}")
        if leaf_count == 0 and spine_count != 1:
            raise ValueError("a degenerate fabric (leaf_count=0) needs exactly one spine")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.queue_capacity = queue_capacity
        self.trunk_bandwidth_bps = float(
            DEFAULT_TRUNK_BPS if trunk_bandwidth_bps is None else trunk_bandwidth_bps
        )
        self.trunk_propagation_delay = float(
            self.propagation_delay if trunk_propagation_delay is None
            else trunk_propagation_delay
        )
        self.trunk_queue_capacity = (
            queue_capacity * 4 if trunk_queue_capacity is None else trunk_queue_capacity
        )
        spine_names = (
            [f"{name}.switch"] if leaf_count == 0
            else [f"{name}.spine{index}" for index in range(spine_count)]
        )
        self.spines: List[EthernetSwitch] = [
            EthernetSwitch(sim, name=switch_name)
            for switch_name in spine_names
        ]
        self.leaves: List[EthernetSwitch] = [
            EthernetSwitch(sim, name=f"{name}.leaf{index}")
            for index in range(leaf_count)
        ]
        #: Inter-switch trunk links, in creation order.
        self.trunks: List[Link] = []
        #: Station name -> access link (port_a = switch side, port_b = station).
        self.links: Dict[str, Link] = {}
        #: switch -> [(local port, neighbor switch)] trunk adjacency.
        self._graph: Dict[EthernetSwitch, List[Tuple[LinkPort, EthernetSwitch]]] = {
            switch: [] for switch in self.spines + self.leaves
        }
        #: Station name -> the switch its access link terminates on.
        self._station_switch: Dict[str, EthernetSwitch] = {}

        for left, right in zip(self.spines, self.spines[1:]):
            self._add_trunk(left, right)
        for index, leaf in enumerate(self.leaves):
            self._add_trunk(self.spines[index % spine_count], leaf)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_trunk(self, a: EthernetSwitch, b: EthernetSwitch) -> None:
        link = Link(
            self.sim,
            name=f"{self.name}.trunk.{a.name.rsplit('.', 1)[-1]}-{b.name.rsplit('.', 1)[-1]}",
            bandwidth_bps=self.trunk_bandwidth_bps,
            propagation_delay=self.trunk_propagation_delay,
            queue_capacity=self.trunk_queue_capacity,
        )
        a.attach_port(link.port_a)
        b.attach_port(link.port_b)
        self.trunks.append(link)
        self._graph[a].append((link.port_a, b))
        self._graph[b].append((link.port_b, a))

    def add_station(self, station_name: str, leaf: Optional[int] = None) -> LinkPort:
        """Create a new access segment and return the station-side port.

        ``leaf`` picks the leaf switch (round-robin over leaves by
        default; ignored on a degenerate fabric, where stations attach
        to the spine).
        """
        if station_name in self.links:
            raise ValueError(f"station {station_name!r} already exists")
        if not self.leaves:
            switch = self.spines[0]
        else:
            if leaf is None:
                leaf = len(self.links) % len(self.leaves)
            switch = self.leaves[leaf]
        link = Link(
            self.sim,
            name=f"{self.name}.{station_name}",
            bandwidth_bps=self.bandwidth_bps,
            propagation_delay=self.propagation_delay,
            queue_capacity=self.queue_capacity,
        )
        self.links[station_name] = link
        self._station_switch[station_name] = switch
        switch.attach_port(link.port_a)
        return link.port_b

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def switch(self) -> EthernetSwitch:
        """The root switch (the only one on a degenerate fabric)."""
        return self.spines[0]

    @property
    def switches(self) -> List[EthernetSwitch]:
        """Every switch in the fabric (spines first)."""
        return self.spines + self.leaves

    def link_for(self, station_name: str) -> Link:
        """The access link serving ``station_name``."""
        return self.links[station_name]

    def leaf_of(self, station_name: str) -> EthernetSwitch:
        """The switch ``station_name``'s access link terminates on."""
        return self._station_switch[station_name]

    def quarantine_station(self, station_name: str, quarantined: bool = True) -> None:
        """Block (or release) a station's access port at its home switch.

        The mitigation controller's switch-assisted action against an
        identified flooder: it is cut off at its own leaf, so its flood
        never crosses a trunk or contends with anyone else's traffic.
        """
        self._station_switch[station_name].quarantine_port(
            self.links[station_name].port_a, quarantined
        )

    def station_is_quarantined(self, station_name: str) -> bool:
        """True while the station's access port is blocked."""
        return self._station_switch[station_name].port_is_quarantined(
            self.links[station_name].port_a
        )

    def fail_station_port(self, station_name: str, failed: bool = True) -> None:
        """Blackhole (or repair) a station's access port at its home switch.

        The chaos-injected hardware failure
        (:class:`repro.chaos.SwitchPortFail`), independent of the
        defense quarantine state on the same port.
        """
        self._station_switch[station_name].fail_port(
            self.links[station_name].port_a, failed
        )

    def station_port_failed(self, station_name: str) -> bool:
        """True while the station's access port is blackholed."""
        return self._station_switch[station_name].port_is_failed(
            self.links[station_name].port_a
        )

    def station_names(self) -> List[str]:
        """Names of all stations, in creation order."""
        return list(self.links)

    # ------------------------------------------------------------------
    # MAC priming
    # ------------------------------------------------------------------

    def prime_mac_tables(self, stations: Dict[str, MacAddress]) -> None:
        """Pre-install every switch's learning table for ``stations``.

        ``stations`` maps station names (as passed to
        :meth:`add_station`) to their MAC addresses.  For each station,
        every switch learns the port that leads toward it along the tree
        — exactly the state MAC learning converges to, installed up
        front so a 256-host fabric does not O(hosts²)-flood its warm-up
        traffic through every trunk.
        """
        for station_name, mac in stations.items():
            home = self._station_switch[station_name]
            home.learn(mac, self.links[station_name].port_a)
            # BFS outward from the home switch; each visited switch
            # learns the trunk port pointing back toward the station.
            visited = {home}
            frontier = deque([home])
            while frontier:
                current = frontier.popleft()
                for local_port, neighbor in self._graph[current]:
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    # The port on `neighbor` that faces `current` is the
                    # far end of the same trunk link.
                    neighbor.learn(mac, local_port.peer)
                    frontier.append(neighbor)
