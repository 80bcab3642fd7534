"""Geometric multi-hop radio topology for sensor networks.

The paper's cost model notes that "the depth of a sensor in a
multi-hop network affects the cost of connecting the sensor"
(Section 2.3). This module derives those depths from geometry instead
of hand-assigning them: motes within ``radio_range`` of each other (or
of the base station) form links, and a mote's hop depth is its
shortest-path distance from the base station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import networkx as nx

from repro.errors import CommunicationError
from repro.geometry import Point
from repro.devices.sensor import SensorMote

#: Node name of the base station in the connectivity graph.
BASE_STATION = "__base__"


@dataclass
class RadioTopology:
    """A base station plus the geometric connectivity it induces."""

    base_station: Point
    radio_range: float

    def __post_init__(self) -> None:
        if self.radio_range <= 0:
            raise CommunicationError("radio_range must be positive")

    def connectivity_graph(
        self, positions: Mapping[str, Point]
    ) -> "nx.Graph":
        """The unit-disk graph over motes and the base station."""
        graph = nx.Graph()
        graph.add_node(BASE_STATION, location=self.base_station)
        for node, location in positions.items():
            if node == BASE_STATION:
                raise CommunicationError(
                    f"mote id {BASE_STATION!r} is reserved")
            graph.add_node(node, location=location)
        nodes = list(graph.nodes(data="location"))
        for i, (a, loc_a) in enumerate(nodes):
            for b, loc_b in nodes[i + 1:]:
                if loc_a.distance_to(loc_b) <= self.radio_range:
                    graph.add_edge(a, b)
        return graph

    def hop_depths(
        self, positions: Mapping[str, Point]
    ) -> Dict[str, Optional[int]]:
        """Shortest-path hop count to the base per mote.

        Motes with no multi-hop route to the base station map to
        ``None`` — they are unreachable and should be excluded from the
        network (or flagged for redeployment).
        """
        graph = self.connectivity_graph(positions)
        lengths = nx.single_source_shortest_path_length(graph, BASE_STATION)
        return {node: lengths.get(node)
                for node in positions}

    def reachable(self, positions: Mapping[str, Point]) -> List[str]:
        """Mote ids with a route to the base station."""
        depths = self.hop_depths(positions)
        return [node for node, depth in depths.items() if depth is not None]

    def assign_hop_depths(self, motes: List[SensorMote]) -> List[SensorMote]:
        """Set every reachable mote's ``hop_depth`` from the topology.

        Returns the unreachable motes (left untouched) so the caller
        can take them offline or reposition them.
        """
        positions = {mote.device_id: mote.location for mote in motes}
        depths = self.hop_depths(positions)
        unreachable = []
        for mote in motes:
            depth = depths[mote.device_id]
            if depth is None:
                unreachable.append(mote)
            else:
                mote.hop_depth = max(depth, 1)
        return unreachable
