"""Mesh NoC latency and traffic model.

A 2-stage wormhole-routed mesh (paper Table 4): each hop costs router
pipeline cycles plus link traversal, and sustained load adds a congestion
term.  The model is analytic rather than flit-accurate — what the paper's
experiments need from the NoC is (i) NUCA latency that grows with core
count and (ii) the ~20-cycle average slice→predictor penalty of Figure 11
when Drishti's messages ride the existing mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.interconnect.topology import MeshTopology


@dataclass
class NoCStats:
    """Aggregate mesh traffic counters."""

    messages: int = 0
    total_hops: int = 0
    total_latency: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0


class MeshNoC:
    """Latency model over a :class:`MeshTopology`.

    Args:
        num_nodes: mesh size (== cores == LLC slices in the baseline).
        router_cycles: per-hop router pipeline latency (2-stage wormhole).
        link_cycles: per-hop link traversal latency.
        injection_cycles: fixed NI inject+eject cost per message.
        congestion_per_node: extra cycles per hop per unit of normalised
            load, a first-order contention term that grows with core count.
    """

    def __init__(self, num_nodes: int, router_cycles: int = 2,
                 link_cycles: int = 1, injection_cycles: int = 2,
                 congestion_per_node: float = 0.06):
        self.topology = MeshTopology(num_nodes)
        self.router_cycles = router_cycles
        self.link_cycles = link_cycles
        self.injection_cycles = injection_cycles
        self.congestion_per_node = congestion_per_node
        self.stats = NoCStats()
        # (hops, latency) per (src, dst), tabled once from the formulas
        # below; a dict, so an out-of-range node is a miss, not a wrap.
        nodes = range(num_nodes)
        self._routes: Dict[Tuple[int, int], Tuple[int, int]] = {
            (src, dst): (self.topology.hops(src, dst),
                         self._contended_latency(src, dst))
            for src in nodes for dst in nodes}

    def base_latency(self, src: int, dst: int) -> int:
        """Uncontended latency from *src* to *dst* in cycles."""
        hops = self.topology.hops(src, dst)
        if hops == 0:
            return self.injection_cycles
        return self.injection_cycles + hops * (self.router_cycles +
                                               self.link_cycles)

    def _contended_latency(self, src: int, dst: int) -> int:
        """:meth:`base_latency` plus the first-order congestion term."""
        hops = self.topology.hops(src, dst)
        congestion = int(round(hops * self.congestion_per_node *
                               self.topology.num_nodes))
        return self.base_latency(src, dst) + congestion

    def latency(self, src: int, dst: int, traffic_class: str = "data") -> int:
        """Latency with the first-order congestion term; counts traffic."""
        try:
            hops, lat = self._routes[src, dst]
        except KeyError:
            # Raises the topology's ValueError for the bad node.
            self.topology.hops(src, dst)
            raise
        stats = self.stats
        stats.messages += 1
        stats.total_hops += hops
        stats.total_latency += lat
        by_class = stats.by_class
        by_class[traffic_class] = by_class.get(traffic_class, 0) + 1
        return lat

    def average_latency_estimate(self) -> float:
        """Expected latency of a random src→dst message (no counting)."""
        avg_hops = self.topology.average_hops()
        per_hop = (self.router_cycles + self.link_cycles +
                   self.congestion_per_node * self.topology.num_nodes)
        return self.injection_cycles + avg_hops * per_hop

    def publish_stats(self, registry, prefix: str = "noc") -> None:
        """Register this mesh's counters with a ``StatsRegistry``.

        Sources read through ``self`` so the stats object swapped in by
        :meth:`reset_stats` is always the one observed.
        """
        registry.register_many(prefix, self,
                               ["messages", "total_hops", "total_latency"])
        registry.register(f"{prefix}.avg_latency",
                          lambda: self.stats.average_latency)
        registry.register(f"{prefix}.avg_hops",
                          lambda: self.stats.average_hops)

    def reset_stats(self) -> None:
        self.stats = NoCStats()

    def __repr__(self) -> str:
        return f"MeshNoC({self.topology.num_nodes} nodes)"
