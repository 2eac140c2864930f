"""Tests for the mesh topology and NoC latency model."""

import pytest

from repro.interconnect.mesh import MeshNoC
from repro.interconnect.topology import MeshTopology


class TestTopology:
    def test_grid_shape(self):
        t = MeshTopology(16)
        assert (t.rows, t.cols) == (4, 4)

    def test_non_square_count(self):
        t = MeshTopology(12)
        assert t.rows * t.cols >= 12

    def test_coordinates_row_major(self):
        t = MeshTopology(16)
        assert t.coordinates(0) == (0, 0)
        assert t.coordinates(5) == (1, 1)

    def test_hops_manhattan(self):
        t = MeshTopology(16)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 5) == 2
        assert t.hops(0, 15) == 6

    def test_hops_symmetric(self):
        t = MeshTopology(16)
        for a in range(16):
            for b in range(16):
                assert t.hops(a, b) == t.hops(b, a)

    def test_route_endpoints_and_length(self):
        t = MeshTopology(16)
        route = t.route(0, 15)
        assert route[0] == 0
        assert route[-1] == 15
        assert len(route) == t.hops(0, 15) + 1

    def test_route_xy_goes_x_first(self):
        t = MeshTopology(16)
        route = t.route(0, 5)  # (0,0) -> (1,1)
        assert route == [0, 1, 5]

    def test_average_hops_grows_with_size(self):
        assert MeshTopology(4).average_hops() < \
            MeshTopology(16).average_hops() < \
            MeshTopology(64).average_hops()

    def test_single_node(self):
        t = MeshTopology(1)
        assert t.average_hops() == 0.0

    def test_bad_node(self):
        with pytest.raises(ValueError):
            MeshTopology(4).coordinates(4)


class TestMeshNoC:
    def test_latency_zero_hop_is_injection_only(self):
        noc = MeshNoC(16)
        assert noc.latency(3, 3) == noc.injection_cycles

    def test_latency_monotonic_in_distance(self):
        noc = MeshNoC(16)
        assert noc.latency(0, 1) < noc.latency(0, 15)

    def test_congestion_grows_with_node_count(self):
        small = MeshNoC(4)
        big = MeshNoC(64)
        # Same 1-hop trip is more expensive on a bigger, busier mesh.
        assert big.latency(0, 1) >= small.latency(0, 1)

    def test_32_core_average_near_paper_20_cycles(self):
        """The paper observed ~20-cycle average latency at 32 cores."""
        noc = MeshNoC(32)
        avg = noc.average_latency_estimate()
        assert 14 <= avg <= 26

    def test_stats_counting(self):
        noc = MeshNoC(16)
        noc.latency(0, 5, traffic_class="llc")
        noc.latency(0, 5, traffic_class="predictor")
        assert noc.stats.messages == 2
        assert noc.stats.by_class == {"llc": 1, "predictor": 1}

    def test_reset_stats(self):
        noc = MeshNoC(16)
        noc.latency(0, 1)
        noc.reset_stats()
        assert noc.stats.messages == 0

    def test_average_latency_stat(self):
        noc = MeshNoC(16)
        a = noc.latency(0, 1)
        b = noc.latency(0, 15)
        assert noc.stats.average_latency == pytest.approx((a + b) / 2)


class TestMeshRouteTable:
    """``MeshNoC.latency`` reads a per-(src, dst) table built at
    construction; it must match the closed-form model exactly and keep
    rejecting nodes outside the mesh."""

    @pytest.mark.parametrize("n", range(1, 34))
    def test_every_entry_matches_the_formula(self, n):
        noc = MeshNoC(n)
        for src in range(n):
            for dst in range(n):
                hops = noc.topology.hops(src, dst)
                congestion = int(round(hops * noc.congestion_per_node * n))
                expected = noc.base_latency(src, dst) + congestion
                before = noc.stats.total_hops
                assert noc.latency(src, dst) == expected
                assert noc.stats.total_hops - before == hops
        assert noc.stats.messages == n * n

    @pytest.mark.parametrize("n", [6, 12, 24])
    def test_non_square_meshes_use_their_grid(self, n):
        noc = MeshNoC(n, router_cycles=3, link_cycles=2,
                      injection_cycles=1, congestion_per_node=0.1)
        topo = noc.topology
        assert topo.cols * topo.cols != n  # not a square grid
        last = n - 1
        (r1, c1), (r2, c2) = topo.coordinates(0), topo.coordinates(last)
        hops = abs(r1 - r2) + abs(c1 - c2)
        assert noc.latency(0, last) == (1 + hops * 5
                                        + int(round(hops * 0.1 * n)))

    @pytest.mark.parametrize("src,dst", [(-1, 0), (0, -1), (16, 0),
                                         (0, 16), (-16, 0)])
    def test_out_of_range_node_raises(self, src, dst):
        noc = MeshNoC(16)
        with pytest.raises(ValueError):
            noc.latency(src, dst)
        assert noc.stats.messages == 0
