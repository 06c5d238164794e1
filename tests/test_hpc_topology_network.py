"""Tests for topologies, the network model, and collectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc import (
    ALLREDUCE_ALGORITHMS,
    Dragonfly,
    FatTree,
    LinkSpec,
    Network,
    Ring,
    Torus,
    allgather_ring,
    allreduce_energy,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    allreduce_tree,
    make_topology,
)
from repro.hpc.collectives import _alpha_beta
from repro.hpc.topology import _torus_dims


def max_hops(topo):
    """The diameter: the most hops over all pairs."""
    n = topo.n_nodes
    return max(topo.hops(s, d) for s in range(n) for d in range(n))


class TestRing:
    def test_hops_symmetric_wraparound(self):
        r = Ring(8)
        assert r.hops(0, 1) == 1
        assert r.hops(0, 7) == 1  # wraps
        assert r.hops(0, 4) == 4
        assert r.hops(3, 3) == 0

    def test_diameter(self):
        assert max_hops(Ring(8)) == 4
        assert max_hops(Ring(9)) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Ring(4).hops(0, 4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Ring(0)

    @given(st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_hops_bounded_by_diameter(self, n):
        r = Ring(n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            s, d = rng.integers(0, n, 2)
            assert r.hops(int(s), int(d)) <= n // 2


class TestTorus:
    def test_3d_hops(self):
        t = Torus((4, 4, 4))
        assert t.n_nodes == 64
        assert t.hops(0, 1) == 1
        # Corner (3,3,3): wraparound makes it 1 hop per dimension.
        assert t.hops(0, t.n_nodes - 1) == 3
        # Center (2,2,2) = rank 42: the true farthest point, 2 per dimension.
        assert t.hops(0, 42) == 6

    def test_wraparound_per_dimension(self):
        t = Torus((8,))
        assert t.hops(0, 7) == 1

    def test_diameter(self):
        assert max_hops(Torus((4, 4, 4))) == 6

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Torus((0, 4))

    def test_torus_dims_factorization(self):
        dims = _torus_dims(64, 3)
        assert math.prod(dims) == 64
        dims = _torus_dims(100, 3)
        assert math.prod(dims) == 100

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_hops_symmetric(self, a, b):
        t = Torus((a, b))
        rng = np.random.default_rng(a * 10 + b)
        for _ in range(10):
            s, d = rng.integers(0, t.n_nodes, 2)
            assert t.hops(int(s), int(d)) == t.hops(int(d), int(s))


class TestFatTree:
    def test_hop_levels(self):
        ft = FatTree(1024, radix=16)
        assert ft.hops(0, 0) == 0
        assert ft.hops(0, 1) == 2  # same edge switch
        assert ft.hops(0, 20) == 4  # same pod
        assert ft.hops(0, 1000) == 6  # across core

    def test_diameter_small(self):
        assert max_hops(FatTree(8, radix=16)) == 2

    def test_taper_is_bisection(self):
        assert FatTree(64, taper=0.5).bisection_factor() == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTree(8, radix=1)
        with pytest.raises(ValueError):
            FatTree(8, taper=0.0)


class TestDragonfly:
    def test_intra_vs_inter_group(self):
        d = Dragonfly(128, group_size=32)
        assert d.hops(0, 5) == 2
        assert d.hops(0, 100) == 4

    def test_diameter(self):
        assert max_hops(Dragonfly(16, group_size=32)) == 2
        assert max_hops(Dragonfly(128, group_size=32)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Dragonfly(8, group_size=0)
        with pytest.raises(ValueError):
            Dragonfly(8, global_taper=1.5)


class TestMakeTopology:
    @pytest.mark.parametrize("kind", ["ring", "torus3d", "fat_tree", "dragonfly"])
    def test_factory(self, kind):
        topo = make_topology(kind, 64)
        assert topo.n_nodes == 64

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_topology("hypercube", 8)

    @pytest.mark.parametrize("kind", ["ring", "torus3d", "fat_tree", "dragonfly"])
    def test_average_hops_le_diameter(self, kind):
        topo = make_topology(kind, 32)
        assert topo.average_hops() <= max_hops(topo)


class TestNetwork:
    def test_bandwidth_roundtrip(self):
        link = LinkSpec.from_bandwidth(25e9)
        assert 1.0 / link.beta == pytest.approx(25e9)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec.from_bandwidth(0)

    def test_contention_ring_worse_than_fattree(self):
        ring_net = Network(Ring(64), LinkSpec())
        ft_net = Network(FatTree(64, taper=1.0), LinkSpec())
        assert ring_net.contention_factor() > ft_net.contention_factor()


def net(n, kind="fat_tree", bw=12.5e9):
    return Network(make_topology(kind, n), LinkSpec.from_bandwidth(bw))


class TestCollectives:
    @pytest.mark.parametrize("fn", list(ALLREDUCE_ALGORITHMS.values()))
    def test_single_rank_free(self, fn):
        assert fn(net(1), 1, 1e6) == 0.0

    @pytest.mark.parametrize("fn", list(ALLREDUCE_ALGORITHMS.values()))
    def test_zero_bytes_free(self, fn):
        assert fn(net(8), 8, 0.0) == 0.0

    @pytest.mark.parametrize("fn", list(ALLREDUCE_ALGORITHMS.values()))
    def test_monotone_in_message_size(self, fn):
        n = net(16)
        assert fn(n, 16, 1e6) < fn(n, 16, 1e8)

    @pytest.mark.parametrize("fn", list(ALLREDUCE_ALGORITHMS.values()))
    def test_validation(self, fn):
        with pytest.raises(ValueError):
            fn(net(4), 0, 1e3)
        with pytest.raises(ValueError):
            fn(net(4), 4, -1.0)

    def test_ring_wins_large_messages(self):
        """Bandwidth-optimal ring must beat tree for big buffers."""
        n = net(64)
        big = 1e9
        assert allreduce_ring(n, 64, big) < allreduce_tree(n, 64, big)

    def test_tree_wins_small_messages(self):
        """Latency-optimal algorithms must beat ring for small buffers at
        high rank counts (2(p-1) alpha vs 2 log p alpha)."""
        n = net(256)
        small = 1e3
        assert allreduce_recursive_doubling(n, 256, small) < allreduce_ring(n, 256, small)

    def test_rabenseifner_near_ring_bandwidth(self):
        """Rabenseifner's bandwidth term matches ring's; with log latency it
        should be within 2x of ring for huge messages."""
        n = net(64)
        big = 1e9
        r = allreduce_ring(n, 64, big)
        rab = allreduce_rabenseifner(n, 64, big)
        assert rab < 2 * r

    def test_crossover_exists(self):
        """Somewhere between 1KB and 1GB the best algorithm changes."""
        n = net(128)
        names = {
            min(ALLREDUCE_ALGORITHMS, key=lambda a: ALLREDUCE_ALGORITHMS[a](n, 128, s))
            for s in np.logspace(3, 9, 25)
        }
        assert len(names) >= 2

    def test_allgather_reduce_scatter_duality(self):
        """Ring allgather of n/p chunks ~ ring reduce-scatter of n bytes,
        (p-1)(alpha + (n/p) beta)."""
        n = net(16)
        full = 1.6e7
        ag = allgather_ring(n, 16, full / 16)
        alpha, beta = _alpha_beta(n)
        rs = (16 - 1) * (alpha + (full / 16) * beta)
        assert ag == pytest.approx(rs, rel=1e-9)

    def test_nonpower_of_two_penalty(self):
        n = net(64)
        t_pow = allreduce_recursive_doubling(n, 64, 1e5)
        t_odd = allreduce_recursive_doubling(n, 65, 1e5)
        assert t_odd > t_pow

    def test_energy_ring_less_than_tree_large_p(self):
        n = net(64)
        e_ring = allreduce_energy(n, 64, 1e8, "ring")
        e_tree = allreduce_energy(n, 64, 1e8, "tree")
        assert e_ring < e_tree

    def test_energy_zero_cases(self):
        n = net(8)
        assert allreduce_energy(n, 1, 1e6) == 0.0
        assert allreduce_energy(n, 8, 0.0) == 0.0

    @given(st.integers(2, 512), st.floats(1e2, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_allreduce_times_positive_property(self, p, nbytes):
        n = net(max(p, 2))
        for fn in ALLREDUCE_ALGORITHMS.values():
            assert fn(n, p, nbytes) > 0


class TestCrossValidationWithCostModels:
    def test_allreduce_energy_bytes_match(self):
        """allreduce_energy's ring bills every one of the p ranks for the
        ring's 2n(p-1)/p bytes at the link's energy per byte."""
        for p, nbytes in ((4, 64 * 8.0), (7, 1e6)):
            network = Network(Ring(p), LinkSpec())
            joules = allreduce_energy(network, p, nbytes, "ring")
            implied_bytes = joules / (network.link.energy_per_byte * 1e-12)
            assert implied_bytes == pytest.approx(p * 2 * nbytes * (p - 1) / p)
