"""Tests for hardware specs, perf model, parallelism plans, storage, energy,
and the discrete-event core."""

import numpy as np
import pytest

from repro.candle import build_nt3_classifier, build_p1b2_classifier
from repro.hpc import (
    DTYPE_BYTES,
    FUTURE_DL,
    MACHINES,
    SUMMIT_ERA,
    TITAN_ERA,
    DataParallel,
    DatasetSpec,
    EventLoop,
    HybridParallel,
    ModelParallel,
    ModelProfile,
    PipelineParallel,
    SimCluster,
    SingleNode,
    StagingSimulator,
    achieved_flops,
    arithmetic_intensity,
    compare_policies,
    compute_step_time,
    conv1d_profile,
    energy_per_sample,
    get_machine,
    mlp_profile,
    profile_model,
    roofline_time,
    step_energy,
    throughput,
)
from repro.hpc.hardware import MemoryTier


class TestHardware:
    def test_catalog_complete(self):
        assert set(MACHINES) == {"titan_era", "summit_era", "knl_era", "future_dl"}

    def test_get_machine_unknown(self):
        with pytest.raises(ValueError):
            get_machine("cray1")

    def test_titan_has_no_fp16(self):
        assert not TITAN_ERA.accelerator.supports("fp16")
        with pytest.raises(ValueError):
            TITAN_ERA.accelerator.effective_flops("fp16")

    def test_summit_fp16_much_faster_than_fp64(self):
        acc = SUMMIT_ERA.accelerator
        assert acc.effective_flops("fp16") > 10 * acc.effective_flops("fp64")

    def test_tier_lookup(self):
        assert SUMMIT_ERA.tier("nvram").name == "nvram"
        assert SUMMIT_ERA.has_tier("hbm")
        with pytest.raises(ValueError):
            SUMMIT_ERA.tier("tape")

    def test_tier_bandwidth_ordering(self):
        """Tiers must be ordered fastest-first (the placement experiments
        depend on it)."""
        for node in MACHINES.values():
            bws = [t.bandwidth for t in node.tiers]
            assert bws == sorted(bws, reverse=True), node.name

    def test_access_time_includes_latency(self):
        tier = MemoryTier("x", 1e9, 1e9, 1e-3, 10.0)
        assert tier.access_time(0) == 0.0
        assert tier.access_time(1e9) == pytest.approx(1e-3 + 1.0)

    def test_access_time_negative_raises(self):
        with pytest.raises(ValueError):
            SUMMIT_ERA.tier("hbm").access_time(-1)

    def test_access_energy(self):
        tier = MemoryTier("x", 1e9, 1e9, 0, energy_per_byte=100.0)
        assert tier.access_energy(1e12) == pytest.approx(100.0)  # 1TB * 100pJ/B = 100J


class TestProfiles:
    def test_mlp_profile_params(self):
        p = mlp_profile([100, 50, 10], batch_size=8)
        assert p.params == (100 * 50 + 50) + (50 * 10 + 10)

    def test_mlp_profile_flops(self):
        p = mlp_profile([100, 50], batch_size=8)
        assert p.flops_fwd == 2 * 8 * 100 * 50
        assert p.flops_bwd == 2 * p.flops_fwd

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            mlp_profile([100])

    def test_with_batch_size_scales_flops_not_params(self):
        p = mlp_profile([64, 32], batch_size=16)
        p2 = p.with_batch_size(32)
        assert p2.flops_step == pytest.approx(2 * p.flops_step)
        assert p2.params == p.params

    def test_with_batch_size_validation(self):
        with pytest.raises(ValueError):
            mlp_profile([4, 2]).with_batch_size(0)

    def test_profile_real_model_matches_param_count(self):
        model = build_p1b2_classifier(4, hidden=(64, 32), dropout=0.1)
        profile = profile_model(model, (100,), batch_size=16)
        assert profile.params == model.param_count()

    def test_profile_conv_model(self):
        model = build_nt3_classifier(2, conv_filters=(8, 16), kernel_size=5)
        profile = profile_model(model, (1, 200), batch_size=8)
        assert profile.params == model.param_count()
        assert profile.flops_step > 0

    def test_profile_imaging_model_counts_its_gemms(self):
        # The GEMM layers' forward + backward flops are 2*m*k*n over the
        # step's GEMMs (forward, dW, dX of each Conv2D via im2col and each
        # Dense) -- 0.0178 GFLOP at batch 32, what bench/ reports as
        # nn.step_gflop.  The pools and the head reducer are elementwise.
        from repro.candle.registry import REGISTRY
        from repro.nn import Conv2D, Dense

        batch = 32
        model = REGISTRY["imaging"].build_model()
        profile = profile_model(model, (1, 16, 16), batch_size=batch)
        assert profile.params == model.param_count()
        gemm_flops = 0.0
        shape = (1, 16, 16)
        for layer, cost in zip(model.layers, profile.layers):
            out = layer.output_shape(shape)
            if isinstance(layer, Conv2D):
                m, k, n = layer.filters, shape[0] * layer.kernel_size ** 2, batch * out[1] * out[2]
            elif isinstance(layer, Dense):
                m, k, n = batch, shape[-1], layer.units
            else:
                assert cost.flops_total <= 2 * batch * max(np.prod(shape), np.prod(out))
                shape = out
                continue
            assert cost.flops_total == 3 * 2.0 * m * k * n
            gemm_flops += cost.flops_total
            shape = out
        assert gemm_flops / 1e9 == pytest.approx(0.0178, abs=5e-5)
        assert profile.flops_step == pytest.approx(gemm_flops, rel=0.02)

    def test_conv1d_profile_synthetic(self):
        p = conv1d_profile(length=1000, channels=(32, 64), kernel_size=7, batch_size=16)
        assert p.params > 0
        assert p.flops_fwd > 0

    def test_memory_accounting_scales_with_precision(self):
        p = mlp_profile([1000, 1000], batch_size=32)
        assert p.weight_bytes("fp16") == p.weight_bytes("fp32") / 2
        assert p.training_memory_bytes("fp16") < p.training_memory_bytes("fp32")

    def test_training_memory_includes_optimizer_state(self):
        p = mlp_profile([100, 100], batch_size=1)
        base = p.weight_bytes("fp32") + p.gradient_bytes("fp32") + p.activation_bytes("fp32")
        assert p.training_memory_bytes("fp32") > base


class TestRoofline:
    def test_bandwidth_bound_elementwise(self):
        acc = SUMMIT_ERA.accelerator
        # 1 flop/4 bytes: far left of the roofline.
        n = 1e8
        t = roofline_time(n, 4 * n, acc, "fp32")
        assert t == pytest.approx(4 * n / acc.mem_bandwidth)

    def test_compute_bound_gemm(self):
        acc = SUMMIT_ERA.accelerator
        flops, nbytes = 1e13, 1e6
        t = roofline_time(flops, nbytes, acc, "fp32")
        assert t == pytest.approx(flops / acc.effective_flops("fp32"))

    def test_achieved_flops_below_peak(self):
        acc = SUMMIT_ERA.accelerator
        a = achieved_flops(1e9, 1e9, acc, "fp32")
        assert a <= acc.effective_flops("fp32") + 1e-6

    def test_achieved_flops_rises_with_intensity(self):
        acc = SUMMIT_ERA.accelerator
        low = achieved_flops(1e8, 1e8, acc, "fp32")
        high = achieved_flops(1e12, 1e8, acc, "fp32")
        assert high > low

    def test_arithmetic_intensity(self):
        assert arithmetic_intensity(100.0, 50.0) == 2.0
        assert arithmetic_intensity(100.0, 0.0) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            roofline_time(-1, 0, SUMMIT_ERA.accelerator, "fp32")

    def test_lower_precision_faster_step(self):
        p = mlp_profile([4096] * 4, batch_size=512)
        t32 = compute_step_time(p, SUMMIT_ERA, "fp32")
        t16 = compute_step_time(p, SUMMIT_ERA, "fp16")
        assert t16 < t32


def big_profile(batch=1024):
    return mlp_profile([4096, 4096, 4096, 1000], batch_size=batch)


class TestDataParallel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataParallel(0)
        with pytest.raises(ValueError):
            DataParallel(4, allreduce="magic")
        with pytest.raises(ValueError):
            DataParallel(4, overlap_fraction=1.5)

    def test_single_node_equals_singleplan(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 1, "ring")
        assert DataParallel(1).step_time(p, c) == pytest.approx(SingleNode().step_time(p, c))

    def test_strong_scaling_saturates(self):
        """Claim C10: strong-scaling speedup must flatten out."""
        p = big_profile(batch=4096)
        t1 = SingleNode().step_time(p, SimCluster.build("summit_era", 1, "ring"))
        speedups = []
        for n in (4, 16, 64, 256, 1024):
            c = SimCluster.build("summit_era", n, "fat_tree")
            speedups.append(t1 / DataParallel(n).step_time(p, c))
        # Far from ideal at 1024 nodes.
        assert speedups[-1] < 1024 * 0.1
        # And the marginal gain from 256 -> 1024 is small or negative.
        assert speedups[-1] < speedups[-2] * 1.5

    def test_weak_scaling_near_flat(self):
        p = big_profile(batch=256)
        t1 = SingleNode().step_time(p, SimCluster.build("summit_era", 1, "ring"))
        c = SimCluster.build("summit_era", 64, "fat_tree")
        plan = DataParallel(64, strong_scaling=False)
        t64 = plan.step_time(p, c)  # same local batch per node
        assert t64 < 3 * t1  # only allreduce overhead added

    def test_overlap_reduces_time(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 64, "fat_tree")
        t0 = DataParallel(64, overlap_fraction=0.0).step_time(p, c)
        t9 = DataParallel(64, overlap_fraction=0.9).step_time(p, c)
        assert t9 < t0

    def test_memory_shrinks_with_strong_scaling(self):
        p = big_profile(batch=1024)
        m1 = DataParallel(1).memory_per_node(p)
        m64 = DataParallel(64).memory_per_node(p)
        assert m64 < m1  # activations shrink with local batch

    def test_comm_bytes_ring_volume(self):
        p = big_profile()
        plan = DataParallel(8)
        expected = 2 * p.gradient_bytes("fp32") * 7 / 8
        assert plan.comm_bytes_per_step(p) == pytest.approx(expected)
        assert DataParallel(1).comm_bytes_per_step(p) == 0.0


class TestCrossValidationWithCostModels:
    def test_ring_bytes_match_the_plan(self):
        """DataParallel.comm_bytes_per_step charges each node the ring
        allreduce's traffic: 2(p-1) steps (reduce-scatter, then allgather)
        of one g/p chunk of the g gradient bytes, 2g(p-1)/p in all."""
        profile = mlp_profile([10, 6], batch_size=4)
        g = profile.params * 8.0  # fp64 gradients
        for p in (2, 3, 8):
            ring = 2 * (p - 1) * (g / p)
            assert DataParallel(p).comm_bytes_per_step(profile, "fp64") == pytest.approx(ring)


class TestModelParallel:
    def test_memory_divides(self):
        p = big_profile()
        m1 = ModelParallel(1).memory_per_node(p)
        m8 = ModelParallel(8).memory_per_node(p)
        assert m8 < m1

    def test_enables_infeasible_model(self):
        """A model too big for one node must become feasible sharded —
        the keynote's case for model parallelism."""
        huge = mlp_profile([32768] * 6, batch_size=64)  # ~5.4B params
        c = SimCluster.build("summit_era", 16, "fat_tree")
        assert not SingleNode().feasible(huge, c)
        assert ModelParallel(16).feasible(huge, c)

    def test_dp_wins_when_activations_dominate(self):
        """DP ships gradients (~params), MP ships activations: with small
        layers and a huge batch, DP must win."""
        p = mlp_profile([256] * 10, batch_size=8192)
        c = SimCluster.build("summit_era", 8, "fat_tree")
        t_dp = DataParallel(8).step_time(p, c)
        t_mp = ModelParallel(8).step_time(p, c)
        assert t_dp < t_mp

    def test_mp_wins_when_params_dominate(self):
        """The converse crossover: giant FC layers, modest batch — the
        2017-era DNN regime the keynote describes — favours MP."""
        p = mlp_profile([8192] * 5, batch_size=256)
        c = SimCluster.build("summit_era", 8, "fat_tree")
        t_dp = DataParallel(8).step_time(p, c)
        t_mp = ModelParallel(8).step_time(p, c)
        assert t_mp < t_dp

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParallel(0)
        with pytest.raises(ValueError):
            ModelParallel(4, shard_efficiency=0.0)


class TestPipeline:
    def test_bubble_fraction(self):
        plan = PipelineParallel(n_stages=4, n_microbatches=12)
        assert plan.bubble_fraction == pytest.approx(3 / 15)

    def test_more_microbatches_shrink_bubble(self):
        """Going from 1 micro-batch (75% bubble at 4 stages) to 8 must help;
        far beyond that, fixed per-micro costs (weight re-reads, hops) win."""
        p = big_profile(batch=2048)
        c = SimCluster.build("summit_era", 4, "ring")
        t_one = PipelineParallel(4, n_microbatches=1).step_time(p, c)
        t_eight = PipelineParallel(4, n_microbatches=8).step_time(p, c)
        assert t_eight < t_one

    def test_single_stage_is_single_node(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 1, "ring")
        assert PipelineParallel(1).step_time(p, c) == pytest.approx(SingleNode().step_time(p, c))

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineParallel(0)
        with pytest.raises(ValueError):
            PipelineParallel(2, n_microbatches=0)


class TestHybrid:
    def test_n_nodes(self):
        assert HybridParallel(group_size=4, n_groups=16).n_nodes == 64

    def test_fits_huge_model_where_dp_cannot(self):
        huge = mlp_profile([32768] * 6, batch_size=512)
        c = SimCluster.build("summit_era", 64, "fat_tree")
        assert not DataParallel(64).feasible(huge, c)
        assert HybridParallel(group_size=16, n_groups=4).feasible(huge, c)

    def test_fat_intra_group_fabric_helps(self):
        """Claim C9: model-parallel groups want high intra-group bandwidth."""
        huge = mlp_profile([16384] * 6, batch_size=512)
        c = SimCluster.build("summit_era", 64, "fat_tree")
        slow = HybridParallel(8, 8, intra_bandwidth=12.5e9).step_time(huge, c)
        fast = HybridParallel(8, 8, intra_bandwidth=300e9).step_time(huge, c)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridParallel(0, 4)
        with pytest.raises(ValueError):
            HybridParallel(4, 4, allreduce="bogus")

    def test_comm_bytes_positive(self):
        p = big_profile()
        assert HybridParallel(4, 4).comm_bytes_per_step(p) > 0


class TestThroughputEfficiency:
    def test_throughput_definition(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 1, "ring")
        t = SingleNode().step_time(p, c)
        assert throughput(SingleNode(), p, c) == pytest.approx(p.batch_size / t)


class TestCluster:
    def test_build_defaults(self):
        c = SimCluster.build("summit_era", 32)
        assert c.n_nodes == 32
        assert c.node.name == "summit_era"

    def test_subcluster(self):
        c = SimCluster.build("summit_era", 64)
        sub = c.subcluster(8, topology="ring")
        assert sub.n_nodes == 8

    def test_subcluster_validation(self):
        with pytest.raises(ValueError):
            SimCluster.build("summit_era", 8).subcluster(16)

    def test_with_link_bandwidth(self):
        c = SimCluster.build("summit_era", 8)
        fast = c.with_link_bandwidth(100e9)
        assert fast.network.link.bandwidth == pytest.approx(100e9)
        assert c.network.link.bandwidth != fast.network.link.bandwidth


class TestStorage:
    def make_dataset(self, gb=500):
        return DatasetSpec(bytes_total=gb * 1e9, samples=int(1e6))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(bytes_total=0, samples=10)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StagingSimulator(SUMMIT_ERA, self.make_dataset(), "teleport")

    def test_pfs_direct_constant_per_epoch(self):
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(100), "pfs_direct")
        ios = sim.run_epochs(3)
        assert ios[0].raw_io_time == pytest.approx(ios[2].raw_io_time)
        assert all("pfs" in e.read_bytes_by_tier for e in ios)

    def test_nvram_prefetch_amortizes(self):
        """Epoch 0 pays the PFS read; later epochs hit NVRAM (faster)."""
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(500), "nvram_prefetch")
        ios = sim.run_epochs(3)
        assert ios[1].raw_io_time < ios[0].raw_io_time
        assert "nvram" in ios[1].read_bytes_by_tier
        assert "pfs" not in ios[1].read_bytes_by_tier  # 500GB fits 800GB usable

    def test_nvram_overflow_spills_to_pfs(self):
        big = self.make_dataset(2000)  # 2TB > usable NVRAM
        sim = StagingSimulator(SUMMIT_ERA, big, "nvram_prefetch")
        ios = sim.run_epochs(2)
        assert "pfs" in ios[1].read_bytes_by_tier

    def test_dram_cache_warms_up(self):
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(100), "dram_cache")
        ios = sim.run_epochs(3)
        assert ios[1].raw_io_time < ios[0].raw_io_time
        assert "dram" in ios[1].read_bytes_by_tier

    def test_compare_policies_ordering(self):
        """Over many epochs: staging beats direct PFS (claim C12)."""
        totals = compare_policies(SUMMIT_ERA, self.make_dataset(400), n_epochs=20)
        assert totals["nvram_prefetch"] < totals["pfs_direct"]
        assert totals["dram_cache"] < totals["pfs_direct"]

    def test_compute_overlap_hides_io(self):
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(10), "nvram_prefetch")
        io = sim.epoch_io(1, compute_time=1e9)  # effectively infinite compute
        assert io.exposed_io_time == 0.0

    def test_run_epochs_validation(self):
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(), "pfs_direct")
        with pytest.raises(ValueError):
            sim.run_epochs(0)

    def test_energy_positive(self):
        sim = StagingSimulator(SUMMIT_ERA, self.make_dataset(100), "pfs_direct")
        assert sim.epoch_io(0).energy > 0


class TestEnergy:
    def test_breakdown_components_positive(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 16)
        e = step_energy(DataParallel(16), p, c, "fp32")
        assert e.compute > 0 and e.memory > 0 and e.network > 0 and e.static > 0
        assert e.total == pytest.approx(sum(e.as_dict()[k] for k in ("compute", "memory", "network", "static")))

    def test_lower_precision_lower_compute_energy(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 1)
        e32 = step_energy(SingleNode(), p, c, "fp32")
        e16 = step_energy(SingleNode(), p, c, "fp16")
        assert e16.compute < e32.compute

    def test_single_node_no_network_energy(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 1)
        assert step_energy(SingleNode(), p, c).network == 0.0

    def test_energy_per_sample(self):
        p = big_profile()
        c = SimCluster.build("summit_era", 4)
        assert energy_per_sample(DataParallel(4), p, c) > 0

    def test_future_machine_more_efficient(self):
        """The keynote's wishlist node must beat the 2012 node on J/sample."""
        p = big_profile()
        c_old = SimCluster.build("titan_era", 1)
        c_new = SimCluster.build("future_dl", 1)
        assert energy_per_sample(SingleNode(), p, c_new, "fp32") < energy_per_sample(
            SingleNode(), p, c_old, "fp32"
        )


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_fifo_at_equal_times(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append(1))
        loop.schedule(1.0, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(5.0, lambda: fired.append(2))
        loop.run(until=2.0)
        assert fired == [1]
        assert loop.now == 2.0
        assert loop.pending == 1

    def test_nested_scheduling(self):
        loop = EventLoop()
        times = []

        def recur(depth):
            times.append(loop.now)
            if depth:
                loop.schedule(1.0, lambda: recur(depth - 1))

        loop.schedule(0.0, lambda: recur(3))
        loop.run()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_event_budget(self):
        loop = EventLoop()

        def forever():
            loop.schedule(1.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)


class TestPerfModelProperties:
    """Property-based invariants of the performance model."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(1, 64), st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_batch_rescaling_is_linear_in_flops(self, b1, b2):
        p = mlp_profile([64, 32, 8], batch_size=b1)
        p2 = p.with_batch_size(b2)
        assert p2.flops_step == pytest.approx(p.flops_step * b2 / b1)
        assert p2.params == p.params

    @given(st.integers(2, 1024))
    @settings(max_examples=30, deadline=None)
    def test_step_time_monotone_in_link_bandwidth(self, n_nodes):
        p = mlp_profile([512, 512, 64], batch_size=256)
        plan = DataParallel(min(n_nodes, 256))
        slow = SimCluster.build("summit_era", max(plan.n_nodes, 2), "fat_tree", link_bandwidth=5e9)
        fast = SimCluster.build("summit_era", max(plan.n_nodes, 2), "fat_tree", link_bandwidth=100e9)
        assert plan.step_time(p, fast) <= plan.step_time(p, slow) + 1e-15

    @given(st.sampled_from(["fp64", "fp32", "fp16"]))
    @settings(max_examples=10, deadline=None)
    def test_memory_ordering_across_precisions(self, precision):
        p = mlp_profile([256, 128], batch_size=64)
        assert p.training_memory_bytes(precision) >= p.training_memory_bytes("fp16") - 1e-9

    @given(st.integers(1, 128), st.integers(1, 128))
    @settings(max_examples=30, deadline=None)
    def test_more_nodes_never_raise_dp_memory(self, a, b):
        lo, hi = min(a, b), max(a, b)
        p = mlp_profile([128, 64], batch_size=1024)
        m_lo = DataParallel(lo).memory_per_node(p)
        m_hi = DataParallel(hi).memory_per_node(p)
        assert m_hi <= m_lo + 1e-9

    @given(st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_model_parallel_memory_decreasing(self, n):
        p = mlp_profile([1024, 1024, 64], batch_size=32)
        m1 = ModelParallel(1).memory_per_node(p)
        mn = ModelParallel(n).memory_per_node(p)
        assert mn <= m1 + 1e-9
