"""Tests for the dataset registry and platform scaling."""

import pytest

from repro.gpusim.spec import CPU_EPYC_7742_2S, DGX_2, DGX_A100
from repro.harness.datasets import (
    DATASETS,
    large_datasets,
    load_dataset,
    quality_instance,
    scale_factor,
    scaled_cpu,
    scaled_platform,
    small_datasets,
)

PAPER_TABLE1_NAMES = [
    "AGATHA-2015", "uk-2007-05", "webbase-2001", "MOLIERE_2016",
    "GAP-urand", "GAP-kron", "com-Friendster", "Queen_4147",
    "mycielskian18", "HV15R", "com-Orkut", "kmer_U1a", "kmer_V2a",
    "mouse_gene",
]


class TestRegistry:
    def test_all_fourteen_present(self):
        assert list(DATASETS) == PAPER_TABLE1_NAMES

    def test_groups_match_paper(self):
        assert len(large_datasets()) == 7
        assert len(small_datasets()) == 7
        # the paper's threshold: LARGE means > 1B edges
        for name in large_datasets():
            assert DATASETS[name].paper_edges > 10**9
        for name in small_datasets():
            assert DATASETS[name].paper_edges <= 10**9

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("no-such-graph")
        with pytest.raises(KeyError):
            quality_instance("no-such-graph")

    def test_load_caches(self):
        assert load_dataset("mouse_gene") is load_dataset("mouse_gene")

    @pytest.mark.parametrize("name", ["kmer_V2a", "mouse_gene",
                                      "mycielskian18"])
    def test_analogs_valid(self, name):
        g = load_dataset(name)
        g.validate()
        assert g.name == name or g.name.startswith(name[:8])

    @pytest.mark.parametrize("name", PAPER_TABLE1_NAMES)
    def test_quality_instances_small(self, name):
        q = quality_instance(name)
        assert q.num_vertices <= 4000  # blossom-tractable
        assert q.num_edges > 0

    def test_structural_classes(self):
        """The analogs preserve the structural axes DESIGN.md claims."""
        urand = load_dataset("GAP-urand")
        kron = load_dataset("GAP-kron")
        assert kron.max_degree / kron.avg_degree > \
            10 * urand.max_degree / urand.avg_degree
        kmer = load_dataset("kmer_V2a")
        assert kmer.avg_degree < 4
        mouse = load_dataset("mouse_gene")
        assert (mouse.weights != 1.0).any()


class TestScaling:
    def test_scale_factor_below_one(self):
        for name in PAPER_TABLE1_NAMES[:4]:
            assert 0 < scale_factor(name) < 1e-2

    def test_platform_memory_scaled(self):
        plat = scaled_platform("GAP-kron")
        assert plat.device.memory_bytes < DGX_A100.device.memory_bytes

    def test_platform_bandwidth_scaled(self):
        plat = scaled_platform("GAP-kron")
        f = scale_factor("GAP-kron")
        assert plat.device.mem_bandwidth_gbs == pytest.approx(
            DGX_A100.device.mem_bandwidth_gbs * f)
        assert plat.gpu_link.bandwidth_gbs == pytest.approx(
            DGX_A100.gpu_link.bandwidth_gbs * f)

    def test_latencies_preserved(self):
        plat = scaled_platform("GAP-kron")
        assert plat.device.kernel_launch_us == \
            DGX_A100.device.kernel_launch_us
        assert plat.gpu_link.latency_us == DGX_A100.gpu_link.latency_us

    def test_occupancy_capacity_vertex_scaled(self):
        plat = scaled_platform("mouse_gene")
        g = load_dataset("mouse_gene")
        expect = DGX_A100.device.hw_warps * g.num_vertices / 45_000
        assert plat.device.occupancy_capacity == pytest.approx(expect)

    def test_dgx2_variant(self):
        plat = scaled_platform("kmer_U1a", DGX_2)
        assert plat.device.name == "V100"
        assert plat.max_devices == 16

    def test_scaled_cpu(self):
        cpu = scaled_cpu("kmer_U1a")
        f = scale_factor("kmer_U1a")
        assert cpu.mem_bandwidth_gbs == pytest.approx(
            CPU_EPYC_7742_2S.mem_bandwidth_gbs * f)
        assert cpu.threads == CPU_EPYC_7742_2S.threads

    def test_batching_regime_preserved(self):
        """The paper's largest graphs need batching at low device counts
        but fit at 8 — the scaled platform reproduces exactly that."""
        from repro.matching.ld_gpu import ld_gpu

        g = load_dataset("AGATHA-2015")
        plat = scaled_platform("AGATHA-2015")
        low = ld_gpu(g, plat, num_devices=1, collect_stats=False,
                     max_iterations=1)
        high = ld_gpu(g, plat, num_devices=8, collect_stats=False,
                      max_iterations=1)
        assert low.stats["config"].num_batches > 1
        assert high.stats["config"].num_batches == 1

    def test_small_graphs_fit_one_device(self):
        from repro.matching.ld_gpu import ld_gpu

        for name in ("Queen_4147", "mouse_gene"):
            g = load_dataset(name)
            plat = scaled_platform(name)
            r = ld_gpu(g, plat, num_devices=1, collect_stats=False,
                       max_iterations=1)
            assert r.stats["config"].num_batches == 1
