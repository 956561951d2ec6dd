"""System-level tests: traces, grid cores, device models, energy, full accelerator."""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    AreaModel,
    EnergyModel,
    GridCoreSimulator,
    Instant3DAccelerator,
    JETSON_NANO,
    JETSON_TX2,
    XAVIER_NX,
    baseline_devices,
    extract_training_trace,
)
from repro.accelerator.devices import EdgeGPUModel
from repro.analysis.breakdown import runtime_breakdown
from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.training.profiler import PipelineStep, WorkloadScale, build_iteration_workload

from oracles import per_level_loop


@pytest.fixture(scope="module")
def paper_workloads():
    scale = WorkloadScale.paper_scale(n_iterations=1024)
    baseline = build_iteration_workload(Instant3DConfig.paper_scale_baseline(), scale)
    instant3d_gpu = build_iteration_workload(
        Instant3DConfig.paper_scale_baseline().with_ratios(
            color_size_ratio=0.25, color_update_freq=0.5), scale)
    instant3d_acc = build_iteration_workload(Instant3DConfig.paper_scale_instant3d(), scale)
    return {"baseline": baseline, "instant3d_gpu": instant3d_gpu,
            "instant3d_acc": instant3d_acc}


class TestMemoryTrace:
    def test_trace_structure(self, tiny_trace, tiny_config):
        assert set(tiny_trace.branches) == {"density", "color"}
        density = tiny_trace.branch("density")
        expected_reads = tiny_trace.n_points * 8 * tiny_config.grid.n_levels
        assert density.read_addresses.size == expected_reads
        assert density.write_addresses.size == expected_reads
        assert density.read_addresses.max() < density.table_entries

    def test_read_and_write_traces_are_permutations(self, tiny_trace):
        """Forward reads and backward updates touch the same multiset of addresses."""
        for branch in tiny_trace.branches.values():
            np.testing.assert_array_equal(np.sort(branch.read_addresses),
                                          np.sort(branch.write_addresses))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_trace_order_matches_per_level_loop(self, monkeypatch, tiny_config,
                                                tiny_dataset, dtype):
        """Reads are point-major (per point, per level, 8 corners) and
        writes level-major (per level, per point, 8 corners): the order the
        Fig. 10 windows read, element for element against the frozen
        per-level loop."""
        config = dataclasses.replace(tiny_config, compute_dtype=dtype)
        model = DecoupledRadianceField(config, seed=0)
        queried = {}
        for name in ("density", "color"):
            grid = getattr(model.encoder, f"{name}_grid")

            def spy(points, _forward=grid.forward, _name=name):
                queried[_name] = np.array(points)
                return _forward(points)
            monkeypatch.setattr(grid, "forward", spy)
        trace = extract_training_trace(model, tiny_dataset, batch_pixels=16,
                                       samples_per_ray=4, seed=3)
        for name, branch in trace.branches.items():
            grid = getattr(model.encoder, f"{name}_grid")
            _, loop, _ = per_level_loop(grid, queried[name])
            per_level = [addr + offset for addr, offset
                         in zip(loop.addresses, loop.level_offsets)]
            reads = np.stack(per_level, axis=1).reshape(-1)       # (N, L, 8)
            writes = np.concatenate([a.reshape(-1) for a in per_level])
            assert branch.read_addresses.dtype == np.int64
            assert branch.write_addresses.dtype == np.int64
            np.testing.assert_array_equal(branch.read_addresses, reads)
            np.testing.assert_array_equal(branch.write_addresses, writes)

    def test_backward_trace_has_more_window_sharing(self, tiny_trace):
        """Level-major backward ordering revisits addresses within a window more
        than the point-major forward ordering (the Fig. 10 observation)."""
        from repro.analysis.access_patterns import sliding_window_unique_addresses

        branch = tiny_trace.branch("density")
        window = min(1000, branch.read_addresses.size)
        fwd = sliding_window_unique_addresses(branch.read_addresses, window=window)
        bwd = sliding_window_unique_addresses(branch.write_addresses, window=window)
        assert bwd.mean_unique <= fwd.mean_unique


class TestGridCoreSimulator:
    def test_forward_cycles_positive_and_bounded(self, tiny_trace):
        sim = GridCoreSimulator(AcceleratorConfig())
        branch = tiny_trace.branch("density")
        result = sim.simulate_forward(branch, table_bytes=512 * 1024)
        assert result.core_cycles > 0
        # Cannot be faster than the total bank bandwidth allows.
        min_cycles = branch.read_addresses.size / (4 * 8)
        assert result.sram_cycles >= min_cycles

    def test_frm_disable_increases_cycles(self, tiny_trace):
        branch = tiny_trace.branch("density")
        with_frm = GridCoreSimulator(AcceleratorConfig()).simulate_forward(
            branch, table_bytes=512 * 1024)
        without_frm = GridCoreSimulator(
            AcceleratorConfig(frm_enabled=False)).simulate_forward(
            branch, table_bytes=512 * 1024)
        assert without_frm.core_cycles > with_frm.core_cycles

    def test_bum_disable_increases_backward_cycles(self, tiny_trace):
        branch = tiny_trace.branch("density")
        with_bum = GridCoreSimulator(AcceleratorConfig()).simulate_backward(
            branch, table_bytes=512 * 1024)
        without_bum = GridCoreSimulator(
            AcceleratorConfig(bum_enabled=False)).simulate_backward(
            branch, table_bytes=512 * 1024)
        assert without_bum.core_cycles > with_bum.core_cycles
        assert with_bum.bum.write_reduction >= 0.0

    def test_fusion_disable_increases_cycles_for_large_table(self, tiny_trace):
        branch = tiny_trace.branch("density")
        fused = GridCoreSimulator(AcceleratorConfig()).simulate_forward(
            branch, table_bytes=1024 * 1024)
        unfused = GridCoreSimulator(
            AcceleratorConfig(fusion_enabled=False)).simulate_forward(
            branch, table_bytes=1024 * 1024)
        assert unfused.core_cycles > fused.core_cycles


class TestDeviceModels:
    def test_specs_match_table3(self):
        assert JETSON_NANO.typical_power_w == 10.0
        assert JETSON_TX2.typical_power_w == 15.0
        assert XAVIER_NX.typical_power_w == 20.0
        assert XAVIER_NX.dram_bandwidth_gbs == pytest.approx(59.7)

    def test_device_ordering_matches_paper(self, paper_workloads):
        """Per-scene runtime ordering: Nano slowest, Xavier NX fastest."""
        estimates = {name: model.estimate_training(paper_workloads["baseline"])
                     for name, model in baseline_devices().items()}
        assert (estimates["Jetson Nano"].total_s
                > estimates["Jetson TX2"].total_s
                > estimates["Xavier NX"].total_s)

    def test_xavier_runtime_near_paper_value(self, paper_workloads):
        """The paper measures ~72 s per NeRF-Synthetic scene on Xavier NX."""
        est = EdgeGPUModel(XAVIER_NX).estimate_training(paper_workloads["baseline"])
        assert 55.0 < est.total_s < 90.0

    def test_grid_step_dominates_runtime(self, paper_workloads):
        """Fig. 4: step ❸-① and its backward take ~80 % of training runtime."""
        for model in baseline_devices().values():
            est = model.estimate_training(paper_workloads["baseline"])
            breakdown = runtime_breakdown(est)
            assert breakdown.grid_fraction > 0.7

    def test_instant3d_algorithm_is_faster_on_same_device(self, paper_workloads):
        """Tab. 4 / Fig. 7: the algorithm alone gives a ~17 % runtime reduction."""
        xavier = EdgeGPUModel(XAVIER_NX)
        base = xavier.estimate_training(paper_workloads["baseline"])
        i3d = xavier.estimate_training(paper_workloads["instant3d_gpu"])
        ratio = i3d.total_s / base.total_s
        assert 0.70 < ratio < 0.95

    def test_energy_uses_typical_power(self, paper_workloads):
        est = EdgeGPUModel(XAVIER_NX).estimate_training(paper_workloads["baseline"])
        assert est.energy_j == pytest.approx(est.total_s * 20.0)

    def test_unknown_device_requires_params(self):
        from repro.accelerator.devices import DeviceSpec

        spec = DeviceSpec(name="Unknown", technology_nm=7, sram_mb=1, area_mm2=None,
                          frequency_ghz=1.0, dram="LPDDR5", dram_bandwidth_gbs=50,
                          typical_power_w=5.0)
        with pytest.raises(KeyError):
            EdgeGPUModel(spec)


class TestEnergyAndArea:
    def test_area_breakdown_matches_published_design(self):
        breakdown = AreaModel(AcceleratorConfig()).breakdown()
        assert 6.0 < breakdown.total_mm2 < 7.6          # paper: 6.8 mm^2
        assert 0.70 < breakdown.fraction("grid_cores") < 0.85   # paper: ~78 %
        assert 0.10 < breakdown.fraction("mlp") < 0.30          # paper: ~22 %

    def test_energy_breakdown_positive_components(self):
        model = EnergyModel(AcceleratorConfig())
        breakdown = model.breakdown(
            sram_read_bytes=1e9, sram_write_bytes=1e8, interpolation_macs=1e9,
            mlp_macs=5e9, activation_bytes=1e8, dram_bytes=1e8, runtime_s=2.0)
        assert breakdown.total_j > 0
        assert all(v >= 0 for v in breakdown.components_j.values())
        assert model.average_power_w(breakdown, 2.0) == pytest.approx(
            breakdown.total_j / 2.0)


class TestBranchRates:
    def test_backward_rate_uses_backward_phase_access_count(self, tiny_trace):
        """Regression: the trace-driven backward rate divided the *forward*
        read count by backward-phase cycles, halving the measured rate."""
        sim = GridCoreSimulator(AcceleratorConfig())
        for name in tiny_trace.branches:
            trace_branch = tiny_trace.branch(name)
            bwd = sim.simulate_backward(trace_branch, table_bytes=512 * 1024)
            # The rate must be the backward phase's own accesses/cycle:
            # gradient reads plus update writes over the phase's core cycles.
            assert bwd.accesses_per_cycle == pytest.approx(
                bwd.n_accesses / max(bwd.core_cycles, 1))
            assert bwd.n_accesses == (trace_branch.read_addresses.size
                                      + trace_branch.write_addresses.size)

    def test_workload_backward_accesses_match_rate_units(self, paper_workloads):
        """GRID_BACKWARD counts reads + writes (2x the forward reads), the
        same unit the trace-measured backward rate is expressed in — so
        scaled cycles reproduce the grid-core simulator's own cycle count."""
        workload = paper_workloads["instant3d_acc"]
        for branch in ("density", "color"):
            steps = {s.step: s for s in workload.steps if s.branch == branch}
            fwd = steps[PipelineStep.GRID_FORWARD]
            bwd = steps[PipelineStep.GRID_BACKWARD]
            assert bwd.grid_accesses == 2.0 * fwd.grid_accesses
            assert bwd.grid_bytes == fwd.grid_bytes    # bytes stay per-direction

    def test_backward_rate_is_near_forward_rate(self, tiny_trace):
        """Backward is no slower than forward per access once the BUM merges
        the update writes (the pre-fix estimate had it ~2x slower)."""
        sim = GridCoreSimulator(AcceleratorConfig())
        for name in tiny_trace.branches:
            branch = tiny_trace.branch(name)
            fwd = sim.simulate_forward(branch, table_bytes=512 * 1024)
            bwd = sim.simulate_backward(branch, table_bytes=512 * 1024)
            assert bwd.accesses_per_cycle > 0.5 * fwd.accesses_per_cycle


class TestInstant3DAccelerator:
    @pytest.fixture(scope="class")
    def full_estimate(self, paper_workloads, tiny_trace):
        acc = Instant3DAccelerator(AcceleratorConfig())
        return acc.estimate_training(paper_workloads["instant3d_acc"], trace=tiny_trace)

    def test_large_speedup_over_all_baselines(self, full_estimate, paper_workloads):
        """Fig. 16: the accelerator wins by a large factor on every baseline,
        with the Nano > TX2 > Xavier NX ordering preserved."""
        speedups = {}
        for name, model in baseline_devices().items():
            base = model.estimate_training(paper_workloads["baseline"])
            speedups[name] = full_estimate.speedup_over(base.total_s)
        assert speedups["Xavier NX"] > 3.0
        assert speedups["Jetson TX2"] > speedups["Xavier NX"]
        assert speedups["Jetson Nano"] > speedups["Jetson TX2"]

    def test_energy_efficiency_gain(self, full_estimate, paper_workloads):
        xavier = EdgeGPUModel(XAVIER_NX).estimate_training(paper_workloads["baseline"])
        assert full_estimate.energy_efficiency_over(xavier.energy_j) > 20.0

    def test_power_within_arvr_budget(self, full_estimate):
        """The design targets the 1.9 W AR/VR power constraint."""
        assert full_estimate.average_power_w < 2.5

    def test_frm_bum_ablation_ordering(self, paper_workloads, tiny_trace):
        """Fig. 18: removing FRM or BUM increases runtime; removing both is worst."""
        wl = paper_workloads["instant3d_acc"]
        full = Instant3DAccelerator(AcceleratorConfig()).estimate_training(wl, tiny_trace)
        no_bum = Instant3DAccelerator(
            AcceleratorConfig(bum_enabled=False)).estimate_training(wl, tiny_trace)
        no_both = Instant3DAccelerator(
            AcceleratorConfig(frm_enabled=False, bum_enabled=False)
        ).estimate_training(wl, tiny_trace)
        assert full.total_s < no_bum.total_s < no_both.total_s
        # FRM + BUM together trim a large fraction of the runtime (paper: 68.6 %).
        assert 1.0 - full.total_s / no_both.total_s > 0.4

    def test_fusion_ablation(self, paper_workloads, tiny_trace):
        """Fig. 17: the reconfigurable fusion scheme is a multi-x factor."""
        wl = paper_workloads["instant3d_acc"]
        fused = Instant3DAccelerator(AcceleratorConfig()).estimate_training(wl, tiny_trace)
        unfused = Instant3DAccelerator(
            AcceleratorConfig(fusion_enabled=False)).estimate_training(wl, tiny_trace)
        assert unfused.total_s / fused.total_s > 2.0

    def test_algorithm_contribution_on_accelerator(self, paper_workloads, tiny_trace):
        """Fig. 17: running the Instant-NGP-sized grids on the accelerator is
        several times slower than the Instant-3D configuration."""
        acc = Instant3DAccelerator(AcceleratorConfig())
        ngp = acc.estimate_training(paper_workloads["baseline"], tiny_trace)
        i3d = acc.estimate_training(paper_workloads["instant3d_acc"], tiny_trace)
        assert 1.5 < ngp.total_s / i3d.total_s < 8.0

    def test_estimate_requires_a_trace(self, paper_workloads):
        """Grid phases are only priced from a replayed trace."""
        acc = Instant3DAccelerator(AcceleratorConfig())
        with pytest.raises(TypeError):
            acc.estimate_training(paper_workloads["instant3d_acc"])
