"""Unit tests for the accelerator building blocks: SRAM, FRM, BUM, MLP units, fusion."""

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    AdderTreeUnit,
    BackPropUpdateMerger,
    FeedForwardReadMapper,
    FusionMode,
    GridCoreConfig,
    MLPEngine,
    MLPUnitConfig,
    SRAMBankArray,
    SystolicArrayUnit,
    replay_trace,
    select_fusion_mode,
)
from repro.accelerator.fusion import plan_fusion
from repro.accelerator.mlp_unit import MLPLayerShape


class TestSRAMBankArray:
    def test_bank_mapping_range(self):
        sram = SRAMBankArray(n_banks=8)
        banks = sram.bank_of(np.arange(1000))
        assert banks.min() == 0 and banks.max() == 7

    def test_conflict_free_batch_takes_one_cycle(self):
        sram = SRAMBankArray(n_banks=8)
        addresses = np.arange(8)          # one address per bank
        assert sram.cycles_for_batch(addresses) == 1

    def test_full_conflict_batch_serialises(self):
        sram = SRAMBankArray(n_banks=8)
        addresses = np.full(5, 16)        # same bank five times
        assert sram.cycles_for_batch(addresses) == 5

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SRAMBankArray(n_banks=0)
        with pytest.raises(ValueError):
            SRAMBankArray(n_banks=4).bank_of(np.array([-1]))


class TestFeedForwardReadMapper:
    def test_mapping_never_slower_than_unmapped(self):
        sram = SRAMBankArray(n_banks=8)
        frm = FeedForwardReadMapper(sram, window=16)
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 4096, size=512)
        result = frm.schedule(addresses)
        assert result.mapped_cycles <= result.unmapped_cycles
        assert result.speedup >= 1.0

    def test_disabled_mapper_equals_unmapped(self):
        sram = SRAMBankArray(n_banks=8)
        frm = FeedForwardReadMapper(sram, window=16)
        addresses = np.random.default_rng(1).integers(0, 4096, size=256)
        result = frm.schedule(addresses, enabled=False)
        assert result.mapped_cycles == result.unmapped_cycles

    def test_grouped_requests_benefit_from_mapping(self):
        """Eight requests spread over few banks per point leave banks idle;
        the FRM packs requests from several points into one cycle."""
        sram = SRAMBankArray(n_banks=8)
        frm = FeedForwardReadMapper(sram, window=32, requests_per_group=8)
        # Construct point groups that each touch only two banks (four requests
        # per bank), so an unmapped group needs four cycles on its own while
        # consecutive groups hit different bank pairs and can be interleaved.
        groups = []
        for point in range(64):
            base = (2 * point) % 8
            groups.append([base] * 4 + [base + 1] * 4)
        addresses = np.concatenate(groups)
        result = frm.schedule(addresses)
        assert result.speedup > 1.5
        assert 0.0 < result.mapped_utilization <= 1.0

    def test_all_requests_serviced_exactly_once(self):
        sram = SRAMBankArray(n_banks=4)
        frm = FeedForwardReadMapper(sram, window=8)
        addresses = np.random.default_rng(3).integers(0, 64, size=100)
        result = frm.schedule(addresses)
        # Total accesses serviced cannot exceed cycle capacity.
        assert result.n_requests == 100
        assert result.mapped_cycles * sram.n_banks >= 100

    def test_empty_trace(self):
        sram = SRAMBankArray(n_banks=4)
        frm = FeedForwardReadMapper(sram, window=8)
        result = frm.schedule(np.array([], dtype=np.int64))
        assert result.mapped_cycles == 0 and result.unmapped_cycles == 0

    def test_invalid_window(self):
        sram = SRAMBankArray(n_banks=4)
        with pytest.raises(ValueError):
            FeedForwardReadMapper(sram, window=0)


class TestBackPropUpdateMerger:
    def test_repeated_address_is_merged(self):
        bum = BackPropUpdateMerger(n_entries=16, timeout_cycles=16)
        addresses = np.array([5, 5, 5, 5, 5, 5])
        result = bum.process(addresses)
        assert result.n_sram_writes == 1
        assert result.n_merged == 5
        assert result.write_reduction > 0.8

    def test_unique_addresses_are_not_merged(self):
        bum = BackPropUpdateMerger(n_entries=16, timeout_cycles=16)
        addresses = np.arange(64)
        result = bum.process(addresses)
        assert result.n_merged == 0
        assert result.n_sram_writes == 64

    def test_disabled_bum_writes_everything(self):
        bum = BackPropUpdateMerger()
        addresses = np.array([1, 1, 2, 2])
        result = bum.process(addresses, enabled=False)
        assert result.n_sram_writes == 4
        assert result.write_reduction == 0.0

    def test_timeout_forces_writeback(self):
        bum = BackPropUpdateMerger(n_entries=16, timeout_cycles=2)
        # Address 7 recurs but only after the timeout has expired.
        addresses = np.array([7, 100, 101, 102, 103, 7])
        result = bum.process(addresses)
        assert result.n_merged == 0

    def test_capacity_eviction(self):
        bum = BackPropUpdateMerger(n_entries=2, timeout_cycles=100)
        addresses = np.array([1, 2, 3, 1])   # 1 evicted before it recurs
        result = bum.process(addresses)
        assert result.n_sram_writes >= 3

    def test_write_count_never_exceeds_updates(self):
        bum = BackPropUpdateMerger(n_entries=8, timeout_cycles=4)
        addresses = np.random.default_rng(0).integers(0, 32, size=500)
        result = bum.process(addresses)
        assert result.n_sram_writes <= result.n_updates
        assert result.n_sram_writes >= len(np.unique(addresses)) - 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BackPropUpdateMerger(n_entries=0)

    def test_empty_stream(self):
        result = BackPropUpdateMerger().process(np.array([], dtype=np.int64))
        assert result.n_updates == 0
        assert result.n_sram_writes == 0
        assert result.n_merged == 0
        assert result.merge_rate == 0.0
        assert result.write_reduction == 0.0

    def test_single_entry_buffer_merges_only_immediate_repeats(self):
        bum = BackPropUpdateMerger(n_entries=1, timeout_cycles=100)
        # The lone entry is displaced by every address change, so only
        # back-to-back repeats merge: 5,5 and 6,6,6 -> 3 merges, 3 writes.
        result = bum.process(np.array([5, 5, 7, 6, 6, 6]))
        assert result.n_merged == 3
        assert result.n_sram_writes == 3

    def test_timeout_eviction_order_is_least_recently_merged(self):
        # Entries 1 and 2 are inserted, then 1 is refreshed.  After the
        # timeout window passes, 2 (stale) is written back while 1 (fresh)
        # is still mergeable.
        bum = BackPropUpdateMerger(n_entries=16, timeout_cycles=3)
        result = bum.process(np.array([1, 2, 1, 1, 2]))
        # merges: 1@2, 1@3; 2 expires at cycle 4 (last merged cycle 1),
        # so the final 2 re-inserts instead of merging.
        assert result.n_merged == 2
        assert result.n_sram_writes == 3

    def test_replay_trace_summarises_capped_stream(self):
        trace = np.array([3, 3, 3, 9, 9, 42, 42, 42, 42, 7])
        summary = replay_trace(trace, cap=9)   # drops the trailing 7
        assert summary["n_updates"] == 9
        assert summary["unique_addresses"] == 3
        assert summary["n_merged"] == 6
        assert summary["merge_rate"] == pytest.approx(6 / 9)
        # A perfect merger would coalesce every repeat.
        assert summary["perfect_merge_rate"] == pytest.approx(1 - 3 / 9)
        assert summary["merge_rate"] <= summary["perfect_merge_rate"]


class TestMLPUnits:
    def test_systolic_cycles_scale_with_batch(self):
        unit = SystolicArrayUnit(rows=16, cols=16)
        layer = MLPLayerShape(in_features=16, out_features=16)
        assert unit.cycles_for_layer(layer, 2000) > unit.cycles_for_layer(layer, 100)

    def test_systolic_tiling(self):
        unit = SystolicArrayUnit(rows=16, cols=16, utilization=1.0)
        small = MLPLayerShape(in_features=16, out_features=16)
        large = MLPLayerShape(in_features=32, out_features=32)
        assert unit.cycles_for_layer(large, 100) >= 4 * unit.cycles_for_layer(small, 100) - 200

    def test_adder_tree_cheaper_for_small_outputs(self):
        config = MLPUnitConfig()
        engine = MLPEngine(config)
        rgb_layer = MLPLayerShape(in_features=64, out_features=3)
        assert engine.route(rgb_layer) == "adder_tree"
        hidden_layer = MLPLayerShape(in_features=64, out_features=64)
        assert engine.route(hidden_layer) == "systolic"

    def test_engine_total_cycles(self):
        engine = MLPEngine(MLPUnitConfig())
        layers = [MLPLayerShape(16, 64), MLPLayerShape(64, 64), MLPLayerShape(64, 3)]
        total, routing = engine.cycles_for_layers(layers, 1024)
        assert total == sum(cycles for _unit, cycles in routing)
        assert routing[-1][0] == "adder_tree"

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            SystolicArrayUnit(rows=0, cols=4)
        with pytest.raises(ValueError):
            AdderTreeUnit(n_macs=0)


class TestFusion:
    def test_mode_selection_by_table_size(self):
        config = AcceleratorConfig()
        assert select_fusion_mode(200 * 1024, config) is FusionMode.LEVEL0_STANDALONE
        assert select_fusion_mode(400 * 1024, config) is FusionMode.LEVEL1_FUSION
        assert select_fusion_mode(900 * 1024, config) is FusionMode.LEVEL2_FUSION

    def test_mode_properties(self):
        assert FusionMode.LEVEL0_STANDALONE.n_banks == 8
        assert FusionMode.LEVEL1_FUSION.n_banks == 16
        assert FusionMode.LEVEL2_FUSION.n_banks == 32
        assert FusionMode.LEVEL2_FUSION.max_table_bytes == 1024 * 1024

    def test_plan_without_fusion_segments_large_tables(self):
        config = AcceleratorConfig(fusion_enabled=False)
        plan = plan_fusion(1024 * 1024, config)
        assert plan.n_segments == 4
        assert plan.dram_swap_bytes == 3 * config.grid_core.sram_bytes

    def test_plan_with_fusion_fits_published_tables(self):
        config = AcceleratorConfig()
        density_plan = plan_fusion(1024 * 1024, config)
        color_plan = plan_fusion(256 * 1024, config)
        assert density_plan.n_segments == color_plan.n_segments == 1
        assert density_plan.dram_swap_bytes == color_plan.dram_swap_bytes == 0

    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            select_fusion_mode(0, AcceleratorConfig())


class TestAcceleratorConfig:
    def test_published_design_point(self):
        config = AcceleratorConfig()
        assert config.n_grid_cores == 4
        assert config.total_grid_sram_bytes == 4 * 8 * 32 * 1024     # 1 MB
        assert 1.0e6 < config.total_sram_bytes < 2.0e6               # ~1.5 MB total
        assert config.frequency_hz == pytest.approx(800e6)

    def test_without_helper(self):
        config = AcceleratorConfig().without(frm=True, bum=True)
        assert not config.frm_enabled and not config.bum_enabled
        assert config.fusion_enabled

    def test_grid_core_config_validation(self):
        with pytest.raises(ValueError):
            GridCoreConfig(n_banks=0)
        with pytest.raises(ValueError):
            MLPUnitConfig(utilization=0.0)
