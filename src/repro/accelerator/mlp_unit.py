"""MLP compute units: a systolic array and a multiplier-adder tree.

Step ❸-② evaluates two small MLP heads per queried point.  The accelerator
uses two unit types (Sec. 4.3): an FP16 systolic array (64x64 by default,
:class:`~repro.accelerator.config.MLPUnitConfig`) for layers with more than
three output channels, and a multiplier-adder tree for layers with three or
fewer output channels (e.g. the final RGB layer), where a systolic
array would be mostly idle.  :class:`MLPEngine` routes each layer to the
better unit and reports total cycles for a batch of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.accelerator.config import MLPUnitConfig


@dataclass
class MLPLayerShape:
    """Shape of one dense layer as executed per point batch."""

    in_features: int
    out_features: int

    @property
    def macs_per_point(self) -> int:
        return self.in_features * self.out_features


class SystolicArrayUnit:
    """Weight-stationary FP16 systolic array cycle model."""

    def __init__(self, rows: int, cols: int, utilization: float = 0.85):
        if rows < 1 or cols < 1:
            raise ValueError("systolic array dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.utilization = float(utilization)

    def cycles_for_layer(self, layer: MLPLayerShape, n_points: int) -> int:
        """Cycles to run ``n_points`` through one dense layer.

        The array processes ``rows`` input channels x ``cols`` output channels
        per pass; a batch streams through with one point per cycle per pass,
        plus the pipeline fill latency.
        """
        in_tiles = int(np.ceil(layer.in_features / self.rows))
        out_tiles = int(np.ceil(layer.out_features / self.cols))
        passes = in_tiles * out_tiles
        fill_latency = self.rows + self.cols
        streaming = int(np.ceil(n_points / self.utilization))
        return passes * (streaming + fill_latency)


class AdderTreeUnit:
    """Multiplier-adder-tree cycle model for small-output-channel layers."""

    def __init__(self, n_macs: int, utilization: float = 0.85):
        if n_macs < 1:
            raise ValueError("n_macs must be positive")
        self.n_macs = int(n_macs)
        self.utilization = float(utilization)

    def cycles_for_layer(self, layer: MLPLayerShape, n_points: int) -> int:
        """Cycles to run ``n_points`` through one dense layer on the adder tree."""
        macs = layer.macs_per_point * n_points
        throughput = self.n_macs * self.utilization
        tree_depth = max(int(np.ceil(np.log2(max(layer.in_features, 2)))), 1)
        return int(np.ceil(macs / throughput)) + tree_depth


class MLPEngine:
    """Routes MLP layers to the systolic array or the adder tree (Sec. 4.3)."""

    #: Layers with at most this many output channels go to the adder tree.
    SMALL_OUTPUT_THRESHOLD = 3

    def __init__(self, config: MLPUnitConfig):
        self.config = config
        self.systolic = SystolicArrayUnit(config.systolic_rows, config.systolic_cols,
                                          config.utilization)
        self.adder_tree = AdderTreeUnit(config.adder_tree_macs, config.utilization)

    def route(self, layer: MLPLayerShape) -> str:
        """Which unit a layer runs on (``"systolic"`` or ``"adder_tree"``)."""
        if layer.out_features <= self.SMALL_OUTPUT_THRESHOLD:
            return "adder_tree"
        return "systolic"

    def cycles_for_layers(self, layers: Sequence[MLPLayerShape], n_points: int
                          ) -> Tuple[int, List[Tuple[str, int]]]:
        """Total cycles and the per-layer (unit, cycles) routing decisions."""
        total = 0
        routing: List[Tuple[str, int]] = []
        for layer in layers:
            unit = self.route(layer)
            if unit == "adder_tree":
                cycles = self.adder_tree.cycles_for_layer(layer, n_points)
            else:
                cycles = self.systolic.cycles_for_layer(layer, n_points)
            routing.append((unit, cycles))
            total += cycles
        return total, routing
