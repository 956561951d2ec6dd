"""Memory-access-pattern analyses of the embedding-grid interpolation.

Sec. 4.2 of the paper makes three observations that motivate the FRM and BUM
units; this module measures all three on real address traces:

1. **Grouping (Fig. 8)** — the eight neighbouring vertex addresses of a
   queried point form four groups of two: the members of a group share their
   y and z coordinates and differ only along x, so (because ``pi1 = 1`` in
   the spatial hash) their addresses are close, while different groups are
   pushed far apart by the large y/z primes.
2. **Intra-group locality (Fig. 9)** — more than 90 % of intra-group address
   distances fall within [-5, 5], consistently across training iterations.
3. **Back-propagation sharing (Fig. 10)** — inside a sliding window of 1000
   consecutive accesses, feed-forward reads are almost all unique while
   back-propagation updates revisit a much smaller set of addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.grid.hash_encoding import GridAccessRecord

#: Corner indices per group: corners that share y and z and differ only in x.
#: With the corner order of :data:`repro.grid.interpolation.CORNER_OFFSETS`
#: (x is the least-significant bit) these are consecutive pairs.
GROUP_CORNER_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))


@dataclass
class AddressGroupStats:
    """Distance statistics of the four address groups of one trace."""

    mean_intra_group_distance: float
    mean_inter_group_distance: float
    fraction_intra_within_threshold: float
    n_points: int


@dataclass
class SlidingWindowStats:
    """Unique-address counts inside sliding windows (Fig. 10)."""

    window: int
    unique_counts: List[int]

    @property
    def mean_unique(self) -> float:
        return float(np.mean(self.unique_counts)) if self.unique_counts else 0.0


def group_vertex_addresses(record: GridAccessRecord, level: int) -> np.ndarray:
    """Arrange one level's addresses as ``(N, 4 groups, 2 members)``."""
    addresses = record.addresses[level]
    grouped = np.empty((addresses.shape[0], 4, 2), dtype=np.int64)
    for group_idx, (a, b) in enumerate(GROUP_CORNER_PAIRS):
        grouped[:, group_idx, 0] = addresses[:, a]
        grouped[:, group_idx, 1] = addresses[:, b]
    return grouped


def intra_group_distances(record: GridAccessRecord, level: int) -> np.ndarray:
    """Signed address distances between the two members of each group."""
    grouped = group_vertex_addresses(record, level)
    return (grouped[:, :, 1] - grouped[:, :, 0]).reshape(-1)


def inter_group_distances(record: GridAccessRecord, level: int) -> np.ndarray:
    """Absolute address distances between the four group centroids of each point."""
    grouped = group_vertex_addresses(record, level)
    centroids = grouped.mean(axis=2)                   # (N, 4)
    diffs = []
    for i in range(4):
        for j in range(i + 1, 4):
            diffs.append(np.abs(centroids[:, i] - centroids[:, j]))
    return np.concatenate(diffs)


def intra_group_within_threshold(record: GridAccessRecord, level: int,
                                 threshold: int = 5) -> float:
    """Fraction of intra-group distances whose magnitude is <= ``threshold``."""
    distances = intra_group_distances(record, level)
    if distances.size == 0:
        return float("nan")
    return float(np.mean(np.abs(distances) <= threshold))


def address_group_stats(record: GridAccessRecord, level: int,
                        threshold: int = 5) -> AddressGroupStats:
    """Summary statistics reproducing the observations of Figs. 8 and 9."""
    intra = intra_group_distances(record, level)
    inter = inter_group_distances(record, level)
    return AddressGroupStats(
        mean_intra_group_distance=float(np.mean(np.abs(intra))) if intra.size else float("nan"),
        mean_inter_group_distance=float(np.mean(inter)) if inter.size else float("nan"),
        fraction_intra_within_threshold=intra_group_within_threshold(record, level, threshold),
        n_points=record.n_points,
    )


def sliding_window_unique_addresses(addresses: Sequence[int], window: int = 1000,
                                    stride: int = 1000) -> SlidingWindowStats:
    """Count unique addresses inside sliding windows of ``window`` accesses."""
    addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be positive")
    counts: List[int] = []
    for start in range(0, max(addresses.size - window + 1, 1), stride):
        chunk = addresses[start:start + window]
        if chunk.size == 0:
            break
        counts.append(int(np.unique(chunk).size))
    return SlidingWindowStats(window=window, unique_counts=counts)


def forward_backward_window_comparison(read_addresses: np.ndarray,
                                       write_addresses: np.ndarray,
                                       window: int = 1000) -> Dict[str, SlidingWindowStats]:
    """The Fig. 10 comparison: unique addresses per window, forward vs backward."""
    return {
        "feed_forward": sliding_window_unique_addresses(read_addresses, window=window),
        "back_propagation": sliding_window_unique_addresses(write_addresses, window=window),
    }
