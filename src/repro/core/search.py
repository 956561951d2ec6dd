"""Grid search over decomposition ratios (Sec. 5.1 of the paper).

The paper selects ``S_D : S_C = 1 : 0.25`` and ``F_D : F_C = 1 : 0.5`` by a
grid search over {1:0.125, 1:0.25, 1:0.5, 1:0.75} that keeps the most
compressive configuration whose PSNR matches the Instant-NGP baseline.
:func:`grid_ratio_search` reproduces that selection rule for arbitrary
candidate lists, given callables that evaluate PSNR and (modelled) runtime of
a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.core.config import Instant3DConfig


@dataclass(frozen=True)
class RatioSearchResult:
    """Outcome of the decomposition-ratio grid search."""

    selected: Instant3DConfig
    baseline_psnr: float
    candidates: Tuple[Tuple[Instant3DConfig, float, float], ...]
    """Evaluated candidates as ``(config, psnr, runtime)`` tuples."""

    @property
    def selected_runtime(self) -> float:
        for config, _, runtime in self.candidates:
            if config is self.selected:
                return runtime
        raise LookupError("selected config missing from candidates")


def grid_ratio_search(
    base_config: Instant3DConfig,
    evaluate_psnr: Callable[[Instant3DConfig], float],
    evaluate_runtime: Callable[[Instant3DConfig], float],
    size_ratios: Sequence[float] = (0.125, 0.25, 0.5, 0.75, 1.0),
    update_ratios: Sequence[float] = (0.5, 1.0),
    psnr_tolerance: float = 0.15,
) -> RatioSearchResult:
    """Select the fastest configuration whose PSNR matches the baseline.

    Parameters
    ----------
    base_config:
        Configuration whose 1:1 / 1:1 variant defines the baseline quality.
    evaluate_psnr / evaluate_runtime:
        Callables mapping a configuration to its reconstruction PSNR and its
        (modelled) training runtime.  The benchmarks pass a short training
        run and a device-model estimate respectively.
    size_ratios / update_ratios:
        Candidate ``S_C/S_D`` and ``F_C/F_D`` values (the paper's lists).
    psnr_tolerance:
        Maximum PSNR drop (dB) relative to the baseline that still counts as
        "maintaining the same reconstruction quality".
    """
    baseline = base_config.with_ratios(color_size_ratio=1.0, color_update_freq=1.0)
    baseline_psnr = float(evaluate_psnr(baseline))
    baseline_runtime = float(evaluate_runtime(baseline))

    candidates: List[Tuple[Instant3DConfig, float, float]] = [
        (baseline, baseline_psnr, baseline_runtime)
    ]
    for size_ratio in size_ratios:
        for update_ratio in update_ratios:
            if size_ratio == 1.0 and update_ratio == 1.0:
                continue
            config = base_config.with_ratios(
                color_size_ratio=size_ratio, color_update_freq=update_ratio
            )
            candidates.append(
                (config, float(evaluate_psnr(config)), float(evaluate_runtime(config)))
            )

    acceptable = [
        entry for entry in candidates
        if entry[1] >= baseline_psnr - psnr_tolerance
    ]
    # Fall back to the baseline if nothing else maintains quality.
    pool = acceptable if acceptable else [candidates[0]]
    selected = min(pool, key=lambda entry: entry[2])[0]
    return RatioSearchResult(
        selected=selected,
        baseline_psnr=baseline_psnr,
        candidates=tuple(candidates),
    )
