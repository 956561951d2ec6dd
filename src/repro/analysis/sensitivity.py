"""Color-vs-density learning-pace study (Sec. 3.1 / Fig. 5).

The paper's motivating observation: under the same number of training
iterations, the reconstructed RGB images (driven by the color features) are
closer to ground truth than the depth images (driven by the learned density),
i.e. color is learned at a faster pace and is therefore less sensitive to
compression.  :func:`learning_pace_study` reproduces the quantified version:
train a model while periodically evaluating both RGB PSNR and depth PSNR on
held-out views, then report the two trajectories and the iteration at which
each crosses a target quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets.dataset import SceneDataset
from repro.training.trainer import Trainer


@dataclass
class LearningPaceResult:
    """RGB and depth PSNR trajectories of one training run."""

    scene: str
    iterations: List[int] = field(default_factory=list)
    rgb_psnrs: List[float] = field(default_factory=list)
    depth_psnrs: List[float] = field(default_factory=list)

    def iterations_to_reach(self, target_psnr: float, metric: str = "rgb") -> Optional[int]:
        """First evaluated iteration at which the metric reaches ``target_psnr``."""
        values = self.rgb_psnrs if metric == "rgb" else self.depth_psnrs
        for iteration, value in zip(self.iterations, values):
            if value >= target_psnr:
                return iteration
        return None

    @property
    def final_rgb_psnr(self) -> float:
        return self.rgb_psnrs[-1] if self.rgb_psnrs else float("nan")

    @property
    def mean_rgb_lead(self) -> float:
        """Average PSNR lead of color over density along the trajectory."""
        if not self.iterations:
            return float("nan")
        return float(np.mean(np.asarray(self.rgb_psnrs) - np.asarray(self.depth_psnrs)))


def learning_pace_study(dataset: SceneDataset, config: Instant3DConfig,
                        n_iterations: int, eval_every: int,
                        seed: int = 0, eval_views: int = 1,
                        eval_samples: int = 48) -> LearningPaceResult:
    """Train on one scene and record RGB/depth PSNR over the trajectory."""
    if eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    model = DecoupledRadianceField(config, seed=seed)
    trainer = Trainer(model, dataset, config=config, seed=seed)
    result = trainer.train(n_iterations, eval_every=eval_every,
                           eval_views=eval_views, eval_samples=eval_samples)
    history = result.history
    iterations = list(history.eval_iterations)
    rgb = list(history.eval_rgb_psnrs)
    depth = list(history.eval_depth_psnrs)
    # Always include the final evaluation as the last trajectory point.
    if not iterations or iterations[-1] != result.n_iterations:
        iterations.append(result.n_iterations)
        rgb.append(result.final_eval.rgb_psnr)
        depth.append(result.final_eval.depth_psnr)
    return LearningPaceResult(
        scene=dataset.name,
        iterations=iterations,
        rgb_psnrs=rgb,
        depth_psnrs=depth,
    )
