"""The zero-shot rule on a single input, for tests (test-only).

The library scores whole batches in ``evaluation.evaluate_zero_shot``; these
tests state the rule one input at a time, through the same scoring path.
"""
import numpy as np

from mmclab import DimensionError
from mmclab.evaluation import _predict


def zero_shot_predict(model, x_image, prompts) -> int:
    """Predicted class: argmax_y x^T G p_y (ties to the lowest class)."""
    x = np.asarray(x_image, dtype=float)
    if x.shape != (model.G.shape[0],):
        raise DimensionError(f"input shape {x.shape} does not match G {model.G.shape}")
    if prompts.prompts.shape[1] != model.G.shape[1]:
        raise DimensionError("prompt dimension does not match G")
    return int(_predict((model.G, prompts.prompts.T), prompts.classes, x[None, :])[0])
