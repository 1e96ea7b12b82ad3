"""The zero-shot rule on a single input, for tests (test-only).

The library scores whole batches in ``evaluation.evaluate_zero_shot``; these
tests state the rule one input at a time, through the same scoring path.
"""
import numpy as np

from mmclab import DimensionError
from mmclab.evaluation import _predict, _prompt_factor


def zero_shot_predict(model, x_image, prompts, params) -> int:
    """Predicted class of ``params.classes``: argmax_y x^T G p_y, with one prompt row
    per class (ties to the lowest class)."""
    x = np.asarray(x_image, dtype=float)
    if x.shape != (model.G.shape[0],):
        raise DimensionError(f"input shape {x.shape} does not match G {model.G.shape}")
    if prompts.shape[1] != model.G.shape[1]:
        raise DimensionError("prompt dimension does not match G")
    factor = _prompt_factor(prompts, params)
    return int(_predict((model.G, factor), params.classes, x[None, :])[0])
