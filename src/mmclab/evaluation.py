"""Zero-shot prompts, classification rules, and grouped accuracy reports on the
training (ID) and true (OOD) distributions.

All three rules (x G P^T, x W, x W_enc^T W) score through one path, which
multiplies the factors left to right in the old order; that is why the CSV bytes hold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import (DataModel1Params, DataModel2Params, LatentBatch,
                      ModalityConfig, PairedDataset, enumerate_latents_dm2,
                      project_latents, sample_latents_dm1, sample_latents_dm2)
from .errors import ArgumentError, ConfigurationError, DimensionError, NumericError
from .numerics import Dictionary, RngStream, _readonly
from .training import MMCLModel, SLModel, SupConEncoder

@dataclass(frozen=True)
class PromptSet:
    """One text prompt per class: p_y = D_T zbar_y, with zbar_y the latent
    class mean under the true distribution."""

    classes: tuple               # ascending; argmax ties resolve to the first
    prompts: np.ndarray          # n_classes x d_T

    def __post_init__(self):
        object.__setattr__(self, "prompts", _readonly(self.prompts))


def build_prompts(params, text_dictionary: Dictionary) -> PromptSet:
    """Prompts for every class of a data model.

    Model 1: zbar_{+-1} = [+-1, 0]. Model 2: zbar for class (k, c) = c e_k
    (the spurious coordinate has mean zero under the true distribution).
    """
    if text_dictionary.latent_dim != params.l:
        raise DimensionError(
            f"dictionary latent dim {text_dictionary.latent_dim} != model dim {params.l}")
    if isinstance(params, DataModel1Params):
        classes = (-1, 1)
        means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    elif isinstance(params, DataModel2Params):
        classes = tuple(range(1, 2 * params.m + 1))
        means = np.zeros((2 * params.m, params.l))
        for y in classes:
            k, c = params.alias(y)
            means[y - 1, k - 1] = c
    else:
        raise ArgumentError(f"unsupported params type {type(params).__name__}")
    return PromptSet(classes=classes, prompts=means @ text_dictionary.matrix.T)


@dataclass(frozen=True)
class EvalSampler:
    """Where evaluation inputs come from: data-model parameters, a split, and
    the image-side projection config. ``exhaustive`` enumerates model 2 instead
    of sampling."""

    params: object
    split: str
    image_cfg: ModalityConfig
    exhaustive: bool = False

    def draw(self, n_eval: int | None, rng: RngStream | None) -> LatentBatch:
        if self.exhaustive:
            if isinstance(self.params, DataModel1Params):
                raise ConfigurationError("model 1 has no exhaustive evaluation mode")
            return enumerate_latents_dm2(self.params, self.split)
        if n_eval is None or n_eval < 1:
            raise ArgumentError("sampled evaluation needs n_eval >= 1")
        if rng is None:
            raise ArgumentError("sampled evaluation requires an RngStream")
        sample = (sample_latents_dm1 if isinstance(self.params, DataModel1Params)
                  else sample_latents_dm2)
        return sample(self.params, n_eval, self.split, rng)


@dataclass(frozen=True)
class GroupStat:
    """One group's accuracy; ``mc_radius`` is its 95% Wilson score half-width."""

    accuracy: float
    count: int
    mc_radius: float
    minority: bool


@dataclass(frozen=True)
class EvalReport:
    """Overall and per-group accuracy with Monte Carlo confidence radii.

    Group keys: model 1 uses (y, a) pairs; model 2 uses the class label plus
    whether the spurious coordinate agreed with it. ``mc_radius`` is the 95%
    Wilson score half-width (Wilson 1927), positive even at accuracy 0 or 1.
    """

    overall_accuracy: float
    groups: dict[str, GroupStat]
    n_eval: int
    mc_radius: float
    split: str

    def minority_accuracy(self) -> float:
        """Count-weighted accuracy over groups where the spurious cue fails."""
        hits = sum(g.accuracy * g.count for g in self.groups.values() if g.minority)
        total = sum(g.count for g in self.groups.values() if g.minority)
        if total == 0:
            raise ArgumentError("no minority examples in this evaluation")
        return hits / total


def _wilson_radius(acc: float, n: int, z: float = 1.96) -> float:
    return z / (1.0 + z * z / n) * np.sqrt(acc * (1.0 - acc) / n + z * z / (4.0 * n * n))


def _report(correct: np.ndarray, batch: LatentBatch, split: str) -> EvalReport:
    n = len(batch)
    # one group index per row, and (name, minority) per index: model 1 by
    # (y, a), model 2 by class and whether the spurious coordinate agrees with it
    if batch.model == "dm1":
        gid = 2 * (batch.y > 0) + (batch.a > 0)
        cells = [(f"y={y:+d},a={a:+d}", a != y) for y in (-1, 1) for a in (-1, 1)]
    else:
        classes, inverse = np.unique(batch.y, return_inverse=True)
        gid = 2 * inverse + ~batch.spurious_agrees()
        cells = [(f"y={int(y)},spu={tag}", minority) for y in classes
                 for tag, minority in (("agree", False), ("flip", True))]
    # hit counts are exact integers in float64, so hit / cnt is the group mean
    counts = np.bincount(gid, minlength=len(cells)).tolist()
    hits = np.bincount(gid, weights=correct, minlength=len(cells)).tolist()
    groups = {}
    for (name, minority), cnt, hit in zip(cells, counts, hits):
        if cnt == 0:
            continue
        acc = hit / cnt
        groups[name] = GroupStat(acc, cnt, _wilson_radius(acc, cnt), minority=minority)
    overall = float(correct.mean())
    return EvalReport(overall_accuracy=overall, groups=groups, n_eval=n,
                      mc_radius=_wilson_radius(overall, n), split=split)


def _predict(factors: tuple, classes: tuple, x: np.ndarray) -> np.ndarray:
    """Labels of x @ factors[0] @ ... @ factors[-1], multiplied left to right: the sign
    rule when the last factor has one column (0 goes to classes[0]), else argmax."""
    *head, last = factors
    for factor in head:
        x = x @ factor
    if last.shape[1] == 1:
        raw = np.sign(x @ last[:, 0])
        return np.where(raw == 0, classes[0], raw).astype(int)
    scores = x @ last
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite classification scores")
    picks = scores.argmax(axis=1)  # first (lowest-class) winner on exact ties
    return np.asarray(classes)[picks]


def _evaluate(factors: tuple, classes: tuple, sampler: EvalSampler,
              n_eval: int | None, rng: RngStream | None) -> EvalReport:
    """Draw and project evaluation inputs, and report the accuracy of :func:`_predict`."""
    if sampler.image_cfg.ambient_dim != factors[0].shape[0]:
        raise ConfigurationError(f"image dim {sampler.image_cfg.ambient_dim} does not "
                                 f"match the rule's input dim {factors[0].shape[0]}")
    batch = sampler.draw(n_eval, None if rng is None else rng.child(11))
    noise_rng = None if rng is None else rng.child(12)
    x = project_latents(batch.z, sampler.image_cfg, noise_rng)
    pred = _predict(factors, classes, x)
    return _report(pred == batch.y, batch, sampler.split)


def evaluate_zero_shot(model: MMCLModel, prompts: PromptSet, sampler: EvalSampler,
                       n_eval: int | None = None,
                       rng: RngStream | None = None) -> EvalReport:
    """Grouped zero-shot accuracy of a contrastive model on fresh inputs."""
    return _evaluate((model.G, prompts.prompts.T), prompts.classes, sampler, n_eval, rng)


def evaluate_sl(model: SLModel, sampler: EvalSampler, n_eval: int | None = None,
                rng: RngStream | None = None) -> EvalReport:
    """Grouped accuracy of a supervised linear model (sign or argmax rule)."""
    return _evaluate((model.W,), model.classes, sampler, n_eval, rng)


def evaluate_probe(encoder: SupConEncoder, probe: SLModel, sampler: EvalSampler,
                   n_eval: int | None = None,
                   rng: RngStream | None = None) -> EvalReport:
    """Grouped accuracy of a linear probe on frozen encoder representations."""
    return _evaluate((encoder.W.T, probe.W), probe.classes, sampler, n_eval, rng)


@dataclass(frozen=True)
class GroupGeometry:
    """Collinearity diagnostics of the four (c, spurious-sign) group means."""

    residual: float
    ordering: tuple                 # (c, sign) keys by increasing line coordinate
    coefficients: dict              # (c, sign) -> mean line coordinate across k


def supcon_group_geometry(encoder: SupConEncoder, data: PairedDataset) -> GroupGeometry:
    """Line fit through the four group-mean representations per class pair.

    For each core coordinate k, examples split into groups by (c, sign of the
    spurious coordinate); their mean representations are projected on the best
    line through them. ``residual`` is the worst distance to the line across
    all k; the ordering of the four line coordinates is shared across k and
    orientation-fixed so that (+1, +1) exceeds (-1, -1).
    """
    batch = data.latents
    if batch.model != "dm2":
        raise ArgumentError("group geometry requires model-2 data")
    m = batch.l // 2
    spu_sign = np.sign(batch.z[np.arange(len(batch)), batch.k - 1 + m]).astype(int)
    reps = encoder.transform(data.x_image)
    keys = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    worst = 0.0
    coeff_sums = {key: 0.0 for key in keys}
    ordering = None
    for k in range(1, m + 1):
        points = []
        for c, s in keys:
            sel = (batch.k == k) & (batch.c == c) & (spu_sign == s)
            if not sel.any():
                raise ArgumentError(f"group (k={k}, c={c:+d}, sign={s:+d}) is empty; "
                                    "both spurious signs must be present")
            points.append(reps[sel].mean(axis=0))
        pts = np.stack(points)
        center = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - center)
        direction = vt[0]
        coords = (pts - center) @ direction
        if coords[keys.index((1, 1))] < coords[keys.index((-1, -1))]:
            coords = -coords
        resid = np.linalg.norm((pts - center) - np.outer(coords, direction), axis=1)
        worst = max(worst, float(resid.max()))
        order_k = tuple(keys[i] for i in np.argsort(coords, kind="stable"))
        if ordering is None:
            ordering = order_k
        for key, val in zip(keys, coords):
            coeff_sums[key] += float(val)
    coefficients = {key: val / m for key, val in coeff_sums.items()}
    return GroupGeometry(residual=worst, ordering=ordering, coefficients=coefficients)
