"""Zero-shot prompts, classification rules, and grouped accuracy reports on the
training (ID) and true (OOD) distributions.

All three rules (x G P^T, x W, x W_enc^T W) score through one path. Noiseless inputs
are multiplied by the factors left to right with ``np.dot``, in the old order, which keeps
the CSV bytes and exact argmax ties; noisy scores x R are drawn exactly in law in R's image.
A zero-shot rule with the model-2 pair structure on noiseless inputs can instead
be counted exactly (:func:`count_zero_shot`), at any m.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .datagen import (DataModel1Params, DataModel2Params, LatentBatch,
                      ModalityConfig, PairedDataset, _check_split, enumerate_latents_dm2,
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
    return PromptSet(classes=classes, prompts=np.dot(means, text_dictionary.matrix.T))


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


def _predict(factors: tuple, classes: tuple, scores: np.ndarray) -> np.ndarray:
    """Labels of scores factors[0] ... factors[-1], multiplied left to right by np.dot
    (the scores themselves for no factors): the sign rule when the product has one
    column (0 goes to classes[0]), else argmax. Non-finite scores raise."""
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite scores raise below
        for factor in factors:
            scores = np.dot(scores, factor)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite classification scores")
    if scores.shape[1] == 1:
        raw = np.sign(scores[:, 0])  # np.dot by a d x 1 factor is the gemv of its column
        return np.where(raw == 0, classes[0], raw).astype(int)
    picks = scores.argmax(axis=1)  # first (lowest-class) winner on exact ties
    return np.asarray(classes)[picks]


def _check_input_dim(sampler: EvalSampler, rule: np.ndarray):
    if sampler.image_cfg.ambient_dim != rule.shape[0]:
        raise ConfigurationError(f"image dim {sampler.image_cfg.ambient_dim} does not "
                                 f"match the rule's input dim {rule.shape[0]}")


def _evaluate(factors: tuple, classes: tuple, sampler: EvalSampler,
              n_eval: int | None, rng: RngStream | None) -> EvalReport:
    """Report the accuracy of :func:`_predict` on fresh inputs. Noisy scores are drawn in
    the image of the factors' product (:func:`project_latents`), noiseless ones chained."""
    _check_input_dim(sampler, factors[0])
    batch = sampler.draw(n_eval, None if rng is None else rng.child(11))
    noise_rng = None if rng is None else rng.child(12)
    rule = reduce(np.dot, factors) if sampler.image_cfg.noise_sigma > 0 else None
    scores = project_latents(batch.z, sampler.image_cfg, noise_rng, rule)
    pred = _predict(factors if rule is None else (), classes, scores)
    return _report(pred == batch.y, batch, sampler.split)


def evaluate_zero_shot(model: MMCLModel, prompts: PromptSet, sampler: EvalSampler,
                       n_eval: int | None = None,
                       rng: RngStream | None = None) -> EvalReport:
    """Grouped zero-shot accuracy of a contrastive model on fresh inputs."""
    return _evaluate((model.G, prompts.prompts.T), prompts.classes, sampler, n_eval, rng)


# largest deviation from the pair structure, relative to the largest latent score,
# that count_zero_shot accepts; the analytic fits deviate by rounding only (~1e-16)
_PAIR_RTOL = 1e-12


def pair_rule_hits_dm2(u: float, v: float, params: DataModel2Params, split: str,
                       tol: float = 0.0) -> dict:
    """How many of each group's 4^(m-1) rows of a model-2 split the pair rule,
    in which class (k, c) scores c (u z_k + v z_{k+m}), classifies correctly:
    ``{(y, agrees): hits}``, with ``agrees`` whether the rows' spurious
    coordinate agrees with their class.

    Scores are compared as exact rationals of the float latent values that
    :func:`enumerate_latents_dm2` builds. A row of class y = (k, c) scores
    own = u + v alpha on its class where the spurious coordinate agrees and
    u - v alpha where it flips. Its partner (k, -c) scores -own. Each other
    pair k' scores +-w, where |w| is |beta u + v beta alpha| in two of the four
    sign patterns of its coordinates and |beta u - v beta alpha| in the other
    two. Argmax ties go to the lowest class, so pair k' loses to the row when
    |w| < own, or when |w| == own and k' > k. The pairs vary independently, so
    a group's hits are the product over the other pairs of 0, 2 or 4 patterns.

    With ``tol`` > 0, any gap of at most ``tol`` between own and a rival score
    raises ``ArgumentError``: a rule that is pair-structured only up to that
    residual may rank such a near-tie either way.
    """
    _check_split(split)
    u, v = Fraction(u), Fraction(v)
    alpha, shared = Fraction(params.alpha), Fraction(params.beta * params.alpha)
    rivals = (abs(Fraction(params.beta) * u + v * shared),
              abs(Fraction(params.beta) * u - v * shared))
    # agrees -> (own score, patterns a lower pair loses in, same for a higher pair)
    cases = {}
    for agrees in (True, False) if split == "true" else (True,):
        own = u + v * alpha if agrees else u - v * alpha
        if tol > 0 and any(abs(own - r) <= tol for r in (-own, *rivals, *(-r for r in rivals))):
            raise ArgumentError(f"a rival score lies within {tol:.3g} of the own-class "
                                "score, inside the rule's deviation from the pair "
                                "structure; the count cannot rank it exactly")
        cases[agrees] = (own, sum(2 for r in rivals if r < own),
                         sum(2 for r in rivals if r <= own))
    hits = {}
    for y in range(1, 2 * params.m + 1):
        k, c = params.alias(y)
        for agrees, (own, lower, higher) in cases.items():
            beats_partner = own > 0 or (own == 0 and c == 1)
            hits[y, agrees] = beats_partner * lower ** (k - 1) * higher ** (params.m - k)
    return hits


def count_zero_shot(model: MMCLModel, prompts: PromptSet,
                    sampler: EvalSampler) -> EvalReport:
    """Exact grouped zero-shot accuracy on noiseless model-2 inputs, by counting.

    The latent score matrix D_I^T G P^T must give class (k, c) the score
    c (u z_k + v z_{k+m}) (an ``ArgumentError`` otherwise), as the analytic fit
    does at p_dim = 2m; u and v are read off class 1. Each group's accuracy is
    then counted by :func:`pair_rule_hits_dm2`, which refuses any near-tie
    within the measured deviation from that structure. Counted values are exact,
    so every radius is 0.
    """
    params = sampler.params
    if not isinstance(params, DataModel2Params) or sampler.image_cfg.noise_sigma > 0:
        raise ConfigurationError("counting needs noiseless model-2 evaluation inputs")
    _check_input_dim(sampler, model.G)
    scores = np.dot(np.dot(sampler.image_cfg.dictionary.matrix.T, model.G), prompts.prompts.T)
    m = params.m
    u, v = float(scores[0, 0]), float(scores[m, 0])
    pair = np.zeros_like(scores)
    for y in prompts.classes:
        k, c = params.alias(y)
        pair[[k - 1, k - 1 + m], y - 1] = c * u, c * v
    residual = float(np.abs(scores - pair).max())
    if not residual <= _PAIR_RTOL * np.abs(scores).max():
        raise ArgumentError(f"the zero-shot rule is not pair-structured: its latent "
                            f"scores deviate by {residual:.3g} from c (u z_k + v z_k+m)")
    # a latent row's l1 norm bounds how far the residual can move any of its scores
    l1 = 1 + params.alpha + (m - 1) * (params.beta + params.beta * params.alpha)
    hits = pair_rule_hits_dm2(u, v, params, sampler.split, tol=2 * residual * l1)
    rows = 4 ** (m - 1)  # per group, as enumeration builds them
    # int / int is correctly rounded, as enumeration's hit / cnt is
    groups = {f"y={y},spu={'agree' if agrees else 'flip'}":
              GroupStat(hit / rows, rows, 0.0, minority=not agrees)
              for (y, agrees), hit in hits.items()}
    n = rows * len(hits)
    return EvalReport(overall_accuracy=sum(hits.values()) / n, groups=groups, n_eval=n,
                      mc_radius=0.0, split=sampler.split)


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
        coords = np.dot(pts - center, direction)
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
