"""Zero-shot prompts, classification rules, and grouped accuracy reports on the
training (ID) and true (OOD) distributions.

All three rules (x G P^T, x W, x W_enc^T W) score through one path. Noiseless inputs are
multiplied by the factors left to right with ``np.dot``: enumerated inputs tie exactly under
argmax, and a product of the factors taken first rounds differently and can split such a tie.
Noisy scores x R are drawn exactly in law in R's image.
A zero-shot rule with the model-2 pair structure on noiseless inputs can instead
be counted exactly (:func:`count_zero_shot`), at any m.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .datagen import DataModel2Params, ModalityConfig, PairedDataset, _check_split, project_latents
from .errors import ArgumentError, ConfigurationError, DimensionError, NumericError
from .numerics import Dictionary, RngStream, _readonly
from .training import MMCLModel, SLModel, SupConEncoder

def build_prompts(params, text_dictionary: Dictionary) -> np.ndarray:
    """Read-only n_classes x d_T prompts in ``params.classes`` order: p_y = D_T zbar_y,
    with zbar_y the class's true-split latent mean (``params.class_means()``)."""
    if text_dictionary.latent_dim != params.l:
        raise DimensionError(
            f"dictionary latent dim {text_dictionary.latent_dim} != model dim {params.l}")
    return _readonly(np.dot(params.class_means(), text_dictionary.matrix.T))


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


def _groups(params) -> dict:
    """Each report group's key -> (name, minority), in report order: model 1 by
    (y, a), model 2 by (class, whether the spurious coordinate agrees with it)."""
    if params.model == "dm1":
        return {(y, a): (f"y={y:+d},a={a:+d}", a != y) for y in params.classes for a in (-1, 1)}
    return {(y, agrees): (f"y={y},spu={'agree' if agrees else 'flip'}", not agrees)
            for y in params.classes for agrees in (True, False)}


def _report(params, split: str, counts, hits, exact: bool = False) -> EvalReport:
    """A report from each group's row and hit counts, in the order of :func:`_groups`.
    Empty groups are left out; an ``exact`` report has every radius 0."""
    radius = (lambda acc, n: 0.0) if exact else _wilson_radius
    groups = {}
    for (name, minority), cnt, hit in zip(_groups(params).values(), counts, hits):
        if cnt:
            groups[name] = GroupStat(hit / cnt, cnt, radius(hit / cnt, cnt), minority)
    n = sum(counts)
    overall = sum(hits) / n
    return EvalReport(overall_accuracy=overall, groups=groups, n_eval=n,
                      mc_radius=radius(overall, n), split=split)


def _predict(factors: tuple, classes: tuple, scores: np.ndarray) -> np.ndarray:
    """Labels of scores factors[0] ... factors[-1], multiplied left to right by np.dot
    (the scores themselves for no factors): the sign rule when the product has one
    column (0 goes to classes[0]), else argmax's first (lowest-class) winner on exact ties,
    for two columns by one comparison, without argmax's per-row loop. Non-finite scores raise."""
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite scores raise below
        for factor in factors:
            scores = np.dot(scores, factor)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite classification scores")
    if scores.shape[1] == 1:
        raw = np.sign(scores[:, 0])  # np.dot by a d x 1 factor is the gemv of its column
        return np.where(raw == 0, classes[0], raw).astype(int)
    if scores.shape[1] == 2:  # a tie, +-0.0 too, goes to classes[0] as under argmax
        return np.asarray(classes)[(scores[:, 1] > scores[:, 0]).astype(np.intp)]
    return np.asarray(classes)[scores.argmax(axis=1)]


def _check_input_dim(image_cfg: ModalityConfig, rule: np.ndarray):
    if image_cfg.ambient_dim != rule.shape[0]:
        raise ConfigurationError(f"image dim {image_cfg.ambient_dim} does not "
                                 f"match the rule's input dim {rule.shape[0]}")


def _prompt_factor(prompts: np.ndarray, params) -> np.ndarray:
    """The prompts as a rule's last factor, C-order, one column per class of ``params``.
    Any other row count raises: its columns would score the wrong classes."""
    if prompts.shape[0] != len(params.classes):
        raise DimensionError(f"{prompts.shape[0]} prompts for the {len(params.classes)} "
                             f"classes {params.classes}")
    return prompts.T.copy()


def _evaluate(factors: tuple, classes: tuple, params, split: str, image_cfg: ModalityConfig,
              n_eval: int | None, rng: RngStream | None) -> EvalReport:
    """Report the accuracy of :func:`_predict` on fresh inputs of a split: n_eval draws,
    or with n_eval None every model-2 row once. Noisy scores are drawn in the image of
    the factors' product (:func:`project_latents`), noiseless ones chained."""
    _check_input_dim(image_cfg, factors[0])
    batch = params.draw(split, n_eval, None if rng is None else rng.child(11))
    noise_rng = None if rng is None else rng.child(12)
    rule = reduce(np.dot, factors) if image_cfg.noise_sigma > 0 else None
    scores = project_latents(batch.z, image_cfg, noise_rng, rule)
    pred = _predict(factors if rule is None else (), classes, scores)
    # one group index per row, in the order of _groups: two groups per class
    if batch.model == "dm1":
        gid = 2 * (batch.y > 0) + (batch.a > 0)
    else:
        gid = 2 * (batch.y - 1) + ~batch.spurious_agrees()
    size = 2 * len(params.classes)
    # hit counts are exact integers in float64, so hit / cnt is the group mean
    return _report(params, split, np.bincount(gid, minlength=size).tolist(),
                   np.bincount(gid, weights=pred == batch.y, minlength=size).tolist())


def evaluate_zero_shot(model: MMCLModel, prompts: np.ndarray, params, split: str,
                       image_cfg: ModalityConfig, n_eval: int | None = None,
                       rng: RngStream | None = None) -> EvalReport:
    """Grouped zero-shot accuracy of a contrastive model on fresh inputs."""
    return _evaluate((model.G, _prompt_factor(prompts, params)), params.classes, params,
                     split, image_cfg, n_eval, rng)


# relative rounding level: the largest deviation from the pair structure that
# count_zero_shot accepts, and the gap under which SupCon line coordinates tie
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
    # agrees -> (own > 0, own == 0, patterns a lower pair loses in, same for a higher pair)
    cases = {}
    for agrees in (True, False) if split == "true" else (True,):
        own = u + v * alpha if agrees else u - v * alpha
        if tol > 0 and any(abs(own - r) <= tol for r in (-own, *rivals, *(-r for r in rivals))):
            raise ArgumentError(f"a rival score lies within {tol:.3g} of the own-class "
                                "score, inside the rule's deviation from the pair "
                                "structure; the count cannot rank it exactly")
        cases[agrees] = (own > 0, own == 0, sum(2 for r in rivals if r < own),
                         sum(2 for r in rivals if r <= own))
    hits = {}
    for y in params.classes:
        k, c = params.alias(y)
        for agrees, (positive, zero, lower, higher) in cases.items():
            beats_partner = positive or (zero and c == 1)
            hits[y, agrees] = beats_partner * lower ** (k - 1) * higher ** (params.m - k)
    return hits


def count_zero_shot(model: MMCLModel, prompts: np.ndarray, params, split: str,
                    image_cfg: ModalityConfig) -> EvalReport:
    """Exact grouped zero-shot accuracy on noiseless model-2 inputs, by counting.

    The latent score matrix D_I^T G P^T must give class (k, c) the score
    c (u z_k + v z_{k+m}) (an ``ArgumentError`` otherwise), as the analytic fit
    does at p_dim = 2m; u and v are read off class 1. Each group's accuracy is
    then counted by :func:`pair_rule_hits_dm2`, which refuses any near-tie
    within the measured deviation from that structure. Counted values are exact,
    so every radius is 0.
    """
    if not isinstance(params, DataModel2Params) or image_cfg.noise_sigma > 0:
        raise ConfigurationError("counting needs noiseless model-2 evaluation inputs")
    _check_input_dim(image_cfg, model.G)
    scores = np.dot(np.dot(image_cfg.dictionary.matrix.T, model.G),
                    _prompt_factor(prompts, params))
    m = params.m
    u, v = float(scores[0, 0]), float(scores[m, 0])
    means = params.class_means().T  # column y - 1 is c e_k; rolled down m rows, c e_k+m
    pair = u * means + v * np.roll(means, m, axis=0)
    residual = float(np.abs(scores - pair).max())
    if not residual <= _PAIR_RTOL * np.abs(scores).max():
        raise ArgumentError(f"the zero-shot rule is not pair-structured: its latent "
                            f"scores deviate by {residual:.3g} from c (u z_k + v z_k+m)")
    # a latent row's l1 norm bounds how far the residual can move any of its scores
    l1 = 1 + params.alpha + (m - 1) * (params.beta + params.beta * params.alpha)
    hits = pair_rule_hits_dm2(u, v, params, split, tol=2 * residual * l1)
    # int / int is correctly rounded, as enumeration's hit / cnt is
    keys = _groups(params)
    return _report(params, split, [params.rows_per_group * (key in hits) for key in keys],
                   [hits.get(key, 0) for key in keys], exact=True)


def evaluate_sl(model: SLModel, params, split: str, image_cfg: ModalityConfig,
                n_eval: int | None = None, rng: RngStream | None = None) -> EvalReport:
    """Grouped accuracy of a supervised linear model (sign or argmax rule)."""
    return _evaluate((model.W,), model.classes, params, split, image_cfg, n_eval, rng)


def evaluate_probe(encoder: SupConEncoder, probe: SLModel, params, split: str,
                   image_cfg: ModalityConfig, n_eval: int | None = None,
                   rng: RngStream | None = None) -> EvalReport:
    """Grouped accuracy of a linear probe on frozen encoder representations."""
    return _evaluate((encoder.W.T, probe.W), probe.classes, params, split, image_cfg,
                     n_eval, rng)


@dataclass(frozen=True)
class GroupGeometry:
    """Collinearity and threshold-attack diagnostics of the (c, spurious-sign) groups."""

    residual: float
    ordering: tuple                 # (c, sign) keys by increasing line coordinate
    coefficients: dict              # (c, sign) -> mean line coordinate across k
    best_threshold_accuracy: float  # share of rows right under each pair's best cut


def supcon_group_geometry(encoder: SupConEncoder, data: PairedDataset) -> GroupGeometry:
    """Line fit through the four group-mean representations per class pair.

    For each core coordinate k, examples split into groups by (c, sign of the
    spurious coordinate); their mean representations are projected on the best
    line through them. ``residual`` is the worst distance to the line across
    all k; the ordering of the four line coordinates is shared across k and
    orientation-fixed so that (+1, +1) exceeds (-1, -1). Where each row sits at its group's
    line coordinate, no linear probe beats ``best_threshold_accuracy``: each line's best cut.
    """
    batch = data.latents
    if batch.model != "dm2":
        raise ArgumentError("group geometry requires model-2 data")
    m = batch.params.m
    spu_sign = np.where(batch.spurious_agrees(), batch.c, -batch.c)
    reps = encoder.transform(data.x_image)
    keys = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    worst = 0.0
    hits = 0
    coeff_sums = np.zeros(len(keys))
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
        direction = np.linalg.svd(pts - center)[2][0]
        coords = np.dot(pts - center, direction)
        if coords[keys.index((1, 1))] < coords[keys.index((-1, -1))]:
            direction, coords = -direction, -coords
        resid = np.linalg.norm((pts - center) - np.outer(coords, direction), axis=1)
        worst = max(worst, float(resid.max()))
        ordering = ordering or tuple(keys[i] for i in np.argsort(coords, kind="stable"))
        coeff_sums += coords
        # cut after i rows (not in a _PAIR_RTOL tie): i - 2 ups[i] + ups[-1] hits, c = +1 above
        line = np.dot(reps[batch.k == k] - center, direction)
        order = np.argsort(line, kind="stable")
        ups = np.r_[0, np.cumsum(batch.c[batch.k == k][order] > 0)]  # c = +1 rows below
        cuts = np.r_[True, np.diff(line[order]) > _PAIR_RTOL * np.abs(line).max(), True]
        above = (np.arange(ups.size) - 2 * ups + ups[-1])[cuts]
        hits += max(above.max(), ups.size - 1 - above.min())
    coefficients = {key: float(val) / m for key, val in zip(keys, coeff_sums)}
    return GroupGeometry(worst, ordering, coefficients, float(hits / len(batch)))
