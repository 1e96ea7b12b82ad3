"""Closed-form predictions for every robustness bound, threshold and condition,
so measured accuracies can be compared against theory mechanically.

Each prediction is stated as the paper states it, except on model 2. There the
paper's "at most 50%" below the perfect-accuracy condition and below the
caption threshold holds only as m -> infinity: at finite m the accuracy there
can be 1/2 + 2^-m. So the model-2 zero-shot checks compare against
:func:`zero_shot_accuracy_dm2`, which counts the exact accuracy of the analytic
fit, and do so at equality with no slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .covariance import population_cross_cov_dm2
from .datagen import SPLITS, DataModel2Params
from .errors import DomainError
from .evaluation import pair_rule_hits_dm2
from .numerics import phi_cdf

# comparator -> its pass rule (value, prediction, slack) -> bool; the one list
# of comparators that a prediction or a harness check may name
COMPARATORS = {
    "lower-bound": lambda value, prediction, slack: value >= prediction - slack,
    "upper-bound": lambda value, prediction, slack: value <= prediction + slack,
    "equality-threshold": lambda value, prediction, slack: abs(value - prediction) <= slack,
}

# Best achievable model-1 accuracy on the shifted (true) split at sigma_core = 1:
# there the spurious feature carries no label information, so the Bayes rule
# thresholds the core feature y + sigma_core * N(0, 1) at zero, and its
# accuracy is Phi(1 / sigma_core) = 0.8413.
DM1_BEST_POSSIBLE_ACCURACY = phi_cdf(1.0)


@dataclass(frozen=True)
class TheoremPrediction:
    """Named prediction values plus the comparator of each value a check compares."""

    values: dict
    comparators: dict

    def __post_init__(self):
        for name, comp in self.comparators.items():
            if comp not in COMPARATORS:
                raise DomainError(f"unknown comparator {comp!r} for {name}")
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise DomainError(f"prediction {name} is not finite: {value}")


def sl_failure_bounds_dm1() -> TheoremPrediction:
    """Supervised-learning failure bounds on model 1 under strong spurious
    correlation: overall accuracy at most 2/3, minority at most 1/3."""
    return TheoremPrediction(
        values={"overall": 2.0 / 3.0, "minority": 1.0 / 3.0},
        comparators={"overall": "upper-bound", "minority": "upper-bound"},
    )


def zero_shot_robustness_dm1(sigma_core: float, sigma_spu: float, p_spu: float,
                             pi_core: float = 1.0) -> TheoremPrediction:
    """Zero-shot robustness of the contrastive model on model 1, with captions
    that keep the core variation with probability pi_core.

    kappa_1 = (2p - 2 - e sc^2) / sqrt((1 + e sc^2)^2 sc^2 + (2p - 1)^2 ss^2),
    kappa_2 = (-2p - e sc^2) / (same denominator), with e = pi_core: the masked
    covariance expectation is linear in pi_core, and pi_spu drops out.
    overall >= 1 - Phi(kappa_1)/2 - Phi(kappa_2)/2, minority >= 1 - Phi(kappa_1).
    The linear closed form attains both bounds exactly (its minority accuracy
    reproduces 1 - Phi(kappa_1) to 1e-16), so they are compared as equalities.
    ``train`` is the exact overall accuracy on the train split, where the
    minority groups weigh 1 - p: p (1 - Phi(kappa_2)) + (1 - p)(1 - Phi(kappa_1)).
    """
    if not 0 <= pi_core <= 1:
        raise DomainError(f"pi_core must lie in [0, 1], got {pi_core}")
    core = pi_core * sigma_core ** 2
    denom = math.sqrt((1 + core) ** 2 * sigma_core ** 2
                      + (2 * p_spu - 1) ** 2 * sigma_spu ** 2)
    if denom == 0:
        raise DomainError("degenerate denominator: sigma_core and sigma_spu both zero")
    k1 = (2 * p_spu - 2 - core) / denom
    k2 = (-2 * p_spu - core) / denom
    return TheoremPrediction(
        values={"kappa1": k1, "kappa2": k2,
                "overall": 1.0 - 0.5 * phi_cdf(k1) - 0.5 * phi_cdf(k2),
                "minority": 1.0 - phi_cdf(k1),
                "train": p_spu * (1.0 - phi_cdf(k2)) + (1.0 - p_spu) * (1.0 - phi_cdf(k1))},
        comparators={group: "equality-threshold" for group in ("overall", "minority", "train")},
    )


def sl_shift_ceiling_dm2(alpha: float, beta: float) -> TheoremPrediction:
    """Supervised-learning upper bound on model 2: 1/2 + 2 / ((1+a^2)(1-b)^2 - 8)."""
    denom = (1 + alpha ** 2) * (1 - beta) ** 2 - 8
    if denom <= 0:
        raise DomainError(f"bound vacuous: (1+a^2)(1-b)^2 - 8 = {denom:.4g} <= 0")
    return TheoremPrediction(
        values={"overall": 0.5 + 2.0 / denom},
        comparators={"overall": "upper-bound"},
    )


def perfect_zero_shot_condition_dm2(m: int, alpha: float, beta: float) -> bool:
    """Condition for 100% zero-shot accuracy on model 2 with full captions:
    b^2 m > a^2 (1+b)/(1-b) - 1 + b^2.

    Where it fails, the paper states true-split accuracy of at most 50%. That
    holds only as m -> infinity: at finite m the accuracy there can be
    1/2 + 2^-m (0.625 at m = 3, a = 1.1, b = 0.5); :func:`zero_shot_accuracy_dm2`
    gives the exact value.
    """
    return bool(beta ** 2 * m > alpha ** 2 * (1 + beta) / (1 - beta) - 1 + beta ** 2)


def zero_shot_accuracy_dm2(m: int, alpha: float, beta: float,
                           pi: float = 1.0) -> TheoremPrediction:
    """Exact zero-shot accuracy on model 2 of the analytic fit at p_dim = 2m,
    on each split, with caption keep probability pi.

    That fit scores class (k, c) as c (u z_k + v z_{k+m}), with
    u = (1 + pi (m-1) b^2) / (m rho) and v = a / (m rho), the entries S[0, 0]
    and S[m, 0] of the masked population covariance
    (``covariance.population_cross_cov_dm2``) over rho. The factor 1/rho changes
    no argmax, so rho = 1 here. Counting (``evaluation.pair_rule_hits_dm2``)
    gives train accuracy 1, and true-split accuracy
      1            when u - v a > b (u + v a): the perfect-accuracy condition
                   at pi = 1, and pi > pi_tilde otherwise;
      1/2 + 2^-m   when 0 < u - v a < b (u + v a), since a row whose spurious
                   coordinate flips then wins exactly where each of the other
                   m - 1 pairs has two coordinates of opposite sign, with
                   probability 2^(1-m);
      1/2          when u - v a < 0.
    The paper states at most 50% below the condition; that holds only as
    m -> infinity.
    """
    params = DataModel2Params(m, alpha, beta)
    s = population_cross_cov_dm2(params, pi)
    u, v = float(s[0, 0]), float(s[m, 0])
    values = {}
    for split in SPLITS:
        hits = pair_rule_hits_dm2(u, v, params, split)
        values[split] = sum(hits.values()) / (len(hits) * params.rows_per_group)
    return TheoremPrediction(values=values,
                             comparators={split: "equality-threshold" for split in SPLITS})


def caption_masking_threshold_dm2(m: int, alpha: float, beta: float) -> float:
    """Caption-richness threshold pi_tilde for model 2:
    ((1+b) a^2 - 1 + b) / ((1-b) b^2 (m-1)).

    Accuracy is 100% for pi above it. Below it the paper states at most 50%,
    which holds only as m -> infinity: at finite m the accuracy there can be
    1/2 + 2^-m (0.625 at m = 3, a = 1.1, b = 0.5, pi = 0.5);
    :func:`zero_shot_accuracy_dm2` gives the exact value. A non-positive
    threshold means every masking level is robust.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 0 < beta < 1:
        raise DomainError(f"threshold undefined for beta={beta}; needs beta in (0, 1)")
    return ((1 + beta) * alpha ** 2 - 1 + beta) / ((1 - beta) * beta ** 2 * (m - 1))


def in_distribution_predictions_dm1(sigma_core: float, sigma_spu: float) -> TheoremPrediction:
    """In-distribution control prediction for supervised learning on model 1:
    ID accuracy at least Phi((1 + R)/sqrt(sc^2 + R^2 ss^2)) with the
    spurious-to-core weight ratio R > 1.51 in the overparameterized regime. At
    sc=1, ss=0 that is Phi(2.51) = 99.4%, slightly ahead of the contrastive
    model's exact train-split accuracy (``zero_shot_robustness_dm1``'s
    ``train``, 93.3% there), so its robustness gap is not an ID artifact.
    """
    r = 1.51
    sl_denom = math.sqrt(sigma_core ** 2 + r ** 2 * sigma_spu ** 2)
    if sl_denom == 0:
        raise DomainError("degenerate denominator: sigma_core and sigma_spu both zero")
    return TheoremPrediction(values={"sl_id": phi_cdf((1 + r) / sl_denom)},
                             comparators={"sl_id": "lower-bound"})
