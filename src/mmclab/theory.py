"""Closed-form predictions for every robustness bound, threshold and condition,
so measured accuracies can be compared against theory mechanically.

Each prediction is stated as the paper states it. Where that statement holds
only as m -> infinity (the model-2 "at most 50%" below the perfect-accuracy
condition and the caption threshold), the docstring names the dropped term:
at finite m the accuracy there can be 1/2 + 2^-m. The harness's 0.5 upper-bound
checks on model 2 compare against the asymptotic value, so a slack of 0 fails
them by that term, and the captions-dm2 preset's 0.01 slack covers it at m = 30.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
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


def _dm1_kappas(sigma_core: float, sigma_spu: float, p_spu: float,
                core_factor: float = 1.0) -> tuple[float, float]:
    denom = math.sqrt((1 + core_factor * sigma_core ** 2) ** 2 * sigma_core ** 2
                      + (2 * p_spu - 1) ** 2 * sigma_spu ** 2)
    if denom == 0:
        raise DomainError("degenerate denominator: sigma_core and sigma_spu both zero")
    k1 = (2 * p_spu - 2 - core_factor * sigma_core ** 2) / denom
    k2 = (-2 * p_spu - core_factor * sigma_core ** 2) / denom
    return k1, k2


def zero_shot_robustness_dm1(sigma_core: float, sigma_spu: float, p_spu: float) -> TheoremPrediction:
    """Zero-shot robustness of the contrastive model on model 1.

    kappa_1 = (2p - 2 - sc^2) / sqrt((1 + sc^2)^2 sc^2 + (2p - 1)^2 ss^2),
    kappa_2 = (-2p - sc^2) / (same denominator);
    overall >= 1 - Phi(kappa_1)/2 - Phi(kappa_2)/2, minority >= 1 - Phi(kappa_1).
    The linear closed form attains both bounds exactly (its minority accuracy
    reproduces 1 - Phi(kappa_1) to 1e-16), so they are compared as equalities.
    """
    k1, k2 = _dm1_kappas(sigma_core, sigma_spu, p_spu)
    return TheoremPrediction(
        values={"kappa1": k1, "kappa2": k2,
                "overall": 1.0 - 0.5 * phi_cdf(k1) - 0.5 * phi_cdf(k2),
                "minority": 1.0 - phi_cdf(k1)},
        comparators={"overall": "equality-threshold", "minority": "equality-threshold"},
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
    1/2 + 2^-m (0.625 at m = 3, a = 1.1, b = 0.5).
    """
    return bool(beta ** 2 * m > alpha ** 2 * (1 + beta) / (1 - beta) - 1 + beta ** 2)


def masked_minority_accuracy_dm1(sigma_core: float, sigma_spu: float, p_spu: float,
                            pi_core: float, exponent_variant: str = "linear") -> TheoremPrediction:
    """Minority zero-shot accuracy on model 1 under caption masking.

    1 - Phi((2p - 2 - e*sc^2) / sqrt((1 + e*sc^2)^2 sc^2 + (2p-1)^2 ss^2)) with
    e = pi_core (linear variant, matching the masked covariance expectation) or
    e = pi_core^2 (squared variant); the Monte Carlo sweep records which one
    the measurements follow. Independent of pi_spu.
    """
    if not 0 <= pi_core <= 1:
        raise DomainError(f"pi_core must lie in [0, 1], got {pi_core}")
    if exponent_variant == "linear":
        e = pi_core
    elif exponent_variant == "squared":
        e = pi_core ** 2
    else:
        raise DomainError(f"exponent_variant must be linear or squared, got {exponent_variant!r}")
    k1, _ = _dm1_kappas(sigma_core, sigma_spu, p_spu, core_factor=e)
    return TheoremPrediction(
        values={"minority": 1.0 - phi_cdf(k1)},
        comparators={"minority": "equality-threshold"},
    )


def caption_masking_threshold_dm2(m: int, alpha: float, beta: float) -> float:
    """Caption-richness threshold pi_tilde for model 2:
    ((1+b) a^2 - 1 + b) / ((1-b) b^2 (m-1)).

    Accuracy is 100% for pi above it. Below it the paper states at most 50%,
    which holds only as m -> infinity: at finite m the accuracy there can be
    1/2 + 2^-m (0.625 at m = 3, a = 1.1, b = 0.5, pi = 0.5). A non-positive
    threshold means every masking level is robust.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 0 < beta < 1:
        raise DomainError(f"threshold undefined for beta={beta}; needs beta in (0, 1)")
    return ((1 + beta) * alpha ** 2 - 1 + beta) / ((1 - beta) * beta ** 2 * (m - 1))


def in_distribution_predictions_dm1(sigma_core: float, sigma_spu: float,
                             p_spu: float) -> TheoremPrediction:
    """In-distribution control predictions for model 1.

    Supervised: ID accuracy at least Phi((1 + R)/sqrt(sc^2 + R^2 ss^2)) with the
    spurious-to-core weight ratio R > 1.51 in the overparameterized regime.
    Contrastive: ID accuracy 1 - Phi(kappa_2). At sc=1, ss=0 these are
    Phi(2.51) = 99.4% and Phi(1.5) = 93.3%; the supervised model is slightly
    ahead in distribution (its robustness gap is not an ID artifact). A
    commonly quoted 93.93% for the contrastive figure does not match Phi(1.5)
    and is treated as a typo.
    """
    r = 1.51
    sl_denom = math.sqrt(sigma_core ** 2 + r ** 2 * sigma_spu ** 2)
    if sl_denom == 0:
        raise DomainError("degenerate denominator: sigma_core and sigma_spu both zero")
    _, k2 = _dm1_kappas(sigma_core, sigma_spu, p_spu)
    return TheoremPrediction(
        values={"sl_id": phi_cdf((1 + r) / sl_denom),
                "mmcl_id": 1.0 - phi_cdf(k2)},
        comparators={"sl_id": "lower-bound", "mmcl_id": "equality-threshold"},
    )
