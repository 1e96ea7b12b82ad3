"""Cross-covariance statistics: the empirical paired-minus-unpaired estimator
that the contrastive minimizer factorizes, its analytic population forms for
both data models (masked and unmasked), and the class-mean covariance used by
the supervised-contrastive closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import CaptionMask, DataModel1Params, DataModel2Params, PairedDataset
from .errors import ArgumentError, ConfigurationError, DomainError
from .numerics import _readonly

EXPONENT_VARIANTS = ("linear", "squared")


@dataclass(frozen=True)
class CrossCov:
    """A d_I x d_T cross-covariance.

    ``space`` records whether the matrix lives in ambient input coordinates
    ("ambient", the empirical case, estimated from ``data.n`` pairs) or latent
    coordinates ("latent", the population case, lifted through dictionaries at
    fit time).
    """

    S: np.ndarray
    space: str = "ambient"

    def __post_init__(self):
        object.__setattr__(self, "S", _readonly(self.S))


def empirical_cross_cov(data: PairedDataset) -> CrossCov:
    """Paired-minus-unpaired outer-product statistic of a dataset.

    S = (1/n) sum_i x_I,i x_T,i^T - (1/(n(n-1))) sum_{i != j} x_I,i x_T,j^T,
    computed through the algebraic identity
    sum_{i != j} = (sum_i x_I)(sum_j x_T)^T - sum_i x_I x_T^T
    so the cost stays O(n * d_I * d_T).
    """
    n = data.n
    paired = data.x_image.T @ data.x_text
    sums = np.outer(data.x_image.sum(axis=0), data.x_text.sum(axis=0))
    s = paired / (n - 1) - sums / (n * (n - 1))
    return CrossCov(S=s, space="ambient")


def population_cross_cov_dm1(params: DataModel1Params,
                             mask: CaptionMask = CaptionMask.none(),
                             exponent_variant: str = "linear") -> CrossCov:
    """Analytic 2x2 training cross-covariance for model 1, in latent space.

    Unmasked: [[1 + sc^2, 2p - 1], [2p - 1, 1 + ss^2]]. Masking scales the
    diagonal variance terms by pi (the expectation of the Bernoulli keep
    indicator; ``exponent_variant="squared"`` substitutes pi^2 for comparison
    runs, see the caption-sweep verification).
    """
    if mask.variant not in ("none", "model1"):
        raise ConfigurationError(f"model-1 covariance cannot use a {mask.variant} mask")
    if exponent_variant not in EXPONENT_VARIANTS:
        raise DomainError(f"exponent_variant must be one of {EXPONENT_VARIANTS}")
    if mask.variant == "none":
        e_core = e_spu = 1.0
    else:
        power = 1 if exponent_variant == "linear" else 2
        e_core, e_spu = mask.pi_core ** power, mask.pi_spu ** power
    q = 2 * params.p_spu - 1
    s = np.array([[1 + e_core * params.sigma_core ** 2, q],
                  [q, 1 + e_spu * params.sigma_spu ** 2]])
    return CrossCov(S=s, space="latent")


def population_cross_cov_dm2(params: DataModel2Params, pi: float = 1.0) -> CrossCov:
    """Analytic 2m x 2m masked training cross-covariance for model 2.

    Block form (each block a multiple of I_m):
        [[(1 + pi (m-1) b^2) / m,        pi a / m],
         [a / m,                          pi a^2 (1 + (m-1) b^2) / m]]
    pi = 1 recovers the symmetric unmasked matrix; for pi < 1 the off-diagonal
    blocks intentionally differ because the class coordinate is never masked.
    """
    if not 0 <= pi <= 1:
        raise DomainError(f"pi must lie in [0, 1], got {pi}")
    m, a, b = params.m, params.alpha, params.beta
    shared = 1 + (m - 1) * b ** 2
    s = np.zeros((2 * m, 2 * m))
    eye = np.eye(m)
    s[:m, :m] = (1 + pi * (m - 1) * b ** 2) / m * eye
    s[:m, m:] = pi * a / m * eye
    s[m:, :m] = a / m * eye
    s[m:, m:] = pi * a ** 2 * shared / m * eye
    return CrossCov(S=s, space="latent")


@dataclass(frozen=True)
class ClassMeanCov:
    """Class-mean second-moment matrix driving the supervised-contrastive fit."""

    S: np.ndarray                 # d_I x d_I, symmetric PSD

    def __post_init__(self):
        object.__setattr__(self, "S", _readonly(self.S))


def supcon_class_mean_cov(data: PairedDataset) -> ClassMeanCov:
    """Class-mean covariance of the image modality under ``data.latents.model``.

    Model 1 (binary +-1 labels):
        S = 1/2 (sum_y xbar_y xbar_y^T - sum_y xbar_y xbar_{-y}^T)
    Model 2 (labels 1..2m):
        S = 1/(2m - 1) sum_y xbar_y xbar_y^T
    """
    model = data.latents.model
    labels = data.latents.y
    classes = (-1, 1) if model == "dm1" else tuple(range(1, 2 * (data.latents.l // 2) + 1))
    means = {}
    for y in classes:
        rows = data.x_image[labels == y]
        if rows.shape[0] == 0:
            raise ArgumentError(f"class {y} has no examples")
        means[y] = rows.mean(axis=0)
    if model == "dm1":
        s = 0.5 * (sum(np.outer(means[y], means[y]) for y in classes)
                   - sum(np.outer(means[y], means[-y]) for y in classes))
    else:
        s = sum(np.outer(mu, mu) for mu in means.values()) / (len(classes) - 1)
    return ClassMeanCov(S=s)
