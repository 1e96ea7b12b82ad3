"""Latent feature sampling for both data models, caption masking, and projection
into modality input spaces.

Model 1 is the binary core/spurious Gaussian model; model 2 is the 2m-class
shared-feature model whose training split pins the spurious coordinate to the
label. Latents travel as numpy-backed batches so large draws stay vectorized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigurationError, DimensionError, DomainError, SizeError
from .numerics import Dictionary, RngStream, _readonly

SPLITS = ("train", "true")

# Hard cap on exhaustive enumeration; larger models go through the analytic
# covariance path instead of materialized latents.
ENUMERATION_CAP = 1 << 22


@dataclass(frozen=True)
class DataModel1Params:
    """Binary model: z = [z_core, z_spu], z_core ~ N(y, sigma_core^2),
    z_spu ~ N(a, sigma_spu^2), with Pr(a = y) = p_spu on the training split and
    a independent of y on the true split."""

    sigma_core: float
    sigma_spu: float
    p_spu: float

    def __post_init__(self):
        if not self.sigma_core > 0:
            raise DomainError(f"sigma_core must be > 0, got {self.sigma_core}")
        if self.sigma_spu < 0:
            raise DomainError(f"sigma_spu must be >= 0, got {self.sigma_spu}")
        if not 0.5 < self.p_spu <= 1.0:
            raise DomainError(f"p_spu must lie in (0.5, 1], got {self.p_spu}")

    @property
    def l(self) -> int:
        return 2


@dataclass(frozen=True)
class DataModel2Params:
    """2m-class model with shared weak features (scale beta) and a strong
    spurious coordinate (scale alpha) at k+m."""

    m: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"m must be >= 2, got {self.m}")
        if not self.alpha > 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")

    @property
    def l(self) -> int:
        return 2 * self.m

    def alias(self, y: int) -> tuple[int, int]:
        """Label alias (k, c): k = floor((y+1)/2), c = +1 for odd y."""
        return (y + 1) // 2, 1 if y % 2 == 1 else -1


class LatentBatch:
    """A batch of latent samples sharing one data model.

    Arrays: ``z`` is (n, l); ``y`` is (n,) labels; ``a`` (model 1) holds the
    spurious attribute; ``k``/``c`` (model 2) hold label aliases.
    """

    def __init__(self, model: str, split: str, z: np.ndarray, y: np.ndarray,
                 a: np.ndarray | None = None, k: np.ndarray | None = None,
                 c: np.ndarray | None = None):
        self.model = model
        self.split = split
        self.z = _readonly(z)
        self.y = np.asarray(y, dtype=int)
        self.a = None if a is None else np.asarray(a, dtype=int)
        self.k = None if k is None else np.asarray(k, dtype=int)
        self.c = None if c is None else np.asarray(c, dtype=int)

    @property
    def l(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.z.shape[0]

    def spurious_agrees(self) -> np.ndarray:
        """Boolean mask of samples whose spurious feature agrees with the label
        (a == y for model 1, sign(z_{k+m}) == c for model 2)."""
        if self.model == "dm1":
            return self.a == self.y
        m = self.l // 2
        spu = self.z[np.arange(len(self)), self.k - 1 + m]
        return np.sign(spu).astype(int) == self.c


def _check_split(split: str):
    if split not in SPLITS:
        raise ArgumentError(f"split must be one of {SPLITS}, got {split!r}")


def sample_latents_dm1(params: DataModel1Params, n: int, split: str,
                       rng: RngStream) -> LatentBatch:
    """Draw n model-1 latents from the training or true distribution."""
    _check_split(split)
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    g = rng.generator()
    y = g.integers(0, 2, n) * 2 - 1
    if split == "train":
        a = np.where(g.random(n) < params.p_spu, y, -y)
    else:
        a = g.integers(0, 2, n) * 2 - 1
    z = np.empty((n, 2))
    z[:, 0] = y + params.sigma_core * g.standard_normal(n)
    z[:, 1] = a + params.sigma_spu * g.standard_normal(n)
    return LatentBatch("dm1", split, z, y, a=a)


def _dm2_counts(params: DataModel2Params, split: str) -> int:
    per_class = 4 ** (params.m - 1) * (1 if split == "train" else 2)
    return 2 * params.m * per_class


def enumerate_latents_dm2(params: DataModel2Params, split: str) -> LatentBatch:
    """Materialize every admissible model-2 sign pattern exactly once.

    The training split fixes z_{k+m} = c*alpha; the true split doubles the
    count by letting z_{k+m} range over {-alpha, +alpha}.
    """
    _check_split(split)
    total = _dm2_counts(params, split)
    if total > ENUMERATION_CAP:
        raise SizeError(
            f"exhaustive dm2 enumeration would produce {total} rows "
            f"(cap {ENUMERATION_CAP}); use the sampled or analytic path")
    m, alpha, beta = params.m, params.alpha, params.beta
    n_pat = 4 ** (m - 1)
    # sign patterns for the m-1 free low and m-1 free high coordinates
    idx = np.arange(n_pat)
    bits = ((idx[:, None] >> np.arange(2 * (m - 1))) & 1) * 2 - 1
    low_signs, high_signs = bits[:, :m - 1], bits[:, m - 1:]

    blocks, ys, ks, cs = [], [], [], []
    spu_values = (None,) if split == "train" else (-alpha, alpha)
    for y in range(1, 2 * m + 1):
        k, c = params.alias(y)
        low_cols = [j for j in range(m) if j != k - 1]
        high_cols = [j for j in range(m, 2 * m) if j != k - 1 + m]
        for spu in spu_values:
            z = np.zeros((n_pat, 2 * m))
            z[:, k - 1] = c
            z[:, k - 1 + m] = c * alpha if spu is None else spu
            z[:, low_cols] = beta * low_signs
            z[:, high_cols] = beta * alpha * high_signs
            blocks.append(z)
            ys.append(np.full(n_pat, y))
            ks.append(np.full(n_pat, k))
            cs.append(np.full(n_pat, c))
    return LatentBatch("dm2", split, np.concatenate(blocks),
                       np.concatenate(ys), k=np.concatenate(ks),
                       c=np.concatenate(cs))


def sample_latents_dm2(params: DataModel2Params, n: int, split: str,
                       rng: RngStream) -> LatentBatch:
    """Draw n model-2 latents (uniform labels, uniform coordinate signs)."""
    _check_split(split)
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    m, alpha, beta = params.m, params.alpha, params.beta
    g = rng.generator()
    y = g.integers(1, 2 * m + 1, n)
    k = (y + 1) // 2
    c = np.where(y % 2 == 1, 1, -1)
    z = np.empty((n, 2 * m))
    z[:, :m] = beta * (g.integers(0, 2, (n, m)) * 2 - 1)
    z[:, m:] = beta * alpha * (g.integers(0, 2, (n, m)) * 2 - 1)
    rows = np.arange(n)
    z[rows, k - 1] = c
    if split == "train":
        z[rows, k - 1 + m] = c * alpha
    else:
        z[rows, k - 1 + m] = alpha * (g.integers(0, 2, n) * 2 - 1)
    return LatentBatch("dm2", split, z, y, k=k, c=c)


@dataclass(frozen=True)
class CaptionMask:
    """Stochastic omission of latent detail from the text modality.

    ``model1`` keeps the Gaussian variation of each coordinate with probability
    pi_core / pi_spu (otherwise the caption collapses to the group mean);
    ``model2`` keeps off-class coordinates with probability pi and always keeps
    the class coordinate. ``none`` is the identity.
    """

    variant: str  # "none" | "model1" | "model2"
    pi_core: float | None = None
    pi_spu: float | None = None
    pi: float | None = None

    def __post_init__(self):
        if self.variant == "none":
            return
        if self.variant == "model1":
            for name, v in (("pi_core", self.pi_core), ("pi_spu", self.pi_spu)):
                if v is None or not 0 <= v <= 1:
                    raise DomainError(f"{name} must lie in [0, 1], got {v}")
        elif self.variant == "model2":
            if self.pi is None or not 0 <= self.pi <= 1:
                raise DomainError(f"pi must lie in [0, 1], got {self.pi}")
        else:
            raise DomainError(f"unknown mask variant {self.variant!r}")

    @classmethod
    def none(cls) -> "CaptionMask":
        return cls("none")

    @classmethod
    def model1(cls, pi_core: float, pi_spu: float) -> "CaptionMask":
        return cls("model1", pi_core=pi_core, pi_spu=pi_spu)

    @classmethod
    def model2(cls, pi: float) -> "CaptionMask":
        return cls("model2", pi=pi)


def _mask_batch(batch: LatentBatch, mask: CaptionMask,
                rng: RngStream | None) -> np.ndarray:
    """Apply fresh per-sample, per-coordinate mask draws to a whole batch."""
    if mask.variant == "none":
        return batch.z.copy()
    n, l = batch.z.shape
    if mask.variant == "model1":
        if batch.model != "dm1":
            raise ConfigurationError(
                f"model1 mask cannot be applied to {batch.model} samples")
        g = rng.generator()
        psi_core = g.random(n) < mask.pi_core
        psi_spu = g.random(n) < mask.pi_spu
        out = np.empty((n, 2))
        out[:, 0] = batch.y + psi_core * (batch.z[:, 0] - batch.y)
        out[:, 1] = batch.a + psi_spu * (batch.z[:, 1] - batch.a)
        return out
    if batch.model != "dm2":
        raise ConfigurationError(
            f"model2 mask cannot be applied to {batch.model} samples")
    g = rng.generator()
    psi = (g.random((n, l)) < mask.pi).astype(float)
    psi[np.arange(n), batch.k - 1] = 1.0  # class coordinate always survives
    return psi * batch.z


@dataclass(frozen=True)
class ModalityConfig:
    """Projection dictionary plus isotropic input noise for one modality.

    Noise is N(0, noise_sigma^2 / d * I) so that E||xi||^2 = noise_sigma^2
    independent of the ambient dimension.
    """

    dictionary: Dictionary
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise DomainError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @property
    def ambient_dim(self) -> int:
        return self.dictionary.ambient_dim

    @property
    def latent_dim(self) -> int:
        return self.dictionary.latent_dim


class PairedDataset:
    """Aligned image and text input matrices with per-row latent metadata."""

    def __init__(self, x_image: np.ndarray, x_text: np.ndarray, latents: LatentBatch):
        if x_image.shape[0] != x_text.shape[0] or x_image.shape[0] != len(latents):
            raise DimensionError("row counts of images, texts and latents must match")
        if x_image.shape[0] < 2:
            raise ArgumentError("paired datasets need n >= 2")
        self.x_image = _readonly(x_image)
        self.x_text = _readonly(x_text)
        self.latents = latents

    @property
    def n(self) -> int:
        return self.x_image.shape[0]

    @property
    def d_image(self) -> int:
        return self.x_image.shape[1]

    @property
    def d_text(self) -> int:
        return self.x_text.shape[1]


def project_latents(z: np.ndarray, cfg: ModalityConfig,
                    rng: RngStream | None = None) -> np.ndarray:
    """Project latent rows into a modality: x = D z + xi."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != cfg.latent_dim:
        raise DimensionError(
            f"latent dim {z.shape[-1]} does not match dictionary latent dim {cfg.latent_dim}")
    if not cfg.noise_sigma > 0:
        return z @ cfg.dictionary.matrix.T
    if rng is None:
        raise ArgumentError("noisy projection requires an RngStream")
    # built in place to avoid two full-size temporaries; addition commutes
    # exactly, so the values equal D z + s * noise bit for bit
    x = rng.generator().standard_normal(z.shape[:-1] + (cfg.ambient_dim,))
    x *= cfg.noise_sigma / np.sqrt(cfg.ambient_dim)
    x += z @ cfg.dictionary.matrix.T
    return x


def make_paired_dataset(latents: LatentBatch, image_cfg: ModalityConfig,
                        text_cfg: ModalityConfig, mask: CaptionMask,
                        rng: RngStream) -> PairedDataset:
    """Build aligned inputs: X_I = D_I z + xi_I, X_T = D_T mu_T(z) + xi_T.

    The image side is always the unmasked latent; the text side first applies
    caption masking. Mask and noise draws come from child streams of ``rng`` in
    a fixed order, so a dataset is fully determined by (latents, configs, rng).
    """
    if image_cfg.latent_dim != latents.l or text_cfg.latent_dim != latents.l:
        raise DimensionError(
            f"modality latent dims ({image_cfg.latent_dim}, {text_cfg.latent_dim}) "
            f"must equal the latent dimension {latents.l}")
    mu_text = _mask_batch(latents, mask, rng.child(0))
    x_image = project_latents(latents.z, image_cfg, rng.child(1))
    x_text = project_latents(mu_text, text_cfg, rng.child(2))
    return PairedDataset(x_image, x_text, latents)
