"""Latent feature sampling for both data models, caption masking, and projection
into modality input spaces.

Model 1 is the binary core/spurious Gaussian model; model 2 is the 2m-class
shared-feature model whose training split pins the spurious coordinate to the
label. Latents travel as numpy-backed batches so large draws stay vectorized.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

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

    sigma_core: float = 1.0
    sigma_spu: float = 0.0
    p_spu: float = 0.999
    model: ClassVar[str] = "dm1"
    classes: ClassVar[tuple] = (-1, 1)

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

    def class_means(self) -> np.ndarray:
        """True-split latent mean of each class, one row per class: [y, 0]."""
        return np.array([[y, 0.0] for y in self.classes])

    def draw(self, split: str, n: int | None, rng: RngStream | None) -> "LatentBatch":
        """n sampled latents of a split; n=None (enumeration) raises on model 1."""
        if n is None:
            raise ConfigurationError("model 1 has no exhaustive mode; it is only sampled")
        return _shared((self, n, split, rng), lambda: sample_latents_dm1(self, n, split, rng))


@dataclass(frozen=True)
class DataModel2Params:
    """2m-class model with shared weak features (scale beta) and a strong
    spurious coordinate (scale alpha) at k+m."""

    m: int = 2
    alpha: float = 1.0
    beta: float = 0.0
    model: ClassVar[str] = "dm2"

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

    @property
    def classes(self) -> tuple:
        return tuple(range(1, 2 * self.m + 1))

    @property
    def rows_per_group(self) -> int:
        """Rows of each (class, spurious value) block of an enumerated split."""
        return 4 ** (self.m - 1)

    def alias(self, y):
        """Label alias (k, c) of a label or an array: k = floor((y+1)/2), c = +1 for odd y."""
        return (y + 1) // 2, 2 * (y % 2) - 1

    def class_means(self) -> np.ndarray:
        """True-split latent mean of each class, one row per class: c e_k."""
        k, c = self.alias(np.array(self.classes))
        means = np.zeros((len(self.classes), self.l))
        means[np.arange(len(self.classes)), k - 1] = c
        return means

    def draw(self, split: str, n: int | None, rng: RngStream | None) -> "LatentBatch":
        """n sampled latents of a split, or with n=None every row of it once."""
        if n is None:
            return enumerate_latents_dm2(self, split)
        return _shared((self, n, split, rng), lambda: sample_latents_dm2(self, n, split, rng))


class LatentBatch:
    """A batch of latent samples of one data model, whose ``params`` it carries.

    Arrays, all read-only: ``z`` is (n, l); ``y`` is (n,) labels; ``a`` (model 1)
    holds the spurious attribute; ``k``/``c`` (model 2) are the label aliases of ``y``.
    """

    def __init__(self, params, z: np.ndarray, y: np.ndarray, a: np.ndarray | None = None):
        if not isinstance(params, (DataModel1Params, DataModel2Params)):
            raise ArgumentError(f"unknown data model params {params!r}")
        self.params = params
        self.model = params.model
        self.z = _readonly(z)
        self.y = _readonly(y, int)
        self.a = None if a is None else _readonly(a, int)
        self.k, self.c = ((_readonly(v, int) for v in params.alias(self.y))
                          if self.model == "dm2" else (None, None))

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
        spu = self.z[np.arange(len(self)), self.k - 1 + self.params.m]
        return np.sign(spu).astype(int) == self.c


# .memo: the draws and the harness's method rows of this thread's task, if any. Thread-local,
# as the evaluators' public signatures carry no memo and a pool runs one task per worker thread
_TASK = threading.local()


@contextmanager
def _shared_draws():
    """Until the block exits, this thread makes each sampled draw (``draw`` and the
    uniforms of ``_mask_batch``) once per set of inputs, and a repeat gets the first
    draw's object. A draw is a pure function of its inputs, so no value changes."""
    _TASK.memo = {}
    try:
        yield _TASK.memo
    finally:
        _TASK.memo.clear()
        _TASK.memo = None


def _shared(key, draw):
    memo = getattr(_TASK, "memo", None)
    if memo is None:
        return draw()
    return memo[key] if key in memo else memo.setdefault(key, draw())


def _check_split(split: str):
    if split not in SPLITS:
        raise ArgumentError(f"split must be one of {SPLITS}, got {split!r}")


def _checked_generator(n: int, split: str, rng: RngStream | None) -> np.random.Generator:
    """The generator of a draw of n latents of a split, after checking the arguments."""
    _check_split(split)
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    if rng is None:
        raise ArgumentError("sampled latents require an RngStream")
    return rng.generator()


def sample_latents_dm1(params: DataModel1Params, n: int, split: str,
                       rng: RngStream) -> LatentBatch:
    """Draw n model-1 latents from the training or true distribution."""
    g = _checked_generator(n, split, rng)
    y = g.integers(0, 2, n) * 2 - 1
    if split == "train":
        a = np.where(g.random(n) < params.p_spu, y, -y)
    else:
        a = g.integers(0, 2, n) * 2 - 1
    z = np.empty((n, 2))
    z[:, 0] = y + params.sigma_core * g.standard_normal(n)
    z[:, 1] = a + params.sigma_spu * g.standard_normal(n)
    return LatentBatch(params, z, y, a=a)


def enumerate_latents_dm2(params: DataModel2Params, split: str) -> LatentBatch:
    """Materialize every admissible model-2 sign pattern exactly once.

    The training split fixes z_{k+m} = c*alpha; the true split doubles the
    count by letting z_{k+m} range over {-alpha, +alpha}.
    """
    _check_split(split)
    m, alpha, beta = params.m, params.alpha, params.beta
    spu_values = (None,) if split == "train" else (-alpha, alpha)
    n_pat = params.rows_per_group
    total = len(params.classes) * len(spu_values) * n_pat
    if total > ENUMERATION_CAP:
        raise SizeError(
            f"exhaustive dm2 enumeration would produce {total} rows "
            f"(cap {ENUMERATION_CAP}); use the sampled or analytic path")
    # sign patterns for the m-1 free low and m-1 free high coordinates
    idx = np.arange(n_pat)
    bits = ((idx[:, None] >> np.arange(2 * (m - 1))) & 1) * 2 - 1
    low_signs, high_signs = bits[:, :m - 1], bits[:, m - 1:]

    blocks, ys = [], []
    for y in params.classes:
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
    return LatentBatch(params, np.concatenate(blocks), np.concatenate(ys))


def sample_latents_dm2(params: DataModel2Params, n: int, split: str,
                       rng: RngStream) -> LatentBatch:
    """Draw n model-2 latents (uniform labels, uniform coordinate signs)."""
    g = _checked_generator(n, split, rng)
    m, alpha, beta = params.m, params.alpha, params.beta
    y = g.integers(1, 2 * m + 1, n)
    k, c = params.alias(y)
    z = np.empty((n, 2 * m))
    z[:, :m] = beta * (g.integers(0, 2, (n, m)) * 2 - 1)
    z[:, m:] = beta * alpha * (g.integers(0, 2, (n, m)) * 2 - 1)
    rows = np.arange(n)
    z[rows, k - 1] = c
    if split == "train":
        z[rows, k - 1 + m] = c * alpha
    else:
        z[rows, k - 1 + m] = alpha * (g.integers(0, 2, n) * 2 - 1)
    return LatentBatch(params, z, y)


# mask variant -> the caption levels it draws; every other level stays at 1
MASK_LEVELS = {"none": (), "model1": ("pi_core", "pi_spu"), "model2": ("pi",)}


@dataclass(frozen=True)
class CaptionMask:
    """Stochastic omission of latent detail from the text modality.

    ``model1`` keeps the Gaussian variation of each coordinate with probability
    pi_core / pi_spu (otherwise the caption collapses to the group mean);
    ``model2`` keeps off-class coordinates with probability pi and always keeps
    the class coordinate. ``none`` is the identity. A level the variant does not
    draw is 1, so every caller reads each level directly.
    """

    variant: str  # a key of MASK_LEVELS
    pi_core: float = 1.0
    pi_spu: float = 1.0
    pi: float = 1.0

    def __post_init__(self):
        if self.variant not in MASK_LEVELS:
            raise DomainError(f"unknown mask variant {self.variant!r}")
        for name in ("pi_core", "pi_spu", "pi"):
            v = getattr(self, name)
            if name not in MASK_LEVELS[self.variant] and v != 1:
                raise DomainError(f"a {self.variant} mask keeps {name} at 1, got {v}")
            if not 0 <= v <= 1:
                raise DomainError(f"{name} must lie in [0, 1], got {v}")

    @property
    def levels(self) -> dict:
        """The levels this variant draws, by name."""
        return {name: getattr(self, name) for name in MASK_LEVELS[self.variant]}

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
    """Mask a whole batch: a coordinate keeps its detail where its uniform is below its level."""
    if mask.variant == "none":
        return batch.z.copy()
    if mask.variant != ("model1" if batch.model == "dm1" else "model2"):
        raise ConfigurationError(f"{mask.variant} mask cannot be applied to {batch.model} samples")
    n, l = batch.z.shape
    shape = (2, n) if mask.variant == "model1" else (n, l)
    u = _shared((shape, rng), lambda: rng.generator().random(shape))
    if mask.variant == "model1":
        out = np.empty((n, 2))
        out[:, 0] = batch.y + (u[0] < mask.pi_core) * (batch.z[:, 0] - batch.y)
        out[:, 1] = batch.a + (u[1] < mask.pi_spu) * (batch.z[:, 1] - batch.a)
        return out
    psi = (u < mask.pi).astype(float)
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


def project_latents(z: np.ndarray, cfg: ModalityConfig, rng: RngStream | None = None,
                    rule: np.ndarray | None = None) -> np.ndarray:
    """Project latent rows into a modality: x = D z + xi, xi ~ N(0, sigma^2/d I).

    Given a d x q ``rule`` R, return the scores x R. With noise, x is never formed: if
    R = Q T is the reduced QR, xi Q ~ N(0, sigma^2/d I) exactly, so z (D^T R) + xi Q T has
    the law of z (D^T R) + (sigma/sqrt d) eps T, with eps n x min(d, q) standard normals."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != cfg.latent_dim:
        raise DimensionError(
            f"latent dim {z.shape[-1]} does not match dictionary latent dim {cfg.latent_dim}")
    if not cfg.noise_sigma > 0:
        x = np.dot(z, cfg.dictionary.matrix.T)
        return x if rule is None else np.dot(x, rule)
    if rng is None:
        raise ArgumentError("noisy projection requires an RngStream")
    if rule is not None:
        t = np.linalg.qr(rule, mode="r") * (cfg.noise_sigma / np.sqrt(cfg.ambient_dim))
        eps = rng.generator().standard_normal(z.shape[:-1] + (t.shape[0],))
        return np.dot(z, np.dot(cfg.dictionary.matrix.T, rule)) + np.dot(eps, t)
    # built in place to avoid two full-size temporaries; addition commutes
    # exactly, so the values equal D z + s * noise bit for bit
    x = rng.generator().standard_normal(z.shape[:-1] + (cfg.ambient_dim,))
    x *= cfg.noise_sigma / np.sqrt(cfg.ambient_dim)
    x += np.dot(z, cfg.dictionary.matrix.T)
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
