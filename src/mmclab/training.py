"""Model fitting: contrastive encoders by closed-form SVD and by gradient
descent, supervised linear models by gradient descent, the supervised-
contrastive closed form, and linear probes on frozen representations.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .covariance import ClassMeanCov, CrossCov, empirical_cross_cov
from .datagen import PairedDataset
from .errors import ArgumentError, DimensionError, DomainError, TrainingError
from .numerics import Dictionary, RngStream, _readonly, svd_top

# Defaults for gradient-descent fits. Long horizons matter for the supervised
# trainers because predictions ride on the implicit-bias (max-margin) direction.
MMCL_GD_DEFAULTS = dict(lr=0.1, epochs=2000, init_scale=1e-3)
SL_GD_DEFAULTS = dict(lr=0.05, epochs=20000, init_scale=1e-3)
GRAD_TOL = 1e-8
_LOG2 = math.log(2.0)
# The logistic loss bound must undercut blowup by this factor before the exact
# loss is skipped; the slack dwarfs the rounding of either mean.
_BOUND_CLEARANCE = 1.0 - 1e-6


@dataclass(frozen=True)
class MMCLModel:
    """Linear encoder pair, or just the effective matrix G = W_I^T W_T.

    Zero-shot predictions depend on G only; the factors are kept when a fit
    produces them (gradient descent) and omitted by the closed form.
    """

    G: np.ndarray                     # d_I x d_T
    p_dim: int
    rho: float
    W_I: np.ndarray | None = None     # p x d_I
    W_T: np.ndarray | None = None     # p x d_T
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "G", _readonly(self.G))
        if (self.W_I is None) != (self.W_T is None):
            raise ArgumentError("factors must be provided together or not at all")
        if self.W_I is not None:
            object.__setattr__(self, "W_I", _readonly(self.W_I))
            object.__setattr__(self, "W_T", _readonly(self.W_T))
            gap = np.linalg.norm(self.W_I.T @ self.W_T - self.G)
            scale = max(np.linalg.norm(self.G), 1e-30)
            if gap / scale >= 1e-8:
                raise ArgumentError(
                    f"factors do not reproduce G (relative gap {gap / scale:.2e})")


@dataclass(frozen=True)
class SLModel:
    """Supervised linear weights; q = 1 for binary (sign rule), else one
    column per class (argmax rule over ``classes``)."""

    W: np.ndarray                     # d x q
    q: int
    classes: tuple
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "W", _readonly(self.W))
        if self.W.shape[1] != self.q:
            raise DimensionError(f"W has {self.W.shape[1]} columns but q={self.q}")


@dataclass(frozen=True)
class SupConEncoder:
    """Rank-limited encoder from the class-mean covariance eigensystem.

    Rows are sqrt(lambda_i / rho) u_i^T in the canonical (sign-fixed)
    eigenbasis, so the factorization freedom is pinned.
    """

    W: np.ndarray                     # p_dim x d
    eigenvalues: np.ndarray           # p_dim, descending
    p_dim: int
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "W", _readonly(self.W))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.W.T


@dataclass(frozen=True)
class ProbeModel:
    """Linear classifier fitted on frozen representations."""

    B: np.ndarray                     # q x p
    classes: tuple
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "B", _readonly(self.B))


# ---------------------------------------------------------------------------
# multimodal contrastive fits


def _lift(g_latent: np.ndarray, image_dictionary: Dictionary | None,
          text_dictionary: Dictionary | None) -> np.ndarray:
    if image_dictionary is None and text_dictionary is None:
        return g_latent
    if image_dictionary is None or text_dictionary is None:
        raise ArgumentError("both dictionaries are needed to lift a latent covariance")
    if (image_dictionary.latent_dim, text_dictionary.latent_dim) != g_latent.shape:
        raise DimensionError("dictionary latent dims do not match the covariance shape")
    return image_dictionary.matrix @ g_latent @ text_dictionary.matrix.T


def mmcl_fit_closed_form(S: CrossCov, p_dim: int, rho: float,
                         image_dictionary: Dictionary | None = None,
                         text_dictionary: Dictionary | None = None) -> MMCLModel:
    """Closed-form minimizer: G = (1/rho) * best rank-p approximation of S.

    A latent-space population covariance is factorized in latent coordinates
    and lifted through the dictionaries afterwards (the lift preserves singular
    structure because dictionary columns are orthonormal).
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    if not 1 <= p_dim <= min(S.S.shape):
        raise DimensionError(f"p_dim={p_dim} out of range for covariance shape {S.S.shape}")
    top = svd_top(S.S, p_dim)
    g = top.reconstruct() / rho
    if S.space == "latent":
        g = _lift(g, image_dictionary, text_dictionary)
    elif image_dictionary is not None or text_dictionary is not None:
        raise ArgumentError("dictionaries only apply to latent-space covariances")
    return MMCLModel(G=g, p_dim=p_dim, rho=rho,
                     training_meta={"fit": "closed-form", "rank": top.rank})


def _check_gd_budget(lr, epochs):
    if not (isinstance(lr, numbers.Real) and math.isfinite(lr) and lr > 0):
        raise DomainError(f"lr must be positive and finite, got {lr!r}")
    if not isinstance(epochs, numbers.Integral) or isinstance(epochs, bool) or epochs < 0:
        raise ArgumentError(f"epochs must be an integer >= 0, got {epochs!r}")


def _mmcl_objective(w_i: np.ndarray, w_t: np.ndarray, s: np.ndarray, rho: float):
    g = w_i.T @ w_t
    loss = -np.einsum("ij,ij->", g, s) + 0.5 * rho * np.einsum("ij,ij->", g, g)
    grad_i = -w_t @ s.T + rho * w_t @ g.T
    grad_t = -w_i @ s + rho * w_i @ g
    return loss, grad_i, grad_t


def mmcl_fit_gd(data: PairedDataset, p_dim: int, rho: float,
                lr: float = MMCL_GD_DEFAULTS["lr"],
                epochs: int = MMCL_GD_DEFAULTS["epochs"],
                rng: RngStream | None = None,
                init_scale: float = MMCL_GD_DEFAULTS["init_scale"]) -> MMCLModel:
    """Full-batch gradient descent on the contrastive loss from small Gaussian init.

    The pairwise loss equals -<G, S> + (rho/2)||G||_F^2 exactly (S the
    empirical cross-covariance), so gradients are computed in that form; the
    identity itself is exercised by :func:`mmcl_loss` tests.
    """
    if data.n < 2:
        raise ArgumentError("gradient-descent fit needs n >= 2")
    _check_gd_budget(lr, epochs)
    if rng is None:
        raise ArgumentError("mmcl_fit_gd requires an RngStream for initialization")
    s = empirical_cross_cov(data).S
    g = rng.generator()
    w_i = init_scale * g.standard_normal((p_dim, data.d_image))
    w_t = init_scale * g.standard_normal((p_dim, data.d_text))
    loss0, _, _ = _mmcl_objective(w_i, w_t, s, rho)
    blowup = 1e3 * (abs(loss0) + 1.0)
    loss = loss0
    grad_norm = np.inf
    for epoch in range(epochs):
        loss, grad_i, grad_t = _mmcl_objective(w_i, w_t, s, rho)
        if not np.isfinite(loss) or loss > blowup:
            raise TrainingError(f"contrastive GD diverged at epoch {epoch} (lr={lr})")
        grad_norm = np.sqrt(np.sum(grad_i ** 2) + np.sum(grad_t ** 2))
        if grad_norm < GRAD_TOL:
            break
        w_i = w_i - lr * grad_i
        w_t = w_t - lr * grad_t
    meta = {"fit": "gd", "lr": lr, "epochs": epochs, "init_scale": init_scale,
            "final_loss": float(loss), "final_grad_norm": float(grad_norm)}
    return MMCLModel(G=w_i.T @ w_t, p_dim=p_dim, rho=rho, W_I=w_i, W_T=w_t,
                     training_meta=meta)


def mmcl_loss(model: MMCLModel, data: PairedDataset) -> float:
    """Exact contrastive loss of a factored model on a dataset.

    Averages the symmetric contrast terms over ordered pairs i != j and adds
    the (rho/2)||W_I^T W_T||_F^2 regularizer. The pair sums are collapsed
    algebraically (sum_ij s_ij = <sum_i g_I, sum_j g_T>) so no n x n similarity
    matrix is formed; the value is identical to the literal double sum.
    """
    if model.W_I is None:
        raise ArgumentError("mmcl_loss needs a model with factors")
    n = data.n
    if n < 2:
        raise ArgumentError("mmcl loss needs n >= 2")
    r_i = data.x_image @ model.W_I.T
    r_t = data.x_text @ model.W_T.T
    total = float(r_i.sum(axis=0) @ r_t.sum(axis=0))
    diag = float(np.einsum("ij,ij->", r_i, r_t))
    contrast = ((total - diag) - (n - 1) * diag) / (n * (n - 1))
    g = model.W_I.T @ model.W_T
    return contrast + 0.5 * model.rho * float(np.einsum("ij,ij->", g, g))


# ---------------------------------------------------------------------------
# supervised fits (logistic / cross-entropy gradient descent)


def _as_binary_labels(labels) -> np.ndarray:
    y = np.asarray(labels)
    if not set(np.unique(y)) <= {-1, 1}:
        raise ArgumentError("logistic loss expects labels in {-1, +1}")
    return y.astype(float)


def _logistic_loss(margins: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, -margins)))


def _logistic_gd(x, y, lr, epochs, w0, snapshot_every=0, loss_scaled=False):
    n = x.shape[0]
    w = w0.copy()
    # per-epoch work arrays, reused so that no n-sized temporary is allocated
    margins = np.empty(n)
    e = np.empty(n)
    work = np.empty(n)
    snapshots = []
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        np.multiply(y, np.matmul(x, w, out=margins), out=margins)
        # log(1 + e^-m) <= max(-m, 0) + log 2, so the exact loss is needed only
        # to set the blowup level, for loss-scaled steps, and when the bound
        # does not clear blowup by more than rounding (NaN or inf margins never
        # do); every divergence decision is the one the exact loss would make
        if (blowup is None or loss_scaled
                or not _LOG2 - np.add.reduce(np.minimum(margins, 0.0, out=work)) / n
                < _BOUND_CLEARANCE * blowup):
            loss = _logistic_loss(margins)
            if blowup is None:
                blowup = 1e3 * (loss + 1.0)
            if not math.isfinite(loss) or loss > blowup:
                raise TrainingError(f"logistic GD diverged at epoch {epoch} (lr={lr})")
        # sigmoid(-m) from one exp, e = e^-|m|: 1/(1+e) for m <= 0, else
        # e/(1+e); max(e, m <= 0) picks the numerator since e <= 1
        np.exp(np.negative(np.abs(margins, out=e), out=e), out=e)
        np.add(e, 1.0, out=work)
        np.maximum(e, margins <= 0.0, out=e)
        np.multiply(y, np.divide(e, work, out=e), out=e)
        descent = x.T @ e / n                  # minus the gradient
        grad_norm = math.sqrt(descent @ descent)
        if snapshot_every and epoch % snapshot_every == 0:
            snapshots.append(w.copy())
        if grad_norm < (GRAD_TOL * loss if loss_scaled else GRAD_TOL):
            epochs_run = epoch
            break
        # loss-scaled steps counteract the vanishing-gradient tail after
        # separation and reach the max-margin direction at desk scale
        step = lr / max(loss, 1e-300) if loss_scaled else lr
        w += step * descent
    if epochs:                                 # the exact loss of the last margins
        loss = _logistic_loss(margins)
    return w, loss, grad_norm, epochs_run, snapshots


def _cross_entropy_gd(x, labels_idx, q, lr, epochs, w0, snapshot_every=0,
                      loss_scaled=False):
    n = x.shape[0]
    w = w0.copy()
    onehot = np.zeros((n, q))
    onehot[np.arange(n), labels_idx] = 1.0
    own = np.arange(n) * q + labels_idx    # flat index of each row's own class
    snapshots = []
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        # softmax in place; the reductions keep the axis and summation order
        # of ndarray.max / ndarray.sum, so every probability is unchanged
        probs = x @ w
        probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
        loss = -float(np.add.reduce(np.log(np.take(probs, own) + 1e-300))) / n
        if blowup is None:
            blowup = 1e3 * (loss + 1.0)
        if not math.isfinite(loss) or loss > blowup:
            raise TrainingError(f"cross-entropy GD diverged at epoch {epoch} (lr={lr})")
        probs -= onehot
        grad = x.T @ probs / n
        flat = grad.ravel()
        grad_norm = math.sqrt(flat @ flat)
        if snapshot_every and epoch % snapshot_every == 0:
            snapshots.append(w.copy())
        if grad_norm < (GRAD_TOL * loss if loss_scaled else GRAD_TOL):
            epochs_run = epoch
            break
        step = lr / max(loss, 1e-300) if loss_scaled else lr
        w -= step * grad
    return w, loss, grad_norm, epochs_run, snapshots


def sl_fit_gd(images: np.ndarray, labels, loss_kind: str = "logistic",
              lr: float = SL_GD_DEFAULTS["lr"],
              epochs: int = SL_GD_DEFAULTS["epochs"],
              rng: RngStream | None = None,
              init_scale: float = SL_GD_DEFAULTS["init_scale"],
              snapshot_every: int = 0, loss_scaled: bool = False) -> SLModel:
    """Supervised linear fit by full-batch gradient descent.

    Binary uses logistic loss on +-1 labels (q = 1, sign rule); multiclass uses
    cross-entropy over the sorted distinct labels. At long horizons the
    normalized direction approaches the hard-margin separator; constant steps
    get there only logarithmically, so ``loss_scaled=True`` offers the usual
    normalized-step acceleration for oracle comparisons. ``training_meta``
    records the epoch budget (``epochs``), the steps taken (``epochs_run``)
    and the dimension GD iterated in (``gd_dim``: n when n < d, else d).
    """
    x = np.asarray(images, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArgumentError("images must be finite")
    if len(np.unique(np.asarray(labels))) < 2:
        raise ArgumentError("labels must cover at least 2 classes")
    _check_gd_budget(lr, epochs)
    if rng is None:
        raise ArgumentError("sl_fit_gd requires an RngStream for initialization")
    g = rng.generator()
    n, d = x.shape
    if loss_kind == "logistic":
        y = _as_binary_labels(labels)
        q, classes = 1, (-1, 1)
        w0 = init_scale * g.standard_normal(d)

        def descend(features, start):
            return _logistic_gd(features, y, lr, epochs, start, snapshot_every,
                                loss_scaled)
    elif loss_kind == "cross-entropy":
        distinct, labels_idx = np.unique(np.asarray(labels), return_inverse=True)
        classes = tuple(int(v) for v in distinct)
        q = len(classes)
        w0 = init_scale * g.standard_normal((d, q))

        def descend(features, start):
            return _cross_entropy_gd(features, labels_idx, q, lr, epochs, start,
                                     snapshot_every, loss_scaled)
    else:
        raise ArgumentError(f"loss_kind must be logistic or cross-entropy, got {loss_kind!r}")
    if n < d:
        # GD never leaves w0 + rowspan(x). With x^T = Q R (Q orthonormal,
        # d x n) the iterates are w0 - Q c0 + Q c, where c follows GD on the
        # n x n features R^T from c0 = Q^T w0: margins x w = R^T c and
        # gradient norms ||x^T v|| = ||R v|| are unchanged, so every loss,
        # stopping and divergence decision sees the same numbers up to rounding.
        basis, r = np.linalg.qr(x.T)
        c0 = basis.T @ w0
        offset = w0 - basis @ c0
        c, loss, grad_norm, epochs_run, snaps = descend(r.T, c0)
        w = offset + basis @ c
        snaps = [offset + basis @ snap for snap in snaps]
    else:
        w, loss, grad_norm, epochs_run, snaps = descend(x, w0)
    meta = {"loss_kind": loss_kind, "lr": lr, "epochs": epochs,
            "epochs_run": epochs_run, "gd_dim": min(n, d),
            "loss_scaled": loss_scaled, "final_loss": loss,
            "final_grad_norm": grad_norm}
    if snapshot_every:
        meta["snapshots"] = snaps
    return SLModel(W=w.reshape(d, q), q=q, classes=classes, training_meta=meta)


# ---------------------------------------------------------------------------
# supervised-contrastive closed form and linear probes


def supcon_fit_closed_form(cov: ClassMeanCov, p_dim: int, rho: float) -> SupConEncoder:
    """Encoder rows sqrt(lambda_i / rho) u_i^T from the top class-mean eigenpairs.

    The eigenbasis is canonicalized (descending eigenvalues, each vector's
    largest-magnitude entry made positive) so repeated fits are bit-identical.
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    d = cov.S.shape[0]
    if not 1 <= p_dim <= d:
        raise DimensionError(f"p_dim={p_dim} out of range for covariance dim {d}")
    evals, evecs = np.linalg.eigh(cov.S)
    order = np.argsort(evals)[::-1][:p_dim]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    anchor = np.abs(evecs).argmax(axis=0)
    signs = np.sign(evecs[anchor, np.arange(evecs.shape[1])])
    evecs = evecs * np.where(signs == 0, 1.0, signs)
    w = np.sqrt(evals / rho)[:, None] * evecs.T
    return SupConEncoder(W=w, eigenvalues=evals, p_dim=p_dim, rho=rho)


def probe_fit(representations: np.ndarray, labels, lr: float = SL_GD_DEFAULTS["lr"],
              epochs: int = SL_GD_DEFAULTS["epochs"],
              rng: RngStream | None = None) -> ProbeModel:
    """Linear classifier on frozen representations (same GD contract as sl_fit_gd)."""
    reps = np.asarray(representations, dtype=float)
    if not np.all(np.isfinite(reps)):
        raise ArgumentError("representations must be finite")
    y = np.asarray(labels)
    binary = set(np.unique(y)) <= {-1, 1}
    kind = "logistic" if binary else "cross-entropy"
    model = sl_fit_gd(reps, y, loss_kind=kind, lr=lr, epochs=epochs, rng=rng)
    return ProbeModel(B=model.W.T, classes=model.classes,
                      training_meta=model.training_meta)
