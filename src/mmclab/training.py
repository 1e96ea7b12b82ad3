"""Model fitting: contrastive encoders by closed-form SVD and by gradient
descent, supervised linear models by gradient descent, the supervised-
contrastive closed form, and linear probes on frozen representations.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .covariance import empirical_cross_cov
from .datagen import PairedDataset
from .errors import ArgumentError, DimensionError, DomainError, TrainingError
from .numerics import RANK_CUTOFF_RATIO, Dictionary, RngStream, _readonly, gram_product, svd_top

# Defaults for gradient-descent fits. Long horizons matter for the supervised
# trainers because predictions ride on the implicit-bias (max-margin) direction.
MMCL_GD_DEFAULTS = dict(lr=0.1, epochs=2000, init_scale=1e-3)
SL_GD_DEFAULTS = dict(lr=0.05, epochs=20000, init_scale=1e-3)
GRAD_TOL = 1e-8
_LOG2 = math.log(2.0)
# The divergence ceiling must undercut blowup by this factor before the loss
# bound and the exact loss are skipped. The slack (at least 1e-3, since
# blowup >= 1e3) dwarfs the rounding that the ceiling's rise ignores: about
# (d + steps since the bound was formed) * eps * max_i ||x_i|| ||W||, under
# 1e-3 while that product of norms and counts stays under about 4e12.
_BOUND_CLEARANCE = 1.0 - 1e-6
# The convergence gate's bound shrinks by this extra share of itself each
# epoch. While the norm stays above 2E (see _descend), that covers the
# rounding of the steps and of the skip count, about
# 3e-8 sqrt(n + d) (1 + max |score|) of the norm per epoch, while that
# product of a size and a score stays under about 3e5
_DECAY_ALLOWANCE = 1e-2
_EPS = np.finfo(float).eps
_SIGN_BIT = np.int64(-2 ** 63)


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
            gap = np.linalg.norm(np.dot(self.W_I.T, self.W_T) - self.G)
            scale = max(np.linalg.norm(self.G), 1e-30)
            if gap / scale >= 1e-8:
                raise ArgumentError(
                    f"factors do not reproduce G (relative gap {gap / scale:.2e})")


@dataclass(frozen=True)
class SLModel:
    """Supervised linear weights; q = 1 for binary (sign rule), else one
    column per class (argmax rule over ``classes``)."""

    W: np.ndarray                     # d x q
    classes: tuple
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "W", _readonly(self.W))

    @property
    def q(self) -> int:
        return self.W.shape[1]


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
        return np.dot(np.asarray(x, dtype=float), self.W.T)


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
    return np.dot(np.dot(image_dictionary.matrix, g_latent), text_dictionary.matrix.T)


def mmcl_fit_closed_form(S: np.ndarray, p_dim: int, rho: float,
                         image_dictionary: Dictionary | None = None,
                         text_dictionary: Dictionary | None = None) -> MMCLModel:
    """Closed-form minimizer: G = (1/rho) * best rank-p approximation of S.

    Given dictionaries, S is a latent covariance: it is factorized in latent
    coordinates and G is lifted through them afterwards (the lift preserves
    singular structure because dictionary columns are orthonormal).
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    if not 1 <= p_dim <= min(S.shape):
        raise DimensionError(f"p_dim={p_dim} out of range for covariance shape {S.shape}")
    approx, rank = svd_top(S, p_dim)
    g = _lift(approx / rho, image_dictionary, text_dictionary)
    return MMCLModel(G=g, p_dim=p_dim, rho=rho,
                     training_meta={"fit": "closed-form", "rank": rank})


def _check_gd_budget(lr, epochs):
    if not (isinstance(lr, numbers.Real) and math.isfinite(lr) and lr > 0):
        raise DomainError(f"lr must be positive and finite, got {lr!r}")
    if not isinstance(epochs, numbers.Integral) or isinstance(epochs, bool) or epochs < 0:
        raise ArgumentError(f"epochs must be an integer >= 0, got {epochs!r}")


def _mmcl_objective(w_i: np.ndarray, w_t: np.ndarray, s: np.ndarray, rho: float):
    g = np.dot(w_i.T, w_t)
    loss = -np.einsum("ij,ij->", g, s) + 0.5 * rho * np.einsum("ij,ij->", g, g)
    grad_i = np.dot(-w_t, s.T) + np.dot(rho * w_t, g.T)
    grad_t = np.dot(-w_i, s) + np.dot(rho * w_i, g)
    return loss, grad_i, grad_t


def mmcl_fit_gd(data: PairedDataset, p_dim: int, rho: float,
                lr: float = MMCL_GD_DEFAULTS["lr"],
                epochs: int = MMCL_GD_DEFAULTS["epochs"],
                rng: RngStream | None = None) -> MMCLModel:
    """Full-batch gradient descent on the contrastive loss from small Gaussian init.

    The pairwise loss equals -<G, S> + (rho/2)||G||_F^2 exactly (S the
    empirical cross-covariance), so gradients are computed in that form; the
    tests check the identity against the pairwise loss. ``training_meta``
    records the epoch budget (``epochs``) and the steps taken (``epochs_run``,
    fewer when the gradient norm falls under ``GRAD_TOL``).
    """
    _check_gd_budget(lr, epochs)
    if rng is None:
        raise ArgumentError("mmcl_fit_gd requires an RngStream for initialization")
    s = empirical_cross_cov(data)
    g = rng.generator()
    init_scale = MMCL_GD_DEFAULTS["init_scale"]
    w_i = init_scale * g.standard_normal((p_dim, data.d_image))
    w_t = init_scale * g.standard_normal((p_dim, data.d_text))
    loss0, _, _ = _mmcl_objective(w_i, w_t, s, rho)
    blowup = 1e3 * (abs(loss0) + 1.0)
    loss = loss0
    grad_norm = np.inf
    epochs_run = epochs
    for epoch in range(epochs):
        loss, grad_i, grad_t = _mmcl_objective(w_i, w_t, s, rho)
        if not np.isfinite(loss) or loss > blowup:
            raise TrainingError(f"contrastive GD diverged at epoch {epoch} (lr={lr})")
        grad_norm = np.sqrt(np.sum(grad_i ** 2) + np.sum(grad_t ** 2))
        if grad_norm < GRAD_TOL:
            epochs_run = epoch
            break
        w_i = w_i - lr * grad_i
        w_t = w_t - lr * grad_t
    meta = {"fit": "gd", "lr": lr, "epochs": epochs, "epochs_run": epochs_run,
            "init_scale": init_scale, "final_loss": float(loss),
            "final_grad_norm": float(grad_norm)}
    return MMCLModel(G=np.dot(w_i.T, w_t), p_dim=p_dim, rho=rho, W_I=w_i, W_T=w_t,
                     training_meta=meta)


# ---------------------------------------------------------------------------
# supervised fits (logistic / cross-entropy gradient descent)


def _logistic_loss(neg_margins: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, neg_margins)))


def _cross_entropy_loss(own_probs: np.ndarray) -> float:
    """Mean -log of the own-class probabilities, floored at 1e-300."""
    return -float(np.add.reduce(np.log(own_probs + 1e-300))) / len(own_probs)


def _descend(x, target, q, lr, epochs, w0, margin_space=False):
    """Full-batch GD from w0 on the logistic loss (q = 1, ``target`` the +-1
    labels) or on cross-entropy (``target`` the class indices). It steps the
    weights, or with ``margin_space`` the margins; the two differ only in how
    scores, the gradient norm and the step are formed.
    Returns the weights, final loss and gradient norm, and steps taken.
    The final loss is the exact (logistic) or floored (cross-entropy) loss of
    the last epoch's scores, taken after the loop since most epochs skip it.

    Margin space, for n < d: GD never leaves w0 + rowspan(x), so
    W = w0 + x^T A. With K = x x^T, a step of A by h V moves the scores x W by
    h K V, and the gradient norm ||x^T V|| / n is sqrt(<V, K V>) / n: one n x n
    product per epoch. ``state`` holds the scores and A as its two rows and
    ``delta`` holds K V and V, so a step is one multiply and one add. A step
    writes the spare buffer, so the scores it stepped from stay readable.
    <V, K V> decides the norm only when, less its rounding bound
    ``slack`` ||V||^2, it still puts the norm above GRAD_TOL; otherwise the
    gradient is formed as x^T V / n and its norm taken directly. The slack bounds
    an n-term sum's rounding in any order, so it covers K V by OpenBLAS's dsymv on
    one triangle of K (``numerics.gram_product``) as well as by np.dot.

    Divergence gate: the loss is at most a bound B, log 2 + mean(max(-m, 0))
    over the margins m (logistic) or log q - mean(own shifted score) over the
    scores minus their row max (cross-entropy). A step moves W by lr ||g||, so
    it moves a margin by at most ||x_i|| lr ||g|| and an own shifted score by
    at most twice that: B rises by at most c lr ||g||, with c the mean row norm
    (logistic) or twice it. A running ceiling adds that rise to the last B
    formed. B is formed again only when the ceiling no longer clears the
    blowup level, and the exact loss only when B does not clear it either;
    NaN and inf never clear. So every divergence decision is the exact loss's.

    Convergence gate: the loss's curvature in the scores is at most c = 1/4
    (logistic) or 1/2 (cross-entropy), and trace(K) >= lambda_max(K) for
    K = x x^T, so a step shrinks ||g|| by at most the factor 1 - r, with
    r = c lr trace(K) / n. A formed norm G thus bounds the norm k epochs later
    from below by G (1 - r - a)^k, a = ``_DECAY_ALLOWANCE``. The norm is formed
    again only at the first epoch k with G (1 - r - a)^(k + 1) <= GRAD_TOL + 3E,
    and at the last epoch; E = sqrt(eps (n + d) b trace(K) / n), with
    ||v||^2 <= n b (b = 1 logistic, 2 cross-entropy), covers the rounding of a
    formed norm and of the stop test. On the epochs between, ||g|| is at most
    sqrt(trace(K) n b) / n, which the divergence ceiling adds instead. So every
    stop, and the reported norm, is what forming the norm every epoch gives.
    """
    n, d = x.shape
    if q == 1:
        # rows times -y: x w is then -m and x^T sigmoid(-m) / n the gradient.
        # Sign flips are exact, so every product and sum keeps its bytes
        x = x * -target[:, None]
    w, x_t = w0.copy(), x.T
    # per-epoch work arrays, reused so that an epoch allocates no array
    grad, step = np.empty_like(w0), np.empty_like(w0)
    flat = grad.reshape(-1)
    xw = np.empty((n,) + w0.shape[1:])
    if margin_space:
        gram = np.dot(x, x.T)
        shape = (2, n) + w0.shape[1:]
        state, spare = np.zeros(shape), np.empty(shape)
        state[0] = np.dot(x, w0)
        # each buffer's scores, and the same row as integers for bit operations
        scores, spare_scores = [(a[0], a[0].view(np.int64)) for a in (state, spare)]
        delta, shift = np.empty(shape), np.empty(shape)
        kv, out = delta                    # v is formed in place, beside K v
        gram_times_v = gram_product(gram, out, kv)
        # rounding bound of <v, K v> per unit ||v||^2
        slack = _EPS * (n * np.linalg.norm(gram) + d * np.linalg.norm(x) ** 2)
        quad_tol = (GRAD_TOL * n) ** 2     # GRAD_TOL on the scale of <v, K v>
    else:
        out = np.empty_like(xw)
    if q == 1:
        work, sign = np.empty(n), np.empty(n)
        xw_bits, out_bits = xw.view(np.int64), out.view(np.int64)
    else:
        onehot = np.zeros((n, q))
        onehot[np.arange(n), target] = 1.0
        own = target * n + np.arange(n)    # flat index of each row's own class, class-major
        log_q = math.log(q)
        # the softmax runs class-major, on q rows of n contiguous entries;
        # the residual has its own n x q array, so that the last epoch's
        # probabilities survive the loop for the final loss
        probs_t = np.empty((q, n))
        probs = probs_t.T
        row_max, row_sum = np.empty(n), np.empty(n)
    # the rise of B per unit of ||g||; in margin space the squared row norms
    # are the diagonal of K
    squares = np.diagonal(gram) if margin_space else np.einsum("ij,ij->i", x, x)
    drift = (1.0 if q == 1 else 2.0) * lr * float(np.mean(np.sqrt(squares)))
    # the convergence gate's terms (see above); it certifies no epoch when
    # 1 - r - a <= 0
    b, trace = (1.0 if q == 1 else 2.0), float(np.sum(squares))
    decay = 1.0 - (0.25 if q == 1 else 0.5) * lr * trace / n - _DECAY_ALLOWANCE
    floor = GRAD_TOL + 3.0 * math.sqrt(_EPS * (n + d) * b * trace / n)
    gate = floor / decay ** 2 if decay > 0 else math.inf
    rise_max = drift * math.sqrt(trace * n * b) / n
    formed = 0                             # the next epoch that forms the norm
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    ceiling, limit = math.nan, -math.inf   # nothing clears until epoch 0 sets blowup
    epochs_run = epochs
    h = -lr / n
    # An epoch is about a dozen numpy calls on small arrays, a microsecond
    # each. Local names and positional outputs spare their lookups and
    # keyword parsing, about a tenth of an epoch at the probe shapes
    dot, exp, divide, subtract, multiply = np.dot, np.exp, np.divide, np.subtract, np.multiply
    reduce_max, reduce_sum, sqrt = np.maximum.reduce, np.add.reduce, math.sqrt
    bitwise_or = np.bitwise_or
    for epoch in range(epochs):
        check = False
        if margin_space:                   # the scores, read before the step moves them
            xw, xw_bits = scores
        else:
            dot(x, w, xw)
        if q == 1:
            if not ceiling < limit:            # re-anchor on B
                ceiling = _LOG2 + float(reduce_sum(np.maximum(xw, 0.0, out=work))) / n
                check = not ceiling < limit
            if check:
                loss = _logistic_loss(xw)
                if blowup is None:
                    blowup = 1e3 * (loss + 1.0)
                    limit = _BOUND_CLEARANCE * blowup
                if not math.isfinite(loss) or loss > blowup:
                    raise TrainingError(f"logistic GD diverged at epoch {epoch} (lr={lr})")
            # sigmoid(-m) from one exp, e = e^-|m|: 1/(1+e) for m <= 0, else
            # e/(1+e); max(e, sign(-m)) picks the numerator, as e <= 1 and
            # e = 1 at m = 0. -|m| is m with its sign bit set, which one
            # integer OR forms (np.copysign is not vectorised, and slower)
            bitwise_or(xw_bits, _SIGN_BIT, out_bits)
            exp(out, out)
            np.add(out, 1.0, work)
            np.maximum(out, np.sign(xw, sign), out=out)
            v = divide(out, work, out)
        else:
            # a max is exact in any order, so the row max matches ndarray.max
            np.copyto(probs_t, xw.T)
            reduce_max(probs_t, axis=0, out=row_max)
            subtract(probs_t, row_max, probs_t)
            if not ceiling < limit:            # re-anchor on B
                own_shifted = probs_t.take(own)
                ceiling = log_q - float(reduce_sum(own_shifted)) / n
                check = not ceiling < limit
            exp(probs_t, probs_t)
            # ndarray.sum folds a row of the n x q layout left below 8 entries,
            # which a class-major reduce matches, and pairwise from 8, which
            # only that layout gives
            if q < 8:
                reduce_sum(probs_t, axis=0, out=row_sum)
            else:
                np.copyto(out, probs)
                reduce_sum(out, axis=1, out=row_sum)
            divide(probs_t, row_sum, probs_t)
            if check:
                own_probs = probs_t.take(own)
                loss = decisive = _cross_entropy_loss(own_probs)
                # the 1e-300 floor caps a row's loss near 690.8, under any blowup
                # level; a row below it adds over 690 to the sum, so the exact
                # loss decides
                if loss * n > 690.0 and own_probs.min() < 1e-300:
                    decisive = float(np.mean(np.log(row_sum) - own_shifted))
                if blowup is None:
                    blowup = 1e3 * (decisive + 1.0)
                    limit = _BOUND_CLEARANCE * blowup
                if not math.isfinite(decisive) or decisive > blowup:
                    raise TrainingError(f"cross-entropy GD diverged at epoch {epoch} (lr={lr})")
            # the residual goes to np.dot in the n x q layout: a class-major
            # one takes another BLAS path, whose sums differ at d = 1
            v = subtract(probs, onehot, out)
        # v is the residual of each row, so x^T v / n is the gradient
        if margin_space:
            gram_times_v()
        else:
            divide(dot(x_t, v, grad), n, grad)
        if epoch < formed:                 # the norm clears GRAD_TOL (see above)
            ceiling += rise_max
        else:
            if margin_space:               # <v, K v>, if it clears its rounding (see above)
                quad, rounding = np.vdot(v, kv), slack * np.vdot(v, v)
                trusted = quad - rounding > quad_tol
                if trusted:
                    grad_norm, norm_bound = sqrt(quad) / n, sqrt(quad + rounding) / n
                else:
                    divide(dot(x_t, v, grad), n, grad)
            if not margin_space or not trusted:
                grad_norm = norm_bound = sqrt(dot(flat, flat))
            if grad_norm < GRAD_TOL:
                epochs_run = epoch
                break
            if grad_norm > gate:           # _DECAY_ALLOWANCE covers this count's rounding
                formed = min(epoch + int(math.log(grad_norm / floor) / -math.log(decay)),
                             epochs - 1)
            ceiling += drift * norm_bound
        if margin_space:                   # A by h v and the scores by h K v, into spare
            np.add(state, multiply(delta, h, shift), spare)
            state, spare = spare, state
            scores, spare_scores = spare_scores, scores
        else:
            subtract(w, multiply(grad, lr, step), w)
    if epochs:                                 # the loss of the last epoch's scores
        loss = _logistic_loss(xw) if q == 1 else _cross_entropy_loss(probs_t.take(own))
    return w0 + dot(x_t, state[1]) if margin_space else w, loss, grad_norm, epochs_run


def sl_fit_gd(images: np.ndarray, labels, lr: float = SL_GD_DEFAULTS["lr"],
              epochs: int = SL_GD_DEFAULTS["epochs"],
              rng: RngStream | None = None) -> SLModel:
    """Supervised linear fit by full-batch gradient descent at a constant step.

    Labels in {-1, +1} take the logistic loss (q = 1, sign rule); any other
    labels take cross-entropy over the sorted distinct ones. At long horizons
    the normalized direction approaches the hard-margin separator,
    logarithmically slowly. When n < d, GD runs in margin space
    (see :func:`_descend`). ``training_meta`` records the loss (``loss_kind``),
    the epoch budget (``epochs``), the steps taken (``epochs_run``) and the
    dimension GD iterated in (``gd_dim``: n when n < d, else d).
    """
    x = np.asarray(images, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArgumentError("inputs must be finite")
    y = np.asarray(labels)
    distinct, index = np.unique(y, return_inverse=True)
    if len(distinct) < 2:
        raise ArgumentError("labels must cover at least 2 classes")
    _check_gd_budget(lr, epochs)
    if rng is None:
        raise ArgumentError("sl_fit_gd requires an RngStream for initialization")
    g = rng.generator()
    n, d = x.shape
    if distinct.tolist() == [-1, 1]:
        loss_kind, q, classes, target = "logistic", 1, (-1, 1), y.astype(float)
    else:
        loss_kind, q, target = "cross-entropy", len(distinct), index
        classes = tuple(distinct.tolist())
    w0 = SL_GD_DEFAULTS["init_scale"] * g.standard_normal(d if q == 1 else (d, q))
    w, loss, grad_norm, epochs_run = _descend(
        x, target, q, lr, epochs, w0, margin_space=n < d)
    meta = {"loss_kind": loss_kind, "lr": lr, "epochs": epochs,
            "epochs_run": epochs_run, "gd_dim": min(n, d), "final_loss": loss,
            "final_grad_norm": grad_norm}
    return SLModel(W=w.reshape(d, q), classes=classes, training_meta=meta)


# ---------------------------------------------------------------------------
# supervised-contrastive closed form and linear probes


def supcon_fit_closed_form(cov: np.ndarray, p_dim: int, rho: float) -> SupConEncoder:
    """Encoder rows sqrt(lambda_i / rho) u_i^T from the top class-mean eigenpairs; as in
    ``svd_top``, one at or below ``RANK_CUTOFF_RATIO`` times the largest gives a zero row.

    The eigenbasis is canonicalized (descending eigenvalues, each vector's
    largest-magnitude entry made positive) so repeated fits are bit-identical.
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    d = cov.shape[0]
    if not 1 <= p_dim <= d:
        raise DimensionError(f"p_dim={p_dim} out of range for covariance dim {d}")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:p_dim]
    evals = np.where(evals[order] > RANK_CUTOFF_RATIO * evals[order[0]], evals[order], 0.0)
    evecs = evecs[:, order]
    anchor = np.abs(evecs).argmax(axis=0)
    signs = np.sign(evecs[anchor, np.arange(evecs.shape[1])])
    evecs = evecs * np.where(signs == 0, 1.0, signs)
    w = np.sqrt(evals / rho)[:, None] * evecs.T
    return SupConEncoder(W=w, eigenvalues=evals, p_dim=p_dim, rho=rho)


def probe_fit(representations: np.ndarray, labels, lr: float = SL_GD_DEFAULTS["lr"],
              epochs: int = SL_GD_DEFAULTS["epochs"],
              rng: RngStream | None = None) -> SLModel:
    """Linear classifier on frozen representations: :func:`sl_fit_gd` on them."""
    return sl_fit_gd(representations, labels, lr=lr, epochs=epochs, rng=rng)
