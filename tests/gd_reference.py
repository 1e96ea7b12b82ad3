"""Reference copies of the supervised GD loops, test-only.

The frozen loops (``logistic_gd``, ``cross_entropy_gd``, ``margin_gd``) are the
straightforward per-epoch loops that ``mmclab.training`` once ran: the exact
logistic loss every epoch, a masked stable sigmoid, and cross-entropy through
fresh temporaries with every softmax shifted by its row max. Do not optimise
this file. The one change to them since: a cross-entropy divergence decision
takes the exact loss when an own-class probability falls under the 1e-300
floor, which otherwise hides any blow-up.

``margin_gd`` is the margin-space loop (n < d) as the library ran it before
its convergence gate: it forms the gradient norm every epoch. It forms K v
through the library's ``numerics.gram_product``, as the library does, so that
the two sum each row of K v in the same order.

The contract has changed twice since, and the class-major loops below state
the current one; the library's fused loops must return bit-identical weights,
losses, gradient norms and step counts to them. The first change: weights are
held as q x d and scores and residuals as q x n, so the scores are W x^T and
the gradient V x / n; and a softmax is shifted by its max only when
max |score| >= ``_SCORE_CAP``. The second folds the step into the inputs: the
scores multiply a C-order copy of x^T; cross-entropy steps by (P - Y)(h x),
h = -lr / n, with its row sums a product by a vector of q ones; the logistic
rows are multiplied by +y, so the scores are the margins m, and the step is
v x with v = (lr / n) / (1 + e^m), one exp that overflows to inf, and v to 0,
past exp's range; and a norm is ||step|| / lr. The frozen loops stay as they
were, and a test holds them within a derived rounding bound of the class-major
loops.
"""
import math
from functools import partial

import numpy as np

from mmclab.errors import TrainingError
from mmclab.numerics import gram_product
from mmclab.training import _SCORE_CAP, GRAD_TOL


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_gd(x, y, lr, epochs, w0, snapshot_every=0, loss_scaled=False):
    n = x.shape[0]
    w = w0.copy()
    snapshots = []
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        margins = y * (x @ w)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        if blowup is None:
            blowup = 1e3 * (loss + 1.0)
        if not np.isfinite(loss) or loss > blowup:
            raise TrainingError(f"logistic GD diverged at epoch {epoch} (lr={lr})")
        sig = _stable_sigmoid(-margins)
        grad = -(x.T @ (y * sig)) / n
        grad_norm = float(np.linalg.norm(grad))
        if snapshot_every and epoch % snapshot_every == 0:
            snapshots.append(w.copy())
        if grad_norm < (GRAD_TOL * loss if loss_scaled else GRAD_TOL):
            epochs_run = epoch
            break
        step = lr / max(loss, 1e-300) if loss_scaled else lr
        w = w - step * grad
    return w, loss, grad_norm, epochs_run, snapshots


def cross_entropy_gd(x, labels_idx, q, lr, epochs, w0, snapshot_every=0,
                     loss_scaled=False):
    n = x.shape[0]
    w = w0.copy()
    onehot = np.zeros((n, q))
    onehot[np.arange(n), labels_idx] = 1.0
    snapshots = []
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        scores = x @ w
        scores = scores - scores.max(axis=1, keepdims=True)
        expsc = np.exp(scores)
        probs = expsc / expsc.sum(axis=1, keepdims=True)
        own = probs[np.arange(n), labels_idx]
        loss = float(-np.mean(np.log(own + 1e-300)))
        # the 1e-300 floor caps the loss below blowup; when an own-class
        # probability is under it, the exact log-sum-exp loss decides
        decisive = loss
        if own.min() < 1e-300:
            decisive = float(np.mean(np.log(expsc.sum(axis=1))
                                     - scores[np.arange(n), labels_idx]))
        if blowup is None:
            blowup = 1e3 * (decisive + 1.0)
        if not np.isfinite(decisive) or decisive > blowup:
            raise TrainingError(f"cross-entropy GD diverged at epoch {epoch} (lr={lr})")
        grad = x.T @ (probs - onehot) / n
        grad_norm = float(np.linalg.norm(grad))
        if snapshot_every and epoch % snapshot_every == 0:
            snapshots.append(w.copy())
        if grad_norm < (GRAD_TOL * loss if loss_scaled else GRAD_TOL):
            epochs_run = epoch
            break
        step = lr / max(loss, 1e-300) if loss_scaled else lr
        w = w - step * grad
    return w, loss, grad_norm, epochs_run, snapshots


def margin_gd(x, target, q, lr, epochs, w0):
    """GD on W = w0 + x^T A through the scores S = x W, for n < d: a step moves
    A by -lr/n V and S by -lr/n K V, K = x x^T, with V the residual (sigmoid
    of the negated margins, or P - Y). The logistic rows are multiplied by -y
    first, so S is the negated margins. The norm is sqrt(<V, K V>)/n when that
    clears GRAD_TOL by more than its rounding bound, else ||x^T V||/n."""
    n, d = x.shape
    if q == 1:
        x = x * -target[:, None]
    else:
        onehot = np.zeros((n, q))
        onehot[np.arange(n), target] = 1.0
    gram = np.dot(x, x.T)
    slack = np.finfo(float).eps * (n * np.linalg.norm(gram) + d * np.linalg.norm(x) ** 2)
    scores, coef = np.dot(x, w0), np.zeros((n,) + w0.shape[1:])
    v, kv = np.empty_like(coef), np.empty_like(coef)
    gram_times_v = gram_product(gram, v, kv)
    loss = np.inf
    grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        if q == 1:
            loss = decisive = float(np.mean(np.logaddexp(0.0, scores)))
            v[...] = _stable_sigmoid(scores)
        else:
            shifted = scores - scores.max(axis=1, keepdims=True)
            expsc = np.exp(shifted)
            probs = expsc / expsc.sum(axis=1, keepdims=True)
            own = probs[np.arange(n), target]
            loss = decisive = float(-np.mean(np.log(own + 1e-300)))
            if own.min() < 1e-300:
                decisive = float(np.mean(np.log(expsc.sum(axis=1))
                                         - shifted[np.arange(n), target]))
            v[...] = probs - onehot
        if blowup is None:
            blowup = 1e3 * (decisive + 1.0)
        if not np.isfinite(decisive) or decisive > blowup:
            kind = "logistic" if q == 1 else "cross-entropy"
            raise TrainingError(f"{kind} GD diverged at epoch {epoch} (lr={lr})")
        gram_times_v()
        quad, rounding = np.vdot(v, kv), slack * np.vdot(v, v)
        if quad - rounding > (GRAD_TOL * n) ** 2:
            grad_norm = math.sqrt(quad) / n
        else:
            grad_norm = float(np.linalg.norm(x.T @ v / n))
        if grad_norm < GRAD_TOL:
            epochs_run = epoch
            break
        scores = scores + kv * (-lr / n)
        coef = coef + v * (-lr / n)
    return w0 + x.T @ coef, loss, grad_norm, epochs_run


# ---------------------------------------------------------------------------
# the class-major contract: q x d weights, q x n scores and residuals, the step
# folded into the inputs, and a softmax shifted only at max |score| >= _SCORE_CAP


def _capped_softmax(scores, target):
    """The probabilities of q x n scores, with their floored and decisive losses,
    and whether the scores were shifted by their column max."""
    q, n = scores.shape
    shifted = bool(np.abs(scores).max() >= _SCORE_CAP)
    if shifted:
        scores = scores - scores.max(axis=0)
    expsc = np.exp(scores)
    sums = np.dot(np.ones(q), expsc)
    probs = expsc / sums
    own = probs[target, np.arange(n)]
    loss = decisive = float(-np.mean(np.log(own + 1e-300)))
    if own.min() < 1e-300:
        decisive = float(np.mean(np.log(sums) - scores[target, np.arange(n)]))
    return probs, loss, decisive, shifted


def _scaled_sigmoid(margins, lr, n):
    """(lr / n) sigmoid(-m) = (lr / n) / (1 + e^m): 0 where e^m overflows."""
    with np.errstate(over="ignore"):
        return (lr / n) / (1.0 + np.exp(margins))


def _norm(step, lr):
    return math.sqrt(np.dot(step.ravel(), step.ravel())) / lr


def class_major_logistic_gd(x, y, lr, epochs, w0):
    n = x.shape[0]
    x = x * y[:, None]                  # w x^T is then the margins
    x_t = x.T.copy()
    w = w0.copy()
    loss = grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        margins = np.dot(w, x_t)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        if blowup is None:
            blowup = 1e3 * (loss + 1.0)
        if not np.isfinite(loss) or loss > blowup:
            raise TrainingError(f"logistic GD diverged at epoch {epoch} (lr={lr})")
        step = np.dot(_scaled_sigmoid(margins, lr, n), x)
        grad_norm = _norm(step, lr)
        if grad_norm < GRAD_TOL:
            epochs_run = epoch
            break
        w = w + step
    return w, loss, grad_norm, epochs_run


def class_major_cross_entropy_gd(x, target, q, lr, epochs, w0, shifts=None):
    """Appends to ``shifts``, when given, each epoch whose softmax is shifted."""
    n = x.shape[0]
    hx, x_t = (-lr / n) * x, x.T.copy()
    w = w0.T.copy()
    onehot = np.zeros((q, n))
    onehot[target, np.arange(n)] = 1.0
    loss = grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        probs, loss, decisive, shifted = _capped_softmax(np.dot(w, x_t), target)
        if shifted and shifts is not None:
            shifts.append(epoch)
        if blowup is None:
            blowup = 1e3 * (decisive + 1.0)
        if not np.isfinite(decisive) or decisive > blowup:
            raise TrainingError(f"cross-entropy GD diverged at epoch {epoch} (lr={lr})")
        step = np.dot(probs - onehot, hx)
        grad_norm = _norm(step, lr)
        if grad_norm < GRAD_TOL:
            epochs_run = epoch
            break
        w = w + step
    return w.T.copy(), loss, grad_norm, epochs_run


def class_major_margin_gd(x, target, q, lr, epochs, w0, shifts=None):
    """``margin_gd`` on the class-major contract, for n < d: W = w0 + A x. The
    logistic residual v is the step's own, so A sums the v and the scores the
    v K. Cross-entropy folds h = -lr/n into x and K instead: W = w0 + B (h x)
    for the sum B of the V, and the scores sum the V (h K). ||step||^2 is
    <v, v K> or h <V, V (h K)> when that clears GRAD_TOL by more than its
    rounding bound, else the step is formed as v x or V (h x). Appends to
    ``shifts`` as ``class_major_cross_entropy_gd`` does."""
    n, d = x.shape
    h = -lr / n
    if q == 1:
        x = x * target[:, None]
        inputs, scale = x, 1.0
    else:
        onehot = np.zeros((q, n))
        onehot[target, np.arange(n)] = 1.0
        inputs, scale = h * x, h
    gram = np.dot(x, x.T)
    slack = (np.finfo(float).eps * (n * np.linalg.norm(gram) + d * np.linalg.norm(x) ** 2)
             * (scale * scale))
    scores, coef = np.dot(x, w0).T.copy(), np.zeros(w0.shape[1:] + (n,))
    v, kv = np.empty_like(coef), np.empty_like(coef)
    gram_times_v = gram_product(gram, v, kv) if q == 1 else partial(np.dot, v, h * gram, kv)
    loss = grad_norm = np.inf
    blowup = None
    epochs_run = epochs
    for epoch in range(epochs):
        if q == 1:
            loss = decisive = float(np.mean(np.logaddexp(0.0, -scores)))
            v[...] = _scaled_sigmoid(scores, lr, n)
        else:
            probs, loss, decisive, shifted = _capped_softmax(scores, target)
            if shifted and shifts is not None:
                shifts.append(epoch)
            v[...] = probs - onehot
        if blowup is None:
            blowup = 1e3 * (decisive + 1.0)
        if not np.isfinite(decisive) or decisive > blowup:
            kind = "logistic" if q == 1 else "cross-entropy"
            raise TrainingError(f"{kind} GD diverged at epoch {epoch} (lr={lr})")
        gram_times_v()
        quad, rounding = scale * np.vdot(v, kv), slack * np.vdot(v, v)
        if quad - rounding > (GRAD_TOL * lr) * (GRAD_TOL * lr):
            grad_norm = math.sqrt(quad) / lr
        else:
            grad_norm = _norm(np.dot(v, inputs), lr)
        if grad_norm < GRAD_TOL:
            epochs_run = epoch
            break
        scores = scores + kv
        coef = coef + v
    return w0 + np.dot(inputs.T, coef.T), loss, grad_norm, epochs_run
