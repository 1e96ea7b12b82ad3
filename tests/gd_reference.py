"""Frozen reference copies of the supervised GD loops, test-only.

These are the straightforward per-epoch loops that ``mmclab.training`` once
ran: the exact logistic loss every epoch, a masked stable sigmoid, and
cross-entropy through fresh temporaries. The library's fused loops must return
bit-identical weights, snapshots, losses, gradient norms and step counts.
Do not optimise this file. The one change since: a cross-entropy divergence
decision takes the exact loss when an own-class probability falls under the
1e-300 floor, which otherwise hides any blow-up.

``margin_gd`` is the margin-space loop (n < d) as the library ran it before
its convergence gate: it forms the gradient norm every epoch. It forms K v
through the library's ``numerics.gram_product``, as the library does, so that
the two sum each row of K v in the same order.
"""
import math

import numpy as np

from mmclab.errors import TrainingError
from mmclab.numerics import gram_product
from mmclab.training import GRAD_TOL


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
