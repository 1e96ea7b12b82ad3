"""Hard-margin oracle for the supervised-training tests (test-only).

The minimum-norm linear separator, found by accelerated projected gradient
ascent on the hard-margin dual. The library never calls it; tests compare the
direction that gradient descent approaches against it.
"""
import numpy as np

from mmclab import ArgumentError, MmclabError, SLModel

_ORACLE_MAX_SIZE = 500
_ORACLE_FEAS_TOL = 1e-6
_ORACLE_DUAL_CAP = 1e12


class InfeasibleError(MmclabError, RuntimeError):
    """No weight vector satisfies the margin constraints."""


def _accelerated_ascent(grad_fn, alpha0, step, max_iter, done_fn):
    """FISTA-style projected ascent on a concave quadratic, alpha >= 0."""
    alpha = alpha0
    momentum = alpha0
    t = 1.0
    for it in range(max_iter):
        g = grad_fn(momentum)
        nxt = np.maximum(0.0, momentum + step * g)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = nxt + ((t - 1.0) / t_next) * (nxt - alpha)
        alpha, t = nxt, t_next
        if it % 200 == 0 and done_fn(alpha):
            break
    return alpha


def hard_margin_oracle(images: np.ndarray, labels,
                       max_iter: int = 200_000) -> SLModel:
    """Minimum-norm weights satisfying all pairwise unit-margin constraints.

    Solves the multiclass hard-margin dual by accelerated projected gradient
    ascent and certifies feasibility within 1e-6 before returning. Labels in
    {-1, +1} are the two-class problem, whose optimum has w_(+1) = -w_(-1);
    the binary separator is then w = W[:, +1] - W[:, -1], returned as one
    column for the sign rule. Restricted to small instances (n, d <= 500);
    non-separable data raises :class:`InfeasibleError`.
    """
    x = np.asarray(images, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n > _ORACLE_MAX_SIZE or d > _ORACLE_MAX_SIZE:
        raise ArgumentError(f"oracle restricted to n, d <= {_ORACLE_MAX_SIZE}, got {x.shape}")
    distinct, own = np.unique(np.asarray(labels), return_inverse=True)
    classes = tuple(int(v) for v in distinct)
    q = len(classes)
    onehot = np.zeros((n, q))
    onehot[np.arange(n), own] = 1.0
    gram = x @ x.T
    lam = max(np.linalg.eigvalsh(gram).max(), 1e-12)
    step = 1.0 / (lam * (1.0 + np.sqrt(q)) ** 2)

    def w_of(alpha):
        coeff = onehot * alpha.sum(axis=1, keepdims=True) - alpha
        return x.T @ coeff

    def margins_of(alpha):
        scores = x @ w_of(alpha)
        own_scores = scores[np.arange(n), own]
        gaps = own_scores[:, None] - scores
        gaps[np.arange(n), own] = np.inf
        return gaps

    def feasible(alpha):
        return margins_of(alpha).min() >= 1.0 - _ORACLE_FEAS_TOL

    def done(alpha):
        # feasible with the duality gap closed (KKT: sum(alpha) = ||W||^2)
        if not feasible(alpha):
            return False
        w = w_of(alpha)
        norm2 = float(np.einsum("ij,ij->", w, w))
        return abs(norm2 - alpha.sum()) <= 1e-8 * max(1.0, norm2)

    def grad(alpha):
        w = w_of(alpha)
        dual = alpha.sum() - 0.5 * float(np.einsum("ij,ij->", w, w))
        if dual > _ORACLE_DUAL_CAP:
            raise InfeasibleError("dual unbounded: training data are not separable")
        scores = x @ w
        g = 1.0 - (scores[np.arange(n), own][:, None] - scores)
        g[np.arange(n), own] = 0.0
        return g

    alpha = _accelerated_ascent(grad, np.zeros((n, q)), step, max_iter, done)
    if not feasible(alpha):
        raise InfeasibleError("margin constraints unsatisfied: data not separable "
                              "(or oracle iteration budget too small)")
    w = w_of(alpha)
    if classes == (-1, 1):
        return SLModel(W=(w[:, 1] - w[:, 0])[:, None], classes=classes,
                       training_meta={"fit": "hard-margin-oracle"})
    return SLModel(W=w, classes=classes, training_meta={"fit": "hard-margin-oracle"})
