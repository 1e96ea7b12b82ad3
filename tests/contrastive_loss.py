"""The exact contrastive loss of a factored model, for tests (test-only).

The library fits by the closed form or by gradient descent on the equivalent
trace form -<G, S> + (rho/2)||G||_F^2; these tests check that identity and the
minimum against the pairwise loss itself.
"""
import numpy as np

from mmclab import ArgumentError


def mmcl_loss(model, data) -> float:
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
