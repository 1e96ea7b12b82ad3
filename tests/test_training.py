import numpy as np
import pytest

import gd_reference
from contrastive_loss import mmcl_loss
from margin_oracle import InfeasibleError, hard_margin_oracle
from mmclab import (ArgumentError, CaptionMask, DataModel1Params,
                    DataModel2Params, DimensionError, DomainError, ModalityConfig,
                    RngStream, TrainingError, empirical_cross_cov, enumerate_latents_dm2,
                    make_dictionary, make_paired_dataset, mmcl_fit_closed_form,
                    mmcl_fit_gd, probe_fit, sample_latents_dm1, sl_fit_gd,
                    supcon_class_mean_cov, supcon_fit_closed_form)
from mmclab.training import GRAD_TOL, SL_GD_DEFAULTS, MMCLModel, _descend

RNG = RngStream(11, 0)


def _model1_dataset(seed, n=200, d=32, noise=0.1, p_spu=0.9):
    rng = RngStream(seed, 77)
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, p_spu), n, "train", rng.child(1))
    di = ModalityConfig(make_dictionary(d, 2, "random-orthonormal", rng.child(2)), noise)
    dt = ModalityConfig(make_dictionary(d, 2, "random-orthonormal", rng.child(3)), noise)
    return make_paired_dataset(batch, di, dt, CaptionMask.none(), rng.child(4))


def test_closed_form_rank1_truncation_and_rho_scaling():
    model = mmcl_fit_closed_form(np.diag([2.0, 1.0]), 1, 0.5)
    np.testing.assert_allclose(model.G, [[4, 0], [0, 0]], atol=1e-12)


def test_closed_form_full_rank():
    model = mmcl_fit_closed_form(np.diag([2.0, 1.0]), 2, 1.0)
    np.testing.assert_allclose(model.G, np.diag([2.0, 1.0]), atol=1e-12)


def test_closed_form_dm1_population_literal():
    from mmclab import population_cross_cov_dm1
    s = population_cross_cov_dm1(DataModel1Params(1.0, 0.0, 1.0))
    model = mmcl_fit_closed_form(s, 2, 1.0)
    np.testing.assert_allclose(model.G, [[2, 1], [1, 1]], atol=1e-12)


def test_closed_form_rho_halves_g():
    s = np.array([[1.2, 0.3], [0.3, 0.9]])
    g1 = mmcl_fit_closed_form(s, 2, 1.0).G
    g2 = mmcl_fit_closed_form(s, 2, 2.0).G
    np.testing.assert_allclose(g1, 2.0 * g2, atol=1e-14)


def test_closed_form_p_dim_out_of_range():
    with pytest.raises(DimensionError):
        mmcl_fit_closed_form(np.eye(2), 3, 1.0)


def test_closed_form_lifts_latent_covariance():
    rng = RngStream(5, 5)
    di = make_dictionary(6, 2, "random-orthonormal", rng.child(1))
    dt = make_dictionary(5, 2, "random-orthonormal", rng.child(2))
    s = np.array([[2.0, 0.8], [0.8, 1.0]])
    model = mmcl_fit_closed_form(s, 2, 1.0, di, dt)
    assert model.G.shape == (6, 5)
    np.testing.assert_allclose(model.G, di.matrix @ s @ dt.matrix.T, atol=1e-12)


def test_closed_form_lifts_only_through_both_latent_dictionaries():
    rng = RngStream(5, 5)
    di = make_dictionary(6, 2, "random-orthonormal", rng.child(1))
    dt = make_dictionary(5, 2, "random-orthonormal", rng.child(2))
    with pytest.raises(ArgumentError, match="both dictionaries"):
        mmcl_fit_closed_form(np.eye(2), 2, 1.0, di)
    # an ambient covariance is not a latent one: its shape fails the lift
    ambient = np.dot(np.dot(di.matrix, np.diag([2.0, 1.0])), dt.matrix.T)
    with pytest.raises(DimensionError, match="latent dims"):
        mmcl_fit_closed_form(ambient, 2, 1.0, di, dt)


def test_gd_matches_closed_form():
    for seed in (0, 1):
        data = _model1_dataset(seed)
        s = empirical_cross_cov(data)
        closed = mmcl_fit_closed_form(s, 2, 1.0)
        gd = mmcl_fit_gd(data, 2, 1.0, rng=RngStream(seed, 123))
        gap = np.linalg.norm(gd.G - closed.G) / np.linalg.norm(closed.G)
        assert gap < 1e-3


def test_gd_diverges_at_huge_learning_rate():
    data = _model1_dataset(3)
    with pytest.raises(TrainingError, match="lr"):
        mmcl_fit_gd(data, 2, 1.0, lr=1e3, rng=RngStream(3, 9))


def test_loss_zero_at_zero_weights():
    data = _model1_dataset(4, n=20)
    zero = MMCLModel(G=np.zeros((32, 32)), p_dim=2, rho=1.0,
                     W_I=np.zeros((2, 32)), W_T=np.zeros((2, 32)))
    assert mmcl_loss(zero, data) == 0.0


def _literal_pairwise_loss(model, data):
    """Independent oracle: the O(n^2) double sum over ordered pairs."""
    r_i = data.x_image @ model.W_I.T
    r_t = data.x_text @ model.W_T.T
    s = r_i @ r_t.T
    n = data.n
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if j != i:
                acc += (s[i, j] - s[i, i]) + (s[j, i] - s[i, i])
    g = model.W_I.T @ model.W_T
    return acc / (2 * n * (n - 1)) + 0.5 * model.rho * np.sum(g * g)


def test_loss_identity_pairwise_vs_trace_form():
    for seed in range(20):
        rng = RngStream(seed, 55)
        data = _model1_dataset(seed, n=12, d=6)
        g = rng.generator()
        w_i = g.standard_normal((3, 6))
        w_t = g.standard_normal((3, 6))
        model = MMCLModel(G=w_i.T @ w_t, p_dim=3, rho=0.7, W_I=w_i, W_T=w_t)
        efficient = mmcl_loss(model, data)
        literal = _literal_pairwise_loss(model, data)
        s = empirical_cross_cov(data)
        trace_form = (-np.sum((w_i.T @ w_t) * s)
                      + 0.5 * 0.7 * np.sum((w_i.T @ w_t) ** 2))
        scale = max(abs(literal), 1.0)
        assert abs(efficient - literal) / scale < 1e-10
        assert abs(efficient - trace_form) / scale < 1e-10


def test_loss_minimum_against_random_perturbations():
    data = _model1_dataset(6, n=60, d=8)
    s = empirical_cross_cov(data)
    u, values, vt = np.linalg.svd(s)
    w_i = np.sqrt(values[:2])[:, None] * u[:, :2].T
    w_t = np.sqrt(values[:2])[:, None] * vt[:2]
    best = MMCLModel(G=w_i.T @ w_t, p_dim=2, rho=1.0, W_I=w_i, W_T=w_t)
    base = mmcl_loss(best, data)
    g = RngStream(6, 42).generator()
    for _ in range(100):
        pi = w_i + 1e-3 * g.standard_normal(w_i.shape)
        pt = w_t + 1e-3 * g.standard_normal(w_t.shape)
        perturbed = MMCLModel(G=pi.T @ pt, p_dim=2, rho=1.0, W_I=pi, W_T=pt)
        assert mmcl_loss(perturbed, data) >= base - 1e-12


def test_factor_rotation_leaves_g_and_loss():
    data = _model1_dataset(7, n=40, d=8)
    gd = mmcl_fit_gd(data, 2, 1.0, epochs=500, rng=RngStream(7, 1))
    q, _ = np.linalg.qr(RngStream(7, 2).generator().standard_normal((2, 2)))
    rotated = MMCLModel(G=(q @ gd.W_I).T @ (q @ gd.W_T), p_dim=2, rho=1.0,
                        W_I=q @ gd.W_I, W_T=q @ gd.W_T)
    np.testing.assert_allclose(rotated.G, gd.G, atol=1e-12)
    assert mmcl_loss(rotated, data) == pytest.approx(mmcl_loss(gd, data), rel=1e-10)


def test_sl_separable_toy_sign():
    x = np.array([[2.0], [-2.0]])
    y = np.array([1, -1])
    model = sl_fit_gd(x, y, epochs=500, rng=RNG.child(1))
    assert model.W[0, 0] > 0


def test_sl_dm2_exhaustive_reaches_full_train_accuracy():
    params = DataModel2Params(3, 10.0, 1 / 3)
    batch = enumerate_latents_dm2(params, "train")
    model = sl_fit_gd(batch.z, batch.y, epochs=20000, rng=RNG.child(2))
    pred = np.asarray(model.classes)[(batch.z @ model.W).argmax(axis=1)]
    assert np.all(pred == batch.y)


def _separable_with_oracle():
    """A separable binary problem (n = 40, d = 5) and its unit max-margin direction."""
    g = RngStream(13, 0).generator()
    n, d = 40, 5
    y = np.repeat([1, -1], n // 2)
    x = g.standard_normal((n, d)) * 0.4 + np.outer(y, [2.0, 1.0, 0.0, 0.0, 0.0])
    oracle = hard_margin_oracle(x, y).W[:, 0]
    return x, y, oracle / np.linalg.norm(oracle)


def test_sl_direction_approaches_margin_oracle_monotonically():
    x, y, oracle = _separable_with_oracle()
    d = x.shape[1]
    # constant steps reach the direction only logarithmically slowly, so the
    # reference loop takes loss-scaled steps from the init sl_fit_gd would use
    w0 = SL_GD_DEFAULTS["init_scale"] * RNG.child(3).generator().standard_normal(d)
    w, _, _, _, snaps = gd_reference.logistic_gd(x, y.astype(float), 0.05, 50_000, w0,
                                                 snapshot_every=500, loss_scaled=True)
    snaps = snaps + [w]
    cosines = [w @ oracle / np.linalg.norm(w) for w in snaps if np.linalg.norm(w) > 0]
    # after separation the angle to the max-margin direction shrinks steadily
    tail = cosines[2:]
    assert all(b >= a - 1e-6 for a, b in zip(tail, tail[1:]))
    assert cosines[-1] > 0.99


def test_sl_fit_gd_heads_toward_margin_oracle_at_constant_steps():
    # the library's own fit at its default step: at n = 40, d = 5 the cosine to
    # the max-margin direction rises 0.9354, 0.9381, 0.9409, 0.9438 over these
    # budgets (the preset supervised budget is 5000, the default 20000)
    x, y, oracle = _separable_with_oracle()
    cosines = []
    for epochs in (100, 1000, 5000, 20_000):
        w = sl_fit_gd(x, y, epochs=epochs, rng=RNG.child(3)).W[:, 0]
        cosines.append(w @ oracle / np.linalg.norm(w))
    assert all(b >= a for a, b in zip(cosines, cosines[1:]))
    assert cosines[-1] > cosines[0] + 0.005


def test_sl_divergence_reports_lr():
    data = _model1_dataset(8)
    with pytest.raises(TrainingError, match="lr"):
        sl_fit_gd(data.x_image, data.latents.y, lr=1e6, rng=RNG.child(4))


def test_sl_needs_two_classes():
    with pytest.raises(ArgumentError):
        sl_fit_gd(np.eye(3), [1, 1, 1], rng=RNG.child(5))


@pytest.mark.parametrize("labels,kind,classes", [
    ([1, -1, 1, -1], "logistic", (-1, 1)),
    ([1.0, -1.0, 1.0, -1.0], "logistic", (-1, 1)),
    ([1, 0, 1, 0], "cross-entropy", (0, 1)),
    ([3, 1, 2, 1], "cross-entropy", (1, 2, 3)),
    ([0.5, 1.5, 0.5, 1.5], "cross-entropy", (0.5, 1.5)),
])
def test_sl_loss_follows_the_labels(labels, kind, classes):
    x = np.array([[1.0, 0.5], [-1.0, 0.2], [0.8, -0.4], [-0.6, -0.9]])
    model = sl_fit_gd(x, labels, epochs=5, rng=RNG.child(5))
    assert model.training_meta["loss_kind"] == kind
    assert model.classes == classes
    assert model.q == model.W.shape[1] == (1 if kind == "logistic" else len(classes))


@pytest.mark.parametrize("lr", [-1.0, 0.0, np.nan, np.inf])
def test_gd_fits_reject_bad_learning_rate(lr):
    data = _model1_dataset(9, n=20, d=4)
    with pytest.raises(DomainError, match="lr"):
        sl_fit_gd(data.x_image, data.latents.y, lr=lr, epochs=10, rng=RNG.child(6))
    with pytest.raises(DomainError, match="lr"):
        mmcl_fit_gd(data, 2, 1.0, lr=lr, epochs=10, rng=RNG.child(6))


@pytest.mark.parametrize("epochs", [2000.0, -1, True, "500"])
def test_gd_fits_reject_bad_epochs(epochs):
    data = _model1_dataset(9, n=20, d=4)
    with pytest.raises(ArgumentError, match="epochs"):
        sl_fit_gd(data.x_image, data.latents.y, lr=0.05, epochs=epochs, rng=RNG.child(6))
    with pytest.raises(ArgumentError, match="epochs"):
        mmcl_fit_gd(data, 2, 1.0, epochs=epochs, rng=RNG.child(6))


# -- n < d: GD iterates in row-space coordinates; the loops on the raw inputs
# are the reference

def _wide_problem(seed, q, duplicate):
    """30 rows in 80 dims; with ``duplicate``, 18 rows plus 12 repeats (rank 18)."""
    g = RngStream(seed, 31).generator()
    n, d = (18, 80) if duplicate else (30, 80)
    labels = np.arange(n) % q if q > 1 else np.where(np.arange(n) % 2, 1, -1)
    centers = g.standard_normal((max(q, 2), d))
    x = 0.3 * centers[(labels > 0).astype(int) if q == 1 else labels]
    x = x + g.standard_normal((n, d))
    if duplicate:
        x = np.vstack([x, x[:12]])
        labels = np.concatenate([labels, labels[:12]])
    return x, labels


def _direct_fit(x, labels, kind, rng, lr, epochs):
    g = rng.generator()
    d = x.shape[1]
    if kind == "logistic":
        w0 = SL_GD_DEFAULTS["init_scale"] * g.standard_normal(d)
        w, loss, grad_norm, epochs_run = _descend(x, labels.astype(float), 1, lr, epochs, w0)
        return w0[:, None], w[:, None], loss, grad_norm, epochs_run
    q = int(labels.max()) + 1
    w0 = SL_GD_DEFAULTS["init_scale"] * g.standard_normal((d, q))
    w, loss, grad_norm, epochs_run = _descend(x, labels, q, lr, epochs, w0)
    return w0, w, loss, grad_norm, epochs_run


def _assert_close(a, b):
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("kind,q", [("logistic", 1), ("cross-entropy", 3)])
@pytest.mark.parametrize("duplicate", [False, True])
def test_sl_row_space_gd_matches_raw_loop(kind, q, duplicate):
    x, labels = _wide_problem(21, q, duplicate)
    model = sl_fit_gd(x, labels, lr=0.5, epochs=400, rng=RNG.child(20))
    w0, w, loss, grad_norm, epochs_run = _direct_fit(x, labels, kind, RNG.child(20), 0.5, 400)
    meta = model.training_meta
    assert meta["loss_kind"] == kind
    _assert_close(model.W, w)
    np.testing.assert_allclose(meta["final_loss"], loss, rtol=1e-12)
    np.testing.assert_allclose(meta["final_grad_norm"], grad_norm, rtol=1e-12)
    assert meta["epochs_run"] == epochs_run
    assert meta["gd_dim"] == x.shape[0]
    # the displacement from the initialization lies in rowspan(x)
    _, sv, vt = np.linalg.svd(x, full_matrices=False)
    basis = vt[sv > 1e-10 * sv[0]]
    assert len(basis) == (18 if duplicate else 30)
    move = model.W - w0
    off_span = move - basis.T @ (basis @ move)
    assert np.linalg.norm(off_span) <= 1e-10 * np.linalg.norm(move)


def test_sl_row_space_gd_divergence_reports_lr():
    # each row appears twice with opposite labels, so no direction separates
    # and a huge step drives the loss up
    x, labels = _wide_problem(22, 1, False)
    x, labels = np.vstack([x, x]), np.concatenate([labels, -labels])
    assert x.shape[0] < x.shape[1]
    with pytest.raises(TrainingError, match="lr"):
        sl_fit_gd(x, labels, lr=1e6, rng=RNG.child(21))


@pytest.mark.parametrize("d", [3, 60])
@pytest.mark.parametrize("lr", [1e6, 1e300])
def test_cross_entropy_divergence_reports_lr(d, lr):
    # each row appears under two labels, so no direction separates and a huge
    # step drives the loss up; the 1e-300 guard caps the computed loss below
    # any blowup level, so the exact loss has to decide. 40 x 3 runs the loop
    # on the raw inputs, 40 x 60 the margin-space path
    g = RngStream(24, d).generator()
    x, labels = g.standard_normal((20, d)), np.arange(20) % 4
    x, labels = np.vstack([x, x]), np.concatenate([labels, (labels + 1) % 4])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="lr"):
            sl_fit_gd(x, labels, lr=lr, epochs=50, rng=RNG.child(24))


@pytest.mark.parametrize("kind,q", [("logistic", 1), ("cross-entropy", 3)])
def test_sl_margin_space_gd_stops_on_gradient_tolerance_like_raw_loop(kind, q):
    # 10 rows in 40 dims, each repeated under every label: the loss is least
    # where all scores of a row agree, which GD reaches, so the gradient
    # vanishes; near GRAD_TOL the quadratic form is below its own rounding,
    # so the stop is decided on the directly formed gradient
    g = RngStream(25, q).generator()
    x = g.standard_normal((10, 40))
    first = np.arange(10) % 2 * 2 - 1 if q == 1 else np.arange(10) % q
    labels = (np.concatenate([first, -first]) if q == 1 else
              np.concatenate([(first + shift) % q for shift in range(q)]))
    x = np.vstack([x] * max(q, 2))
    model = sl_fit_gd(x, labels, lr=0.5, epochs=20000, rng=RNG.child(25))
    _, w, loss, grad_norm, epochs_run = _direct_fit(x, labels, kind, RNG.child(25), 0.5, 20000)
    meta = model.training_meta
    assert 0 < epochs_run < 20000
    assert meta["epochs_run"] == epochs_run
    assert meta["final_grad_norm"] < GRAD_TOL
    np.testing.assert_allclose(meta["final_grad_norm"], grad_norm, rtol=1e-6)
    np.testing.assert_allclose(meta["final_loss"], loss, rtol=1e-12)
    _assert_close(model.W, w)


def test_margin_space_gradient_norm_never_decides_from_a_cancelled_form():
    # rows one ulp apart under opposite labels: at w = 0 the residuals are
    # equal, so ||x^T v|| is about 1e-12, under GRAD_TOL, while <v, K v> is a
    # difference of two 1e8-sized products whose rounding (about 6e-8 here)
    # would read as a norm near 1e-4
    row = 1e4 * RngStream(26, 2).generator().standard_normal(5)
    x = np.vstack([row, np.nextafter(row, np.inf)])
    assert np.linalg.norm(x.T @ [0.5, -0.5]) / 2 < GRAD_TOL
    _, _, grad_norm, epochs_run = _descend(x, np.array([1.0, -1.0]), 1, 0.05, 10,
                                           np.zeros(5), margin_space=True)
    assert epochs_run == 0
    assert grad_norm < GRAD_TOL


def test_cross_entropy_margin_space_gradient_norm_never_decides_from_a_cancelled_form():
    # the rows above under classes 0 and 1: at w = 0 the residual rows are
    # (-1/2, 1/2) and (1/2, -1/2), so ||V x|| cancels as the logistic one does,
    # while the rounding of h <V, V (h K)> would read as a norm far above
    # GRAD_TOL; the slack, scaled by h^2 into the units of ||step||^2, covers it
    row = 1e4 * RngStream(26, 2).generator().standard_normal(5)
    x = np.vstack([row, np.nextafter(row, np.inf)])
    _, _, grad_norm, epochs_run = _descend(x, np.array([0, 1]), 2, 0.05, 10,
                                           np.zeros((5, 2)), margin_space=True)
    assert epochs_run == 0
    assert grad_norm < GRAD_TOL


def test_sl_meta_reports_epochs_run_and_gd_dim():
    x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1, -1, -1, 1])
    model = sl_fit_gd(x, y, lr=0.5, epochs=20000, rng=RNG.child(22))
    meta = model.training_meta
    assert meta["gd_dim"] == 1
    assert meta["epochs"] == 20000
    assert 0 < meta["epochs_run"] < 20000
    assert meta["final_grad_norm"] < GRAD_TOL
    # epochs_run counts weight updates: that many reach the returned weights
    steps = meta["epochs_run"]
    budget = sl_fit_gd(x, y, lr=0.5, epochs=steps, rng=RNG.child(22))
    fewer = sl_fit_gd(x, y, lr=0.5, epochs=steps - 1, rng=RNG.child(22))
    np.testing.assert_array_equal(budget.W, model.W)
    assert not np.array_equal(fewer.W, model.W)
    exhausted = sl_fit_gd(x[:2], [1, -1], epochs=50,
                          rng=RNG.child(23)).training_meta
    assert exhausted["epochs_run"] == 50


def test_oracle_binary_one_dimensional():
    model = hard_margin_oracle(np.array([[1.0], [-1.0]]), [1, -1])
    assert model.W[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_oracle_binary_orthogonal_points():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = hard_margin_oracle(x, [1, -1])
    np.testing.assert_allclose(model.W[:, 0], [1.0, -1.0], atol=1e-5)
    margins = np.array([1, -1]) * (x @ model.W[:, 0])
    assert margins.min() >= 1 - 1e-6


def test_oracle_multiclass_symmetric_simplex():
    # analytic optimum for one-hot points: w_c = e_c - 1/3, squared norm 2
    x = np.eye(3)
    model = hard_margin_oracle(x, [1, 2, 3])
    assert np.sum(model.W ** 2) == pytest.approx(2.0, abs=1e-3)
    scores = x @ model.W
    gaps = scores[np.arange(3), np.arange(3)][:, None] - scores
    gaps[np.arange(3), np.arange(3)] = np.inf
    assert gaps.min() >= 1 - 1e-6


def test_oracle_multiclass_consistent_with_binary():
    # symmetric two-class solution w_(1) = -w_(2) = w_binary / 2, so the
    # multiclass Frobenius norm squared is exactly half the binary one
    g = RngStream(3, 1).generator()
    y = np.repeat([1, -1], 10)
    x = g.standard_normal((20, 3)) * 0.3 + np.outer(y, [1.5, 0.5, 0.0])
    binary = hard_margin_oracle(x, y).W
    multi = hard_margin_oracle(x, np.where(y > 0, 1, 2)).W
    assert np.sum(multi ** 2) / np.sum(binary ** 2) == pytest.approx(0.5, abs=1e-6)


def test_oracle_dm2_matches_minimum_norm_construction():
    # the sparse separator with entries c/((1-b)(1+a^2)) and ca/((1-b)(1+a^2))
    # is feasible; the oracle must be feasible and no heavier
    alpha, beta, m = 1.5, 1 / 3, 2
    batch = enumerate_latents_dm2(DataModel2Params(m, alpha, beta), "train")
    model = hard_margin_oracle(batch.z, batch.y)
    scores = batch.z @ model.W
    own = scores[np.arange(len(batch)), batch.y - 1]
    gaps = own[:, None] - scores
    gaps[np.arange(len(batch)), batch.y - 1] = np.inf
    assert gaps.min() >= 1 - 1e-6
    handbuilt = 2 * m * (1 + alpha ** 2) / ((1 - beta) * (1 + alpha ** 2)) ** 2
    assert np.sum(model.W ** 2) <= handbuilt + 1e-6


def test_oracle_infeasible_conflicting_labels():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(InfeasibleError):
        hard_margin_oracle(x, [1, -1], max_iter=20_000)


def test_oracle_size_cap():
    with pytest.raises(ArgumentError):
        hard_margin_oracle(np.zeros((501, 2)), [1, -1] * 250 + [1])


def _dm1_exact_mean_cov(p_spu=0.9):
    from mmclab import DataModel1Params, LatentBatch, PairedDataset
    q = 2 * p_spu - 1
    rows = np.array([[1.0, q], [-1.0, -q]])
    batch = LatentBatch(DataModel1Params(), rows, np.array([1, -1]), a=np.array([1, -1]))
    return supcon_class_mean_cov(PairedDataset(rows, rows, batch))


def test_supcon_dm1_rank_one_representation():
    cov = _dm1_exact_mean_cov(0.9)
    enc = supcon_fit_closed_form(cov, 1, 1.0)
    u = np.array([1.0, 0.8]) / np.hypot(1.0, 0.8)
    rep = enc.transform(np.array([1.0, 0.8]))
    assert rep[0] == pytest.approx(np.sqrt(3.28) * (u @ [1.0, 0.8]), abs=1e-10)


def test_supcon_rounding_level_eigenvalues_give_zero_rows():
    # the rank rule of svd_top: 5.6e-17 is rounding, not a direction, so its row is
    # exactly 0 rather than sqrt(5.6e-17) = 7.5e-9 along a null direction
    enc = supcon_fit_closed_form(np.diag([2.0, 5.6e-17, -1e-17]), 3, 1.0)
    np.testing.assert_array_equal(enc.eigenvalues, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(enc.W, [[np.sqrt(2.0), 0, 0], [0, 0, 0], [0, 0, 0]])


def test_supcon_dm1_class_means_are_negatives():
    enc = supcon_fit_closed_form(_dm1_exact_mean_cov(0.9), 2, 1.0)
    plus = enc.transform(np.array([1.0, 0.8]))
    minus = enc.transform(np.array([-1.0, -0.8]))
    np.testing.assert_allclose(plus, -minus, atol=1e-12)


def test_supcon_dm2_group_means_follow_coefficient_formula():
    # group-mean representations per (c, spurious sign) lie on one line with
    # coordinates proportional to (c + sign * alpha^2) / sqrt(1 + alpha^2);
    # individual examples scatter off the line through the beta coordinates
    params = DataModel2Params(2, 1.5, 1 / 3)
    alpha, m = 1.5, 2
    batch = enumerate_latents_dm2(params, "true")
    cfg = ModalityConfig(make_dictionary(4, 4))
    enc = supcon_fit_closed_form(supcon_class_mean_cov(
        make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                            CaptionMask.none(), RNG.child(7))), 4, 1.0)
    reps = enc.transform(batch.z)
    spu_sign = np.sign(batch.z[np.arange(len(batch)), batch.k - 1 + m]).astype(int)
    for k in (1, 2):
        means, coeffs = [], []
        for c in (-1, 1):
            for s in (-1, 1):
                sel = (batch.k == k) & (batch.c == c) & (spu_sign == s)
                means.append(reps[sel].mean(axis=0))
                coeffs.append((c + s * alpha ** 2) / np.sqrt(1 + alpha ** 2))
        means = np.stack(means)
        coeffs = np.array(coeffs)
        direction = means[-1] / np.linalg.norm(means[-1])
        coords = means @ direction
        np.testing.assert_allclose(coords / coords[-1], coeffs / coeffs[-1], atol=1e-10)
        offline = means - np.outer(coords, direction)
        np.testing.assert_allclose(offline, 0.0, atol=1e-10)


def test_probe_learns_signs_on_one_dimensional_reps():
    reps = np.array([[1.0], [1.2], [-0.9], [-1.1]])
    probe = probe_fit(reps, [1, 1, -1, -1], epochs=2000, rng=RNG.child(8))
    assert probe.W[0, 0] > 0


def test_probe_dm2_train_and_true_accuracy():
    params = DataModel2Params(2, 1.5, 1 / 3)
    cfg = ModalityConfig(make_dictionary(4, 4))
    train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                                CaptionMask.none(), RNG.child(9))
    enc = supcon_fit_closed_form(supcon_class_mean_cov(train), 4, 1.0)
    probe = probe_fit(enc.transform(train.x_image), train.latents.y,
                      epochs=5000, rng=RNG.child(10))
    true_batch = enumerate_latents_dm2(params, "true")
    reps_true = enc.transform(true_batch.z)
    pred_train = np.asarray(probe.classes)[
        (enc.transform(train.x_image) @ probe.W).argmax(axis=1)]
    pred_true = np.asarray(probe.classes)[(reps_true @ probe.W).argmax(axis=1)]
    assert np.all(pred_train == train.latents.y)
    assert np.mean(pred_true == true_batch.y) == 0.5


@pytest.mark.parametrize("call,error,message", [
    (lambda: MMCLModel(G=np.eye(2), p_dim=2, rho=1.0, W_I=np.eye(2)),
     ArgumentError, "provided together"),
    (lambda: MMCLModel(G=np.eye(2), p_dim=2, rho=1.0, W_I=np.eye(2), W_T=2 * np.eye(2)),
     ArgumentError, "do not reproduce G"),
    (lambda: mmcl_fit_closed_form(np.eye(2), 1, 0.0), DomainError, "rho must be positive"),
    (lambda: mmcl_fit_gd(_model1_dataset(9, n=20, d=4), 2, 1.0, epochs=1),
     ArgumentError, "mmcl_fit_gd requires an RngStream"),
    (lambda: sl_fit_gd([[np.nan], [1.0]], [1, -1], epochs=1, rng=RNG.child(27)),
     ArgumentError, "inputs must be finite"),
    (lambda: sl_fit_gd([[1.0], [-1.0]], [1, -1], epochs=1),
     ArgumentError, "sl_fit_gd requires an RngStream"),
    (lambda: supcon_fit_closed_form(np.eye(2), 1, 0.0), DomainError, "rho must be positive"),
    (lambda: supcon_fit_closed_form(np.eye(2), 3, 1.0), DimensionError, "p_dim=3 out of range"),
], ids=["factors-together", "factors-reproduce-g", "closed-form-rho", "mmcl-gd-rng",
        "sl-finite", "sl-rng", "supcon-rho", "supcon-p-dim"])
def test_training_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
