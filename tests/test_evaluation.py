import warnings
from functools import reduce

import numpy as np
import pytest

from mmclab import (ArgumentError, CaptionMask, CrossCov, DataModel1Params,
                    DataModel2Params, DimensionError, EvalSampler, ModalityConfig,
                    NumericError, RngStream, build_prompts, caption_masking_threshold_dm2,
                    count_zero_shot, empirical_cross_cov, enumerate_latents_dm2,
                    evaluate_sl, evaluate_zero_shot, harness, suite_configs,
                    zero_shot_accuracy_dm2,
                    make_dictionary, make_paired_dataset, mmcl_fit_closed_form,
                    phi_cdf, population_cross_cov_dm1, population_cross_cov_dm2,
                    probe_fit, project_latents, sample_latents_dm1, sl_fit_gd,
                    supcon_class_mean_cov,
                    supcon_fit_closed_form, supcon_group_geometry, zero_shot_robustness_dm1)
from mmclab.evaluation import _wilson_radius, evaluate_probe
from mmclab.training import MMCLModel, SLModel, SupConEncoder
from zero_shot_rule import zero_shot_predict

RNG = RngStream(31, 0)


def _identity_cfg(d, l, noise=0.0):
    return ModalityConfig(make_dictionary(d, l), noise)


def test_prompts_dm1_literal():
    prompts = build_prompts(DataModel1Params(1.0, 0.1, 0.9), make_dictionary(2, 2))
    assert prompts.classes == (-1, 1)
    np.testing.assert_array_equal(prompts.prompts, [[-1, 0], [1, 0]])


def test_prompts_dm2_literal_and_negation_pairs():
    params = DataModel2Params(2, 1.0, 0.5)
    prompts = build_prompts(params, make_dictionary(6, 4))
    assert prompts.classes == (1, 2, 3, 4)
    expected = np.zeros(6)
    expected[1] = -1.0  # class (k=2, c=-1) -> -e_2 padded to d_T = 6
    np.testing.assert_array_equal(prompts.prompts[3], expected)
    for k in (1, 2):
        np.testing.assert_array_equal(prompts.prompts[2 * k - 2],
                                      -prompts.prompts[2 * k - 1])


def test_prompts_dimension_mismatch():
    with pytest.raises(DimensionError):
        build_prompts(DataModel2Params(2, 1.0, 0.5), make_dictionary(3, 3))


def test_zero_shot_predict_identity_g():
    model = MMCLModel(G=np.eye(2), p_dim=2, rho=1.0)
    prompts = build_prompts(DataModel1Params(1.0, 0.1, 0.9), make_dictionary(2, 2))
    assert zero_shot_predict(model, np.array([0.7, -1.0]), prompts) == 1
    assert zero_shot_predict(model, np.array([-0.7, 1.0]), prompts) == -1


def test_zero_shot_score_weights_follow_population_matrix():
    # score difference between the two prompts is 2 * ((1+sc^2) z_core + (2p-1) z_spu)
    s = population_cross_cov_dm1(DataModel1Params(1.0, 0.0, 1.0))
    model = mmcl_fit_closed_form(s, 2, 1.0)
    prompts = build_prompts(DataModel1Params(1.0, 0.0, 1.0), make_dictionary(2, 2))
    g = RNG.child(1).generator()
    for _ in range(50):
        x = g.standard_normal(2)
        scores = (x @ model.G) @ prompts.prompts.T
        diff = scores[prompts.classes.index(1)] - scores[prompts.classes.index(-1)]
        assert diff == pytest.approx(2 * (2 * x[0] + 1 * x[1]), rel=1e-12)


def test_zero_shot_scaling_invariance():
    params = DataModel1Params(1.0, 0.1, 0.9)
    s = population_cross_cov_dm1(params)
    model = mmcl_fit_closed_form(s, 2, 1.0)
    scaled = MMCLModel(G=10.0 * model.G, p_dim=2, rho=1.0)
    prompts = build_prompts(params, make_dictionary(2, 2))
    g = RNG.child(2).generator()
    xs = g.standard_normal((1000, 2))
    preds = [zero_shot_predict(model, x, prompts) for x in xs]
    preds_scaled = [zero_shot_predict(scaled, x, prompts) for x in xs]
    assert preds == preds_scaled


def test_zero_shot_rejects_nonfinite_scores():
    model = MMCLModel(G=np.array([[np.inf, 0.0], [0.0, 1.0]]), p_dim=2, rho=1.0)
    prompts = build_prompts(DataModel1Params(1.0, 0.1, 0.9), make_dictionary(2, 2))
    with pytest.raises(NumericError):
        zero_shot_predict(model, np.array([1.0, 1.0]), prompts)


def test_sign_rule_rejects_nonfinite_scores():
    # one score column takes the sign rule, which must refuse nan as argmax does:
    # inf - inf on rows whose two latents share a sign would get an arbitrary label
    model = SLModel(W=np.array([[np.inf], [-np.inf]]), classes=(-1, 1))
    sampler = EvalSampler(DataModel1Params(1.0, 0.1, 0.9), "true", _identity_cfg(2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the report; numpy must not warn first
        with pytest.raises(NumericError):
            evaluate_sl(model, sampler, 2000, RNG.child(63))


def test_zero_shot_exact_tie_goes_to_lowest_class():
    model = MMCLModel(G=np.eye(2), p_dim=2, rho=1.0)
    prompts = build_prompts(DataModel1Params(1.0, 0.1, 0.9), make_dictionary(2, 2))
    assert zero_shot_predict(model, np.array([0.0, 3.0]), prompts) == -1


def test_evaluate_zero_shot_dimension_mismatch_is_configuration_error():
    from mmclab import ConfigurationError
    params = DataModel1Params(1.0, 0.1, 0.9)
    model = mmcl_fit_closed_form(population_cross_cov_dm1(params), 2, 1.0)
    prompts = build_prompts(params, make_dictionary(2, 2))
    with pytest.raises(ConfigurationError):
        evaluate_zero_shot(model, prompts,
                           EvalSampler(params, "true", _identity_cfg(5, 2)),
                           10, RNG.child(30))


def test_crosscov_scale_field_never_changes_predictions():
    params = DataModel1Params(1.0, 0.1, 0.9)
    base = population_cross_cov_dm1(params)
    rescaled = CrossCov(S=7.3 * base.S, space="latent")
    prompts = build_prompts(params, make_dictionary(2, 2))
    m1 = mmcl_fit_closed_form(base, 2, 1.0)
    m2 = mmcl_fit_closed_form(rescaled, 2, 1.0)
    g = RNG.child(3).generator()
    for x in g.standard_normal((200, 2)):
        assert zero_shot_predict(m1, x, prompts) == zero_shot_predict(m2, x, prompts)


def test_evaluate_zero_shot_dm2_perfect_accuracy_both_paths():
    params = DataModel2Params(3, 0.7, 1 / 3)
    cfg = _identity_cfg(6, 6)
    sampler = EvalSampler(params, "true", cfg, exhaustive=True)
    prompts = build_prompts(params, make_dictionary(6, 6))
    analytic = mmcl_fit_closed_form(population_cross_cov_dm2(params), 6, 1.0,
                                    make_dictionary(6, 6), make_dictionary(6, 6))
    rep = evaluate_zero_shot(analytic, prompts, sampler)
    assert rep.overall_accuracy == 1.0
    # at accuracy 1 the Wilson radius is z^2 / (2 (n + z^2)) overall and per
    # group, where a normal-approximation radius is 0
    for n, radius in [(rep.n_eval, rep.mc_radius),
                      *((g.count, g.mc_radius) for g in rep.groups.values())]:
        assert radius > 0
        assert radius == pytest.approx(1.96 ** 2 / (2 * (n + 1.96 ** 2)), rel=1e-12)
    train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                                CaptionMask.none(), RNG.child(4))
    empirical = mmcl_fit_closed_form(empirical_cross_cov(train), 6, 1.0)
    assert evaluate_zero_shot(empirical, prompts, sampler).overall_accuracy == 1.0


def test_evaluate_zero_shot_dm2_without_shared_features_fails():
    params = DataModel2Params(2, 2.0, 0.0)
    cfg = _identity_cfg(4, 4)
    model = mmcl_fit_closed_form(population_cross_cov_dm2(params), 4, 1.0,
                                 make_dictionary(4, 4), make_dictionary(4, 4))
    prompts = build_prompts(params, make_dictionary(4, 4))
    rep = evaluate_zero_shot(model, prompts, EvalSampler(params, "true", cfg, True))
    assert rep.overall_accuracy <= 0.5


def test_evaluate_zero_shot_dm1_matches_theory_bound():
    params = DataModel1Params(1.0, 0.02, 0.999)
    batch = sample_latents_dm1(params, 20000, "train", RNG.child(5))
    cfg = _identity_cfg(2, 2)
    data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), RNG.child(6))
    model = mmcl_fit_closed_form(empirical_cross_cov(data), 2, 1.0)
    prompts = build_prompts(params, make_dictionary(2, 2))
    rep = evaluate_zero_shot(model, prompts, EvalSampler(params, "true", cfg),
                             20000, RNG.child(7))
    bound = zero_shot_robustness_dm1(1.0, 0.02, 0.999)
    assert rep.overall_accuracy == pytest.approx(bound.values["overall"], abs=0.02)
    assert rep.minority_accuracy() == pytest.approx(bound.values["minority"], abs=0.02)
    assert sum(g.count for g in rep.groups.values()) == rep.n_eval
    assert all(0 <= g.accuracy <= 1 for g in rep.groups.values())


def test_evaluate_sl_known_weights_match_gaussian_oracle():
    # sign(z_core) classifier: accuracy = Phi(1 / sigma_core) on every group
    params = DataModel1Params(0.8, 0.3, 0.9)
    model = SLModel(W=np.array([[1.0], [0.0]]), classes=(-1, 1))
    rep = evaluate_sl(model, EvalSampler(params, "true", _identity_cfg(2, 2)),
                      200_000, RNG.child(8))
    assert rep.overall_accuracy == pytest.approx(phi_cdf(1 / 0.8), abs=0.005)


def test_evaluate_sl_spurious_only_weights():
    # sign(z_spu) classifier: majority groups perfect-ish, minority near zero
    params = DataModel1Params(1.0, 0.1, 0.9)
    model = SLModel(W=np.array([[0.0], [1.0]]), classes=(-1, 1))
    rep = evaluate_sl(model, EvalSampler(params, "train", _identity_cfg(2, 2)),
                      100_000, RNG.child(9))
    assert rep.overall_accuracy == pytest.approx(0.9, abs=0.01)
    assert rep.minority_accuracy() < 0.01
    assert rep.split == "train"


def test_wilson_radius_matches_the_score_interval_roots():
    # the Wilson interval is where (acc - p)^2 = z^2 p (1 - p) / n, a quadratic in p
    acc, n, z = 0.3, 50, 1.96
    roots = np.roots([n + z * z, -(2 * n * acc + z * z), n * acc * acc])
    assert _wilson_radius(acc, n) == pytest.approx(abs(roots[0] - roots[1]) / 2, rel=1e-12)
    assert _wilson_radius(acc, n) < z * np.sqrt(acc * (1 - acc) / n)


@pytest.mark.parametrize("shapes", [[(7, 1)], [(7, 3), (3, 4)], [(4, 3), (3, 6)]],
                         ids=["q1", "two-factor", "two-factor-q-above-d"])
def test_noisy_scores_are_drawn_exactly_in_the_rules_image(shapes):
    # x R = z (D^T R) + xi R, drawn as z (D^T R) + (sigma/sqrt d) eps T with
    # eps the n x min(d, q) normals of the stream and T^T T = R^T R
    g = RNG.child(60).generator()
    rule = reduce(np.dot, [g.standard_normal(s) for s in shapes])
    d, q = rule.shape
    cfg = ModalityConfig(make_dictionary(d, 2, "random-orthonormal", RNG.child(61)), 0.7)
    z = g.standard_normal((50, 2))
    scores = project_latents(z, cfg, RNG.child(62), rule)
    mean = np.dot(np.dot(z, cfg.dictionary.matrix.T), rule)
    eps = RNG.child(62).generator().standard_normal((50, min(d, q)))
    t = np.linalg.lstsq(eps, scores - mean, rcond=None)[0] / (0.7 / np.sqrt(d))
    np.testing.assert_allclose(np.dot(eps, t) * (0.7 / np.sqrt(d)), scores - mean,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.dot(t.T, t), np.dot(rule.T, rule), rtol=1e-12, atol=1e-12)
    noiseless = ModalityConfig(cfg.dictionary, 0.0)
    np.testing.assert_array_equal(project_latents(z, noiseless, rule=rule), mean)


def _dm1_sign_rule_accuracy(w, params, cfg, split, noise=True):
    """Exact accuracy of sign(x w) on model-1 inputs x = D z + xi: group (y, a)
    scores N(w^T mu, w^T Sigma w), mu = D [y, a], Sigma = D diag(sigma_c^2,
    sigma_s^2) D^T + sigma^2/d I, so it is right with probability
    Phi(y w^T mu / sqrt(w^T Sigma w)). ``noise=False`` drops the sigma^2/d term.
    ``split="minority"`` weighs the two minority groups (a != y) alone."""
    dw = np.dot(cfg.dictionary.matrix.T, w)
    var = ((params.sigma_core * dw[0]) ** 2 + (params.sigma_spu * dw[1]) ** 2
           + noise * cfg.noise_sigma ** 2 / cfg.ambient_dim * np.dot(w, w))
    agree = {"true": 0.5, "train": params.p_spu, "minority": 0.0}[split]  # Pr(a = y)
    return sum((agree if a == y else 1 - agree) / 2
               * phi_cdf(y * (dw[0] * y + dw[1] * a) / np.sqrt(var))
               for y in (-1, 1) for a in (-1, 1))


def test_noisy_sl_accuracy_matches_the_model_1_closed_form():
    # 3 Wilson radii are about 5.9 standard errors: under the right law, the
    # chance that any of these 20 values falls outside is below 1e-7, while a
    # noise term of the wrong size moves the train-split values by 10+ radii
    params = DataModel1Params(1.0, 0.3, 0.9)
    cfg = ModalityConfig(make_dictionary(50, 2), 5.0)
    shifts = []
    for seed in range(10):
        rng = RngStream(seed)
        latents = sample_latents_dm1(params, 100, "train", rng.child(20))
        model = sl_fit_gd(project_latents(latents.z, cfg, rng.child(23)), latents.y,
                          epochs=200, rng=rng.child(24))
        for split in ("true", "train"):
            rep = evaluate_sl(model, EvalSampler(params, split, cfg), 20_000, rng.child(40))
            exact = _dm1_sign_rule_accuracy(model.W[:, 0], params, cfg, split)
            assert abs(rep.overall_accuracy - exact) <= 3 * rep.mc_radius, (seed, split)
            noiseless = _dm1_sign_rule_accuracy(model.W[:, 0], params, cfg, split, noise=False)
            shifts.append(abs(noiseless - exact) / rep.mc_radius)
    # the noise term matters here, so the check can see it drawn wrongly
    assert np.median(shifts) > 3


@pytest.mark.parametrize("sc,ss,p,pi_core,pi_spu", [
    (1.0, 0.02, 0.999, 1.0, 1.0), (1.0, 0.02, 0.999, 0.5, 0.0),
    (1.0, 0.1, 0.9, 0.0, 1.0), (1.7, 0.3, 0.75, 0.3, 0.6)])
def test_masked_analytic_zero_shot_rule_attains_the_model_1_closed_form(sc, ss, p,
                                                                        pi_core, pi_spu):
    # on model 1 the zero-shot argmax is the sign rule x G p_{+1}; with the masked
    # population covariance its exact accuracy is the closed form on the true
    # split, on its minority groups and on the train split, whatever pi_spu is
    params, cfg = DataModel1Params(sc, ss, p), _identity_cfg(2, 2)
    cov = population_cross_cov_dm1(params, CaptionMask.model1(pi_core, pi_spu))
    model = mmcl_fit_closed_form(cov, 2, 1.0, cfg.dictionary, cfg.dictionary)
    w = np.dot(model.G, build_prompts(params, cfg.dictionary).prompts[1])
    pred = zero_shot_robustness_dm1(sc, ss, p, pi_core).values
    for split, key in (("true", "overall"), ("minority", "minority"), ("train", "train")):
        exact = _dm1_sign_rule_accuracy(w, params, cfg, split, noise=False)
        assert exact == pytest.approx(pred[key], abs=1e-12), split


def _dm1_rule(params):
    """Each evaluator with a fixed rule that reads z_core, on 2-dim inputs."""
    return {
        "zero-shot": lambda sampler, *args: evaluate_zero_shot(
            MMCLModel(G=np.eye(2), p_dim=2, rho=1.0),
            build_prompts(params, make_dictionary(2, 2)), sampler, *args),
        "sl": lambda sampler, *args: evaluate_sl(
            SLModel(W=np.array([[1.0], [0.0]]), classes=(-1, 1)), sampler, *args),
        "probe": lambda sampler, *args: evaluate_probe(
            SupConEncoder(W=np.eye(2), eigenvalues=np.ones(2), p_dim=2, rho=1.0),
            SLModel(W=np.array([[1.0], [0.0]]), classes=(-1, 1)), sampler, *args),
    }


@pytest.mark.parametrize("method", ["zero-shot", "sl", "probe"])
def test_sampled_evaluation_without_rng_is_argument_error(method):
    params = DataModel1Params(1.0, 0.02, 0.999)
    sampler = EvalSampler(params, "true", _identity_cfg(2, 2))
    evaluate = _dm1_rule(params)[method]
    with pytest.raises(ArgumentError, match="RngStream"):
        evaluate(sampler, 100)
    assert evaluate(sampler, 100, RNG.child(40)).n_eval == 100


def test_noisy_exhaustive_evaluation_without_rng_is_argument_error():
    # exhaustive model-2 rows need no stream, but their projection noise does
    params = DataModel2Params(2, 1.5, 1 / 3)
    sampler = EvalSampler(params, "true", _identity_cfg(4, 4, noise=0.1), exhaustive=True)
    model = SLModel(W=np.eye(4), classes=(1, 2, 3, 4))
    with pytest.raises(ArgumentError, match="RngStream"):
        evaluate_sl(model, sampler)
    # with a stream it evaluates every true-split row: 2m classes x 4^(m-1) x 2
    assert evaluate_sl(model, sampler, rng=RNG.child(41)).n_eval == 32


def test_dm1_label_flip_symmetry():
    params = DataModel1Params(1.0, 0.02, 0.999)
    cfg = _identity_cfg(2, 2)
    model = mmcl_fit_closed_form(population_cross_cov_dm1(params), 2, 1.0)
    prompts = build_prompts(params, make_dictionary(2, 2))
    rep = evaluate_zero_shot(model, prompts, EvalSampler(params, "true", cfg),
                             50_000, RNG.child(11))
    flipped = MMCLModel(G=model.G, p_dim=2, rho=1.0)  # G is (y,a)-symmetric already
    # negating (y, a, z) maps the distribution onto itself; accuracy must agree
    # within Monte Carlo noise across two independent draws
    rep2 = evaluate_zero_shot(flipped, prompts, EvalSampler(params, "true", cfg),
                              50_000, RNG.child(12))
    assert abs(rep.overall_accuracy - rep2.overall_accuracy) < 2 * rep.mc_radius


def test_dictionary_consistency_across_seeds():
    params = DataModel1Params(1.0, 0.02, 0.999)
    accs = []
    for seed in range(10):
        rng = RngStream(seed, 900)
        di = make_dictionary(16, 2, "random-orthonormal", rng.child(1))
        dt = make_dictionary(12, 2, "random-orthonormal", rng.child(2))
        batch = sample_latents_dm1(params, 5000, "train", rng.child(3))
        data = make_paired_dataset(batch, ModalityConfig(di), ModalityConfig(dt),
                                   CaptionMask.none(), rng.child(4))
        model = mmcl_fit_closed_form(empirical_cross_cov(data), 2, 1.0)
        prompts = build_prompts(params, dt)
        rep = evaluate_zero_shot(model, prompts,
                                 EvalSampler(params, "true", ModalityConfig(di)),
                                 20000, rng.child(5))
        accs.append((rep.overall_accuracy, rep.mc_radius))
    values = [a for a, _ in accs]
    radius = max(r for _, r in accs)
    assert max(values) - min(values) < 2 * 2 * radius  # pairwise gap < 2 * mc each


def test_evaluate_probe_dm2_and_geometry():
    params = DataModel2Params(2, 1.5, 1 / 3)
    cfg = _identity_cfg(4, 4)
    train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                                CaptionMask.none(), RNG.child(13))
    enc = supcon_fit_closed_form(supcon_class_mean_cov(train), 4, 1.0)
    probe = probe_fit(enc.transform(train.x_image), train.latents.y,
                      epochs=5000, rng=RNG.child(14))
    rep_train = evaluate_probe(enc, probe, EvalSampler(params, "train", cfg, True))
    rep_true = evaluate_probe(enc, probe, EvalSampler(params, "true", cfg, True))
    assert rep_train.overall_accuracy == 1.0
    assert rep_true.overall_accuracy == 0.5
    true_data = make_paired_dataset(enumerate_latents_dm2(params, "true"), cfg, cfg,
                                    CaptionMask.none(), RNG.child(15))
    geometry = supcon_group_geometry(enc, true_data)
    assert geometry.residual < 1e-8
    assert geometry.ordering == ((-1, -1), (1, -1), (-1, 1), (1, 1))


def test_geometry_ordering_swaps_below_unit_alpha():
    params = DataModel2Params(2, 0.8, 1 / 3)
    cfg = _identity_cfg(4, 4)
    train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                                CaptionMask.none(), RNG.child(16))
    enc = supcon_fit_closed_form(supcon_class_mean_cov(train), 4, 1.0)
    true_data = make_paired_dataset(enumerate_latents_dm2(params, "true"), cfg, cfg,
                                    CaptionMask.none(), RNG.child(17))
    geometry = supcon_group_geometry(enc, true_data)
    assert geometry.ordering == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_geometry_requires_both_spurious_signs():
    params = DataModel2Params(2, 1.5, 1 / 3)
    cfg = _identity_cfg(4, 4)
    train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                                CaptionMask.none(), RNG.child(18))
    enc = supcon_fit_closed_form(supcon_class_mean_cov(train), 4, 1.0)
    with pytest.raises(ArgumentError):
        supcon_group_geometry(enc, train)  # training split has one sign per class


# -- exact zero-shot accuracy by counting ---------------------------------------

def _analytic_fit(params, pi=1.0, d_i=None, d_t=None, p_dim=None):
    image, text = make_dictionary(d_i or params.l, params.l), make_dictionary(d_t or params.l, params.l)
    model = mmcl_fit_closed_form(population_cross_cov_dm2(params, pi), p_dim or params.l,
                                 1.0, image, text)
    return model, build_prompts(params, text), ModalityConfig(image)


def _report_values(rep):
    """Everything a report puts in the CSV, plus the group counts."""
    groups = [(name, g.accuracy, g.count, g.minority) for name, g in rep.groups.items()]
    minority = rep.minority_accuracy() if rep.split == "true" else None
    return rep.overall_accuracy, minority, groups, rep.n_eval


def _assert_counted_equals_enumerated(model, prompts, params, cfg):
    for split in ("true", "train"):
        counted = count_zero_shot(model, prompts, EvalSampler(params, split, cfg))
        enumerated = evaluate_zero_shot(model, prompts, EvalSampler(params, split, cfg, True))
        assert _report_values(counted) == _report_values(enumerated)
        assert counted.mc_radius == 0.0
        assert all(g.mc_radius == 0.0 for g in counted.groups.values())


def test_counting_equals_enumeration_on_both_sides_of_each_boundary():
    # flipped rows score 1 above pi_tilde, 2^(1-m) between u = v alpha and it, and
    # 0 below u = v alpha; alpha > 1 puts the lower boundary inside [0, 1], alpha < 1
    # the upper one
    for m in range(2, 6):
        overall = set()
        for alpha, beta in ((1.1, 0.5), (1.3, 0.7), (0.62, 0.5), (0.8, 0.3)):
            params = DataModel2Params(m, alpha, beta)
            lower = (alpha ** 2 - 1) / ((m - 1) * beta ** 2)
            upper = caption_masking_threshold_dm2(m, alpha, beta)
            pis = {0.0, 1.0} | {min(max(b + d, 0.0), 1.0) for b in (lower, upper)
                                for d in (-0.05, 0.05) if 0 < b < 1}
            for pi in sorted(pis):
                model, prompts, cfg = _analytic_fit(params, pi)
                _assert_counted_equals_enumerated(model, prompts, params, cfg)
                overall.add(count_zero_shot(model, prompts,
                                            EvalSampler(params, "true", cfg)).overall_accuracy)
        assert overall == {1.0, 0.5 + 2.0 ** -m, 0.5}


def test_counting_holds_on_every_preset_analytic_cell():
    cells = 0
    for config in suite_configs("all"):
        if "mmcl-analytic" not in config.methods or config.data["model"] != "dm2":
            continue
        for cell in harness._sweep_cells(config):
            params, mask, _ = harness._build_cell(config, cell)
            modality, train, eval_sec, _ = harness._method_sections(config, "mmcl-analytic",
                                                                    cell, params, mask)
            # _analytic_fit builds noiseless identity-embed inputs, as the run does here
            assert eval_sec["counted"] and eval_sec["noise_sigma"] == 0
            assert modality["dictionary"] == "identity-embed"
            pi = mask.pi if mask.variant == "model2" else 1.0
            model, prompts, cfg = _analytic_fit(params, pi, modality["d_I"], modality["d_T"],
                                                train["p_dim"])
            exact = zero_shot_accuracy_dm2(params.m, params.alpha, params.beta, pi).values
            for split in eval_sec["splits"]:
                counted = count_zero_shot(model, prompts, EvalSampler(params, split, cfg))
                assert counted.overall_accuracy == exact[split]
            if params.m <= 5:
                _assert_counted_equals_enumerated(model, prompts, params, cfg)
            else:  # too many rows to enumerate: sampling must land within its radius
                sampled = evaluate_zero_shot(model, prompts, EvalSampler(params, "true", cfg),
                                             20000, RNG.child(50 + cells))
                assert abs(sampled.overall_accuracy - exact["true"]) <= sampled.mc_radius
            cells += 1
    assert cells == 3  # dm2-mmcl, and captions-dm2 at pi = 0.3 and 0.6


def _pair_rule(m, u, v):
    """G of the pair rule under identity dictionaries: class (k, c) scores
    c (u z_k + v z_{k+m})."""
    g = np.zeros((2 * m, 2 * m))
    for k in range(m):
        g[k, k], g[k + m, k] = u, v
    return MMCLModel(G=g, p_dim=2 * m, rho=1.0)


def test_counting_breaks_exact_ties_as_argmax_does():
    # u - v alpha = beta (u + v alpha) = 2 exactly: a flipped row of pair k ties
    # pair k' < k, which wins the argmax, whenever that pair's coordinates agree
    m, params = 3, DataModel2Params(3, 1.0, 0.5)
    model, cfg = _pair_rule(m, 3.0, 1.0), _identity_cfg(6, 6)
    prompts = build_prompts(params, make_dictionary(6, 6))
    _assert_counted_equals_enumerated(model, prompts, params, cfg)
    rep = count_zero_shot(model, prompts, EvalSampler(params, "true", cfg))
    flips = [rep.groups[f"y={y},spu=flip"].accuracy for y in range(1, 7)]
    assert flips == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]
    # u = v alpha and beta = 0: a flipped row scores 0, as do its partner (k, -c)
    # and every other class, so class 1 takes every flipped row
    params = DataModel2Params(3, 1.0, 0.0)
    model, prompts = _pair_rule(m, 1.0, 1.0), build_prompts(params, make_dictionary(6, 6))
    _assert_counted_equals_enumerated(model, prompts, params, cfg)
    rep = count_zero_shot(model, prompts, EvalSampler(params, "true", cfg))
    assert [rep.groups[f"y={y},spu=flip"].accuracy for y in range(1, 7)] == [1.0] + [0.0] * 5


def test_counting_rejects_a_rule_without_pair_structure():
    params = DataModel2Params(3, 1.0, 0.5)
    prompts, cfg = build_prompts(params, make_dictionary(6, 6)), _identity_cfg(6, 6)

    def perturbed(eps):  # class 1 also reads z_2
        g = _pair_rule(3, 3.0, 1.0).G.copy()
        g[1, 0] = eps
        return MMCLModel(G=g, p_dim=6, rho=1.0)

    with pytest.raises(ArgumentError, match="not pair-structured"):
        count_zero_shot(perturbed(1e-6), prompts, EvalSampler(params, "true", cfg))
    # inside the structure tolerance, the exact tie is no longer certain
    with pytest.raises(ArgumentError, match="cannot rank"):
        count_zero_shot(perturbed(1e-14), prompts, EvalSampler(params, "true", cfg))


def test_counting_needs_noiseless_model_2_inputs():
    from mmclab import ConfigurationError
    params = DataModel2Params(3, 1.0, 0.5)
    prompts = build_prompts(params, make_dictionary(6, 6))
    with pytest.raises(ConfigurationError, match="noiseless model-2"):
        count_zero_shot(_pair_rule(3, 3.0, 1.0), prompts,
                        EvalSampler(params, "true", _identity_cfg(6, 6, noise=0.1)))
    params1 = DataModel1Params(1.0, 0.1, 0.9)
    model = mmcl_fit_closed_form(population_cross_cov_dm1(params1), 2, 1.0)
    with pytest.raises(ConfigurationError, match="noiseless model-2"):
        count_zero_shot(model, build_prompts(params1, make_dictionary(2, 2)),
                        EvalSampler(params1, "true", _identity_cfg(2, 2)))
