import numpy as np
import pytest

from mmclab import (ArgumentError, CaptionMask, CrossCov, DataModel1Params,
                    DataModel2Params, DimensionError, EvalSampler, ModalityConfig,
                    NumericError, RngStream, build_prompts, empirical_cross_cov,
                    enumerate_latents_dm2, evaluate_sl, evaluate_zero_shot,
                    make_dictionary, make_paired_dataset, mmcl_fit_closed_form,
                    phi_cdf, population_cross_cov_dm1, population_cross_cov_dm2,
                    probe_fit, sample_latents_dm1, supcon_class_mean_cov,
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
