import mpmath
import numpy as np
import pytest

from mmclab import (DomainError, in_distribution_predictions_dm1, sl_failure_bounds_dm1, zero_shot_robustness_dm1,
                    sl_shift_ceiling_dm2, perfect_zero_shot_condition_dm2,
                    caption_masking_threshold_dm2, zero_shot_accuracy_dm2)
from mmclab import (DataModel1Params, DataModel2Params, RngStream, population_cross_cov_dm2,
                    sample_latents_dm1, theory)
from mmclab.theory import DM1_BEST_POSSIBLE_ACCURACY, TheoremPrediction


def phi_oracle(x):
    mpmath.mp.dps = 40
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))


def test_dm1_best_possible_accuracy_is_the_core_feature_bayes_rate():
    assert DM1_BEST_POSSIBLE_ACCURACY == pytest.approx(phi_oracle(1.0), abs=1e-15)
    # on the true split the sign of the core feature is the Bayes rule
    n = 200_000
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.01, 0.999), n, "true",
                               RngStream(3, 0))
    acc = np.mean(np.sign(batch.z[:, 0]) == batch.y)
    assert abs(acc - DM1_BEST_POSSIBLE_ACCURACY) <= 4 * np.sqrt(0.25 / n)


def test_sl_failure_bounds_constants():
    pred = sl_failure_bounds_dm1()
    assert pred.values["overall"] == pytest.approx(2 / 3, abs=1e-12)
    assert pred.values["minority"] == pytest.approx(1 / 3, abs=1e-12)
    assert pred.comparators["overall"] == "upper-bound"
    assert pred.comparators["minority"] == "upper-bound"


def test_zero_shot_robustness_reference_point():
    pred = zero_shot_robustness_dm1(1.0, 0.0, 1.0)
    assert pred.values["kappa1"] == pytest.approx(-0.5, abs=1e-12)
    assert pred.values["kappa2"] == pytest.approx(-1.5, abs=1e-12)
    # frozen: 1 - Phi(-0.5)/2 - Phi(-1.5)/2 and 1 - Phi(-0.5)
    assert pred.values["overall"] == pytest.approx(0.8123, abs=5e-5)
    assert pred.values["minority"] == pytest.approx(0.6915, abs=5e-5)
    assert pred.values["overall"] == pytest.approx(
        1 - 0.5 * phi_oracle(-0.5) - 0.5 * phi_oracle(-1.5), abs=1e-9)


def test_zero_shot_minority_never_below_half():
    for p_spu in np.linspace(0.51, 1.0, 25):
        pred = zero_shot_robustness_dm1(1.0, 0.0, float(p_spu))
        assert pred.values["kappa1"] <= 0
        assert pred.values["minority"] >= 0.5


def test_zero_shot_robustness_second_point():
    pred = zero_shot_robustness_dm1(1.0, 0.0, 0.75)
    assert pred.values["kappa1"] == pytest.approx(-0.75, abs=1e-12)
    assert pred.values["minority"] == pytest.approx(1 - phi_oracle(-0.75), abs=1e-9)
    assert pred.values["minority"] == pytest.approx(0.7734, abs=5e-5)


def test_zero_shot_robustness_degenerate_denominator():
    with pytest.raises(DomainError):
        zero_shot_robustness_dm1(0.0, 0.0, 0.9)


def test_sl_shift_ceiling_reference_point():
    pred = sl_shift_ceiling_dm2(10.0, 1 / 3)
    assert pred.values["overall"] == pytest.approx(0.5 + 9 / 166, abs=1e-12)
    assert pred.values["overall"] == pytest.approx(0.5542, abs=5e-5)
    assert pred.values["overall"] <= 0.60
    assert pred.comparators["overall"] == "upper-bound"


def test_sl_shift_ceiling_vacuous_regime():
    with pytest.raises(DomainError, match="vacuous"):
        sl_shift_ceiling_dm2(0.7, 1 / 3)


def test_perfect_condition_reference_points():
    assert perfect_zero_shot_condition_dm2(3, 0.7, 1 / 3) is True
    for m in (2, 5, 50):
        assert perfect_zero_shot_condition_dm2(m, 2.0, 0.0) is False


def test_perfect_condition_equivalent_to_threshold_below_one():
    g = np.random.default_rng(123)
    for _ in range(1000):
        m = int(g.integers(2, 60))
        alpha = float(g.uniform(0.05, 2.5))
        beta = float(g.uniform(0.01, 0.99))
        condition = perfect_zero_shot_condition_dm2(m, alpha, beta)
        threshold = caption_masking_threshold_dm2(m, alpha, beta)
        assert condition == (threshold < 1)


def test_zero_shot_accuracy_dm2_is_one_or_half_plus_two_to_minus_m_or_half():
    # the cells where the paper's "at most 50%" fails at slack 0
    for m, alpha, beta, pi, true in ((3, 1.1, 0.5, 1.0, 0.625), (3, 1.1, 0.5, 0.5, 0.625),
                                     (2, 1.05, 0.7, 1.0, 0.75), (2, 1.05, 0.7, 0.3, 0.75),
                                     (5, 1.2, 0.5, 1.0, 0.53125), (3, 1.1, 0.5, 0.3, 0.5),
                                     (30, 1.1, 1 / 3, 0.3, 0.5 + 2.0 ** -30),
                                     (30, 1.1, 1 / 3, 0.6, 1.0), (3, 0.7, 1 / 3, 1.0, 1.0)):
        pred = zero_shot_accuracy_dm2(m, alpha, beta, pi)
        assert pred.values == {"train": 1.0, "true": true}
        assert set(pred.comparators.values()) == {"equality-threshold"}
    with pytest.raises(DomainError):
        zero_shot_accuracy_dm2(3, 1.1, 0.5, 1.5)


@pytest.mark.parametrize("m,alpha,beta,pi", [(2, 1.05, 0.7, 0.3), (3, 1.1, 0.5, 1.0),
                                            (30, 1.1, 1 / 3, 0.6)])
def test_zero_shot_accuracy_dm2_reads_u_and_v_off_the_covariance(monkeypatch, m, alpha, beta,
                                                                 pi):
    # the analytic rule's (u, v) is the first column of the masked population covariance
    seen = []
    counted = theory.pair_rule_hits_dm2

    def spy(u, v, params, split, tol=0.0):
        seen.append((u, v))
        return counted(u, v, params, split, tol)

    monkeypatch.setattr(theory, "pair_rule_hits_dm2", spy)
    zero_shot_accuracy_dm2(m, alpha, beta, pi)
    s = population_cross_cov_dm2(DataModel2Params(m, alpha, beta), pi)
    assert seen == [(s[0, 0], s[m, 0])] * 2
    assert (s[0, 0], s[m, 0]) == ((1 + pi * (m - 1) * beta ** 2) / m, alpha / m)


def test_zero_shot_accuracy_dm2_is_one_exactly_where_the_paper_says():
    g = np.random.default_rng(18)
    for _ in range(300):
        m, alpha = int(g.integers(2, 40)), float(g.uniform(0.05, 3.0))
        beta, pi = float(g.uniform(0.01, 0.99)), float(g.uniform(0.0, 1.0))
        perfect = zero_shot_accuracy_dm2(m, alpha, beta).values["true"] == 1.0
        assert perfect == perfect_zero_shot_condition_dm2(m, alpha, beta)
        masked = zero_shot_accuracy_dm2(m, alpha, beta, pi).values["true"]
        assert (masked == 1.0) == (pi > caption_masking_threshold_dm2(m, alpha, beta))
        assert masked in (1.0, 0.5 + 2.0 ** -m, 0.5)


def test_masked_minority_identity_masking_matches_unmasked():
    pred = zero_shot_robustness_dm1(1.0, 0.02, 0.999, 1.0)
    assert pred == zero_shot_robustness_dm1(1.0, 0.02, 0.999)


def test_masked_minority_labels_only_captions_are_chance_level():
    pred = zero_shot_robustness_dm1(1.0, 0.0, 1.0, 0.0)
    assert pred.values["minority"] == pytest.approx(0.5, abs=1e-12)


def test_masked_minority_variants_disagree_at_half():
    # the prediction is linear in pi_core: e = 0.5 gives 0.6306, where an
    # exponent of pi_core^2 (e = 0.25) would give 1 - Phi(-0.25 / 1.25) = 0.5793
    linear = zero_shot_robustness_dm1(1.0, 0.0, 1.0, 0.5).values["minority"]
    assert linear == pytest.approx(1 - phi_oracle(-0.5 / 1.5), abs=1e-9)   # 0.6306
    assert linear == pytest.approx(0.6306, abs=5e-5)
    assert abs(linear - (1 - phi_oracle(-0.25 / 1.25))) > 0.05


def test_masked_minority_monotone_in_pi_core():
    values = [zero_shot_robustness_dm1(1.0, 0.02, 0.999, pi).values["minority"]
              for pi in np.linspace(0, 1, 11)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_masking_threshold_reference_point():
    pi_tilde = caption_masking_threshold_dm2(30, 1.1, 1 / 3)
    # ((4/3) * 1.21 - 2/3) / ((2/3) * (1/9) * 29) = 25.56 / 58
    assert pi_tilde == pytest.approx(25.56 / 58, abs=1e-12)
    assert pi_tilde == pytest.approx(0.4407, abs=5e-5)


def test_masking_threshold_negative_means_always_robust():
    assert caption_masking_threshold_dm2(3, 0.7, 1 / 3) < 0
    assert perfect_zero_shot_condition_dm2(3, 0.7, 1 / 3) is True


def test_masking_threshold_decreasing_in_m():
    values = [caption_masking_threshold_dm2(m, 1.1, 1 / 3) for m in range(2, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_masking_threshold_undefined_at_zero_beta():
    with pytest.raises(DomainError):
        caption_masking_threshold_dm2(5, 1.0, 0.0)


def test_in_distribution_reference_points():
    pred = in_distribution_predictions_dm1(1.0, 0.0)
    assert pred.values["sl_id"] == pytest.approx(phi_oracle(2.51), abs=1e-9)
    assert pred.values["sl_id"] == pytest.approx(0.9940, abs=5e-5)
    # the contrastive train-split accuracy weighs the majority groups'
    # 1 - Phi(kappa_2) = Phi((2p + 1)/2) by p and the minority groups'
    # 1 - Phi(kappa_1) = Phi((3 - 2p)/2) by 1 - p; not the sometimes-quoted 93.93%
    p = 0.999
    train = zero_shot_robustness_dm1(1.0, 0.0, p).values["train"]
    assert train == pytest.approx(p * phi_oracle((2 * p + 1) / 2)
                                  + (1 - p) * phi_oracle((3 - 2 * p) / 2), abs=1e-9)
    assert train == pytest.approx(0.9328, abs=5e-5)
    assert pred.values["sl_id"] > train


def test_train_accuracy_is_not_the_majority_accuracy_away_from_p_one():
    # at p = 0.9 the minority groups weigh 0.1: the majority-only value 0.9191
    # overstates the train-split accuracy 0.8997 by about twice the 0.01 slack
    # that id-control checks at
    pred = zero_shot_robustness_dm1(1.0, 0.1, 0.9).values
    majority = 1 - phi_oracle(pred["kappa2"])
    assert majority == pytest.approx(0.9191, abs=5e-5)
    assert pred["train"] == pytest.approx(0.8997, abs=5e-5)
    assert pred["train"] == pytest.approx(0.9 * majority + 0.1 * pred["minority"], abs=1e-12)


@pytest.mark.parametrize("pi_core", [-0.1, 1.5, float("nan")])
def test_zero_shot_robustness_dm1_rejects_pi_core_outside_the_unit_interval(pi_core):
    with pytest.raises(DomainError, match="pi_core"):
        zero_shot_robustness_dm1(1.0, 0.02, 0.999, pi_core)


def test_zero_shot_robustness_dm1_relationships_on_grid():
    # overall <= 1 and overall >= minority/2 + 1/4 (kappa_2 is never positive)
    for sc in (1.0, 1.5, 2.0):
        for ss in (0.0, 0.1, 0.5):
            for p in (0.6, 0.9, 0.999):
                pred = zero_shot_robustness_dm1(sc, ss, p)
                assert pred.values["overall"] <= 1.0
                assert pred.values["overall"] >= pred.values["minority"] / 2 + 0.25 - 1e-12


def test_predictions_are_deterministic():
    a = zero_shot_robustness_dm1(1.3, 0.07, 0.87)
    b = zero_shot_robustness_dm1(1.3, 0.07, 0.87)
    assert a == b


@pytest.mark.parametrize("call,error,message", [
    (lambda: TheoremPrediction({"overall": float("nan")}, {"overall": "upper-bound"}),
     DomainError, "not finite"),
    (lambda: caption_masking_threshold_dm2(1, 1.0, 0.5), DomainError, "m must be >= 2"),
    (lambda: in_distribution_predictions_dm1(0.0, 0.0), DomainError, "degenerate denominator"),
], ids=["nonfinite-prediction", "threshold-m", "id-denominator"])
def test_theory_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
