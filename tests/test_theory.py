import mpmath
import numpy as np
import pytest

from mmclab import (DomainError, in_distribution_predictions_dm1, sl_failure_bounds_dm1, zero_shot_robustness_dm1,
                    sl_shift_ceiling_dm2, perfect_zero_shot_condition_dm2, masked_minority_accuracy_dm1,
                    caption_masking_threshold_dm2)
from mmclab import DataModel1Params, RngStream, sample_latents_dm1
from mmclab.theory import DM1_BEST_POSSIBLE_ACCURACY


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


def test_masked_minority_identity_masking_matches_unmasked():
    for variant in ("linear", "squared"):
        pred = masked_minority_accuracy_dm1(1.0, 0.02, 0.999, 1.0, variant)
        base = zero_shot_robustness_dm1(1.0, 0.02, 0.999)
        assert pred.values["minority"] == pytest.approx(base.values["minority"], abs=1e-12)


def test_masked_minority_labels_only_captions_are_chance_level():
    for variant in ("linear", "squared"):
        pred = masked_minority_accuracy_dm1(1.0, 0.0, 1.0, 0.0, variant)
        assert pred.values["minority"] == pytest.approx(0.5, abs=1e-12)


def test_masked_minority_variants_disagree_at_half():
    linear = masked_minority_accuracy_dm1(1.0, 0.0, 1.0, 0.5, "linear").values["minority"]
    squared = masked_minority_accuracy_dm1(1.0, 0.0, 1.0, 0.5, "squared").values["minority"]
    assert linear == pytest.approx(1 - phi_oracle(-0.5 / 1.5), abs=1e-9)   # 0.6306
    assert squared == pytest.approx(1 - phi_oracle(-0.25 / 1.25), abs=1e-9)  # 0.5793
    assert linear == pytest.approx(0.6306, abs=5e-5)
    assert squared == pytest.approx(0.5793, abs=5e-5)


def test_masked_minority_monotone_in_pi_core():
    values = [masked_minority_accuracy_dm1(1.0, 0.02, 0.999, pi).values["minority"]
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
    pred = in_distribution_predictions_dm1(1.0, 0.0, 0.999)
    assert pred.values["sl_id"] == pytest.approx(phi_oracle(2.51), abs=1e-9)
    assert pred.values["sl_id"] == pytest.approx(0.9940, abs=5e-5)
    # the CDF evaluation, not the sometimes-quoted 93.93%
    assert pred.values["mmcl_id"] == pytest.approx(phi_oracle((2 * 0.999 + 1) / 2), abs=1e-9)
    assert pred.values["mmcl_id"] == pytest.approx(0.9332, abs=1e-3)
    assert pred.values["sl_id"] > pred.values["mmcl_id"]


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
