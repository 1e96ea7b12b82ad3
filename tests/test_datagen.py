import numpy as np
import pytest

from mmclab import (ArgumentError, CaptionMask, ConfigurationError, DataModel1Params,
                    DataModel2Params, DimensionError, LatentBatch, ModalityConfig,
                    RngStream, SizeError, enumerate_latents_dm2, make_dictionary,
                    make_paired_dataset, sample_latents_dm1, sample_latents_dm2)
from mmclab.datagen import _mask_batch

RNG = RngStream(2024, 0)


def test_dm1_degenerate_spurious_correlation():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 1.0), 1000, "train", RNG.child(1))
    assert np.all(batch.a == batch.y)


def test_dm1_true_split_independence():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 100_000, "true", RNG.child(2))
    assert abs(np.mean(batch.a == batch.y) - 0.5) < 0.01


def test_dm1_core_variance_moment():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 100_000, "true", RNG.child(3))
    assert np.var(batch.z[:, 0] - batch.y) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("p_spu", [0.7, 0.9, 0.999])
def test_dm1_train_split_correlation_rate(p_spu):
    n = 50_000
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, p_spu), n, "train", RNG.child(4))
    rate = np.mean(batch.a == batch.y)
    assert abs(rate - p_spu) <= 3 * np.sqrt(p_spu * (1 - p_spu) / n) + 1e-12


def test_dm1_rejects_empty_draw():
    with pytest.raises(ArgumentError):
        sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 0, "train", RNG)


def _check_dm2_constraints(batch, params, split):
    m, alpha, beta = params.m, params.alpha, params.beta
    rows = np.arange(len(batch))
    assert np.all(batch.k == (batch.y + 1) // 2)
    assert np.all(batch.c == np.where(batch.y % 2 == 1, 1, -1))
    assert np.all(batch.z[rows, batch.k - 1] == batch.c)
    spu = batch.z[rows, batch.k - 1 + m]
    if split == "train":
        assert np.all(spu == batch.c * alpha)
    else:
        assert np.all(np.abs(spu) == alpha)
    off = ~np.eye(m, dtype=bool)[batch.k - 1]
    assert np.all(np.abs(batch.z[:, :m][off]) == beta)
    assert np.all(np.abs(batch.z[:, m:][off]) == beta * alpha)


@pytest.mark.parametrize("split,expected", [("train", 16), ("true", 32)])
def test_dm2_enumeration_counts(split, expected):
    params = DataModel2Params(2, 1.0, 0.5)
    batch = enumerate_latents_dm2(params, split)
    assert len(batch) == expected
    counts = np.bincount(batch.y)[1:]
    assert np.all(counts == counts[0])
    _check_dm2_constraints(batch, params, split)


def test_dm2_enumeration_cap():
    with pytest.raises(SizeError, match="100663296"):
        enumerate_latents_dm2(DataModel2Params(12, 1.0, 0.5), "train")


def test_dm2_sampled_train_pins_spurious():
    params = DataModel2Params(2, 1.5, 0.5)
    batch = sample_latents_dm2(params, 10_000, "train", RNG.child(5))
    spu = batch.z[np.arange(len(batch)), batch.k - 1 + 2]
    assert np.all(spu == batch.c * 1.5)


def test_dm2_sampled_true_sign_balance():
    batch = sample_latents_dm2(DataModel2Params(2, 1.5, 0.5), 100_000, "true", RNG.child(6))
    assert abs(np.mean(batch.spurious_agrees()) - 0.5) < 0.01


def test_dm2_offclass_coordinate_moments():
    params = DataModel2Params(3, 1.0, 1 / 3)
    batch = sample_latents_dm2(params, 100_000, "true", RNG.child(7))
    off = ~np.eye(3, dtype=bool)[batch.k - 1]
    low = batch.z[:, :3][off]
    assert np.all(np.abs(low) == 1 / 3)
    assert abs(low.mean()) < 0.005


def test_mask_identity_when_probabilities_one():
    params = DataModel1Params(1.0, 0.5, 0.9)
    batch = sample_latents_dm1(params, 50, "train", RNG.child(8))
    np.testing.assert_array_equal(
        _mask_batch(batch, CaptionMask.model1(1.0, 1.0), RNG.child(9)), batch.z)
    batch2 = sample_latents_dm2(DataModel2Params(2, 1.0, 0.5), 50, "true", RNG.child(10))
    np.testing.assert_array_equal(
        _mask_batch(batch2, CaptionMask.model2(1.0), RNG.child(11)), batch2.z)


def test_mask_full_collapse_to_group_means():
    batch = LatentBatch("dm1", "train", np.array([[1.37, -0.42]]), [1], a=[-1])
    out = _mask_batch(batch, CaptionMask.model1(0.0, 0.0), RNG.child(12))
    np.testing.assert_array_equal(out, [[1.0, -1.0]])


def test_mask_model2_keeps_only_class_coordinate():
    batch = sample_latents_dm2(DataModel2Params(2, 1.0, 0.5), 10, "true", RNG.child(13))
    out = _mask_batch(batch, CaptionMask.model2(0.0), RNG.child(14))
    expected = np.zeros((10, 4))
    expected[np.arange(10), batch.k - 1] = batch.c
    np.testing.assert_array_equal(out, expected)


def test_mask_variant_mismatch():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.5, 0.9), 5, "train", RNG.child(15))
    with pytest.raises(ConfigurationError):
        _mask_batch(batch, CaptionMask.model2(0.5), RNG.child(16))
    batch2 = sample_latents_dm2(DataModel2Params(2, 1.0, 0.5), 5, "true", RNG.child(17))
    with pytest.raises(ConfigurationError):
        _mask_batch(batch2, CaptionMask.model1(0.5, 0.5), RNG.child(18))


def test_mask_probability_range_checked():
    with pytest.raises(Exception):
        CaptionMask.model1(1.5, 0.0)


def _identity_cfg(d, l, noise=0.0):
    return ModalityConfig(make_dictionary(d, l), noise)


def test_paired_dataset_noiseless_identity_projection():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.5, 0.9), 100, "train", RNG.child(17))
    data = make_paired_dataset(batch, _identity_cfg(5, 2), _identity_cfg(3, 2),
                               CaptionMask.none(), RNG.child(18))
    np.testing.assert_array_equal(data.x_image[:, :2], batch.z)
    np.testing.assert_array_equal(data.x_image[:, 2:], 0.0)
    np.testing.assert_array_equal(data.x_text[:, :2], batch.z)


def test_paired_dataset_noise_norm_moment():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.5, 0.9), 10_000, "train", RNG.child(19))
    data = make_paired_dataset(batch, _identity_cfg(100, 2, noise=1.0),
                               _identity_cfg(100, 2), CaptionMask.none(), RNG.child(20))
    noise = data.x_image - batch.z @ make_dictionary(100, 2).matrix.T
    assert np.mean(np.sum(noise ** 2, axis=1)) == pytest.approx(1.0, abs=0.05)


def test_paired_dataset_dimension_mismatch():
    batch = sample_latents_dm2(DataModel2Params(2, 1.0, 0.5), 10, "true", RNG.child(21))
    with pytest.raises(DimensionError):
        make_paired_dataset(batch, _identity_cfg(5, 2), _identity_cfg(5, 2),
                            CaptionMask.none(), RNG.child(22))


def test_paired_dataset_is_deterministic_per_stream():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.5, 0.9), 64, "train", RNG.child(23))
    mask = CaptionMask.model1(0.5, 0.5)
    a = make_paired_dataset(batch, _identity_cfg(4, 2, 0.3), _identity_cfg(4, 2, 0.3),
                            mask, RNG.child(24))
    b = make_paired_dataset(batch, _identity_cfg(4, 2, 0.3), _identity_cfg(4, 2, 0.3),
                            mask, RNG.child(24))
    np.testing.assert_array_equal(a.x_image, b.x_image)
    np.testing.assert_array_equal(a.x_text, b.x_text)
