import numpy as np
import pytest

from mmclab import (ArgumentError, CaptionMask, ConfigurationError, DataModel1Params,
                    DataModel2Params, DimensionError, DomainError, LatentBatch, ModalityConfig,
                    RngStream, SizeError, enumerate_latents_dm2, make_dictionary,
                    PairedDataset, make_paired_dataset, project_latents, sample_latents_dm1,
                    sample_latents_dm2)
from mmclab import datagen
from mmclab.datagen import _mask_batch

RNG = RngStream(2024, 0)


def test_dm1_degenerate_spurious_correlation():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 1.0), 1000, "train", RNG.child(1))
    assert np.all(batch.a == batch.y)


def test_dm1_true_split_independence():
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 100_000, "true", RNG.child(2))
    assert abs(np.mean(batch.a == batch.y) - 0.5) < 0.01


def test_dm1_spurious_agrees_where_the_attribute_is_the_label():
    batch = LatentBatch(DataModel1Params(), np.zeros((4, 2)), [1, 1, -1, -1], a=[1, -1, -1, 1])
    np.testing.assert_array_equal(batch.spurious_agrees(), [True, False, True, False])


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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_enumeration_matches_the_class_means_and_group_sizes_of_the_params(m):
    # dyadic alpha and beta keep every sum of latent values exact
    params = DataModel2Params(m, 1.5, 0.25)
    for split, spu_values in (("true", (-1.5, 1.5)), ("train", (None,))):
        batch = enumerate_latents_dm2(params, split)
        spu = batch.z[np.arange(len(batch)), batch.k - 1 + m]
        for y, mean in zip(params.classes, params.class_means()):
            rows = batch.y == y
            if split == "true":
                np.testing.assert_array_equal(batch.z[rows].mean(axis=0), mean)
            for value in spu_values:
                block = rows if value is None else rows & (spu == value)
                assert block.sum() == params.rows_per_group


def test_sampled_dm1_class_means_match_the_params():
    params = DataModel1Params(1.0, 0.5, 0.9)
    batch = sample_latents_dm1(params, 100_000, "true", RNG.child(25))
    # per coordinate variance on the true split: sigma_core^2, and 1 + sigma_spu^2 (a = +-1)
    sd = np.array([params.sigma_core, np.sqrt(1 + params.sigma_spu ** 2)])
    for y, mean in zip(params.classes, params.class_means()):
        rows = batch.z[batch.y == y]
        # 4 standard errors: each coordinate misses with probability about 6e-5
        assert np.all(np.abs(rows.mean(axis=0) - mean) <= 4 * sd / np.sqrt(len(rows)))


@pytest.mark.parametrize("split", ["train", "true"])
def test_sampled_dm2_aliases_are_those_of_the_labels(split):
    params = DataModel2Params(3, 1.5, 0.5)
    batch = sample_latents_dm2(params, 1000, split, RNG.child(26))
    k, c = params.alias(batch.y)
    np.testing.assert_array_equal(batch.k, k)
    np.testing.assert_array_equal(batch.c, c)
    assert [params.alias(int(y)) for y in batch.y[:12]] == list(zip(k[:12], c[:12]))
    np.testing.assert_array_equal(batch.z[np.arange(len(batch)), batch.k - 1], batch.c)


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
    batch = LatentBatch(DataModel1Params(), np.array([[1.37, -0.42]]), [1], a=[-1])
    out = _mask_batch(batch, CaptionMask.model1(0.0, 0.0), RNG.child(12))
    np.testing.assert_array_equal(out, [[1.0, -1.0]])


def test_latent_batch_rejects_an_unknown_model():
    # consumers such as supcon_class_mean_cov take their rule from batch.params
    with pytest.raises(ArgumentError, match="dm3"):
        LatentBatch("dm3", np.zeros((2, 2)), [1, -1])


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


def test_mask_levels_default_to_one_and_only_the_drawn_ones_are_listed():
    # callers read every level directly, so an undrawn level must read as unmasked
    none = CaptionMask.none()
    assert (none.pi_core, none.pi_spu, none.pi, none.levels) == (1, 1, 1, {})
    half = CaptionMask("model1", pi_core=0.5)
    assert (half.pi_spu, half.pi, half.levels) == (1, 1, {"pi_core": 0.5, "pi_spu": 1})
    assert CaptionMask.model2(0.3).levels == {"pi": 0.3}


@pytest.mark.parametrize("kwargs", [{"variant": "none", "pi_core": 0.5},
                                    {"variant": "model2", "pi": 0.5, "pi_core": 0.5},
                                    {"variant": "model1", "pi": float("nan")}],
                         ids=["none-pi_core", "model2-pi_core", "model1-pi-nan"])
def test_mask_rejects_a_level_its_variant_does_not_draw(kwargs):
    with pytest.raises(DomainError, match="keeps pi"):
        CaptionMask(**kwargs)


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


@pytest.mark.parametrize("call,error,message", [
    (lambda: DataModel2Params(m=1), DomainError, "m must be >= 2"),
    (lambda: sample_latents_dm1(DataModel1Params(), 4, "test", RNG.child(40)),
     ArgumentError, "split must be one of"),
    (lambda: CaptionMask("model3"), DomainError, "unknown mask variant"),
    (lambda: ModalityConfig(make_dictionary(2, 2), -0.1), DomainError, "noise_sigma must be >= 0"),
    (lambda: PairedDataset(np.zeros((2, 2)), np.zeros((3, 2)),
                           LatentBatch(DataModel1Params(), np.zeros((2, 2)), [1, -1], a=[1, -1])),
     DimensionError, "row counts"),
    (lambda: project_latents(np.zeros((2, 3)), ModalityConfig(make_dictionary(4, 2))),
     DimensionError, "latent dim 3 does not match"),
], ids=["dm2-m", "split", "mask-variant", "noise-sigma", "row-counts", "latent-dim"])
def test_datagen_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("params", [DataModel1Params(1.0, 0.1, 0.9),
                                    DataModel2Params(3, 0.7, 1 / 3)], ids=["dm1", "dm2"])
def test_a_task_makes_each_sampled_draw_once_and_hands_it_out_read_only(params):
    rng = RNG.child(30)
    outside = params.draw("train", 50, rng)
    with datagen._shared_draws() as memo:
        first = params.draw("train", 50, rng)
        assert params.draw("train", 50, rng) is first
        assert params.draw("true", 50, rng) is not first
        assert params.draw("train", 50, rng.child(1)) is not first
        assert len(memo) == 3
    assert memo == {} and getattr(datagen._TASK, "memo", None) is None
    assert params.draw("train", 50, rng) is not outside
    for name in ("z", "y", "a", "k", "c"):
        array = getattr(first, name)
        if array is not None:
            np.testing.assert_array_equal(array, getattr(outside, name))
            assert not array.flags.writeable, name


def test_masks_in_a_task_share_their_uniforms_so_a_higher_level_keeps_more():
    # common random numbers: each level thresholds the same uniforms, so the rows
    # that keep their detail at one level keep it at every higher level
    params = DataModel1Params(1.0, 0.1, 0.9)
    batch = params.draw("train", 2000, RNG.child(31))
    kept = {}
    with datagen._shared_draws():
        for level in (0.2, 0.5, 0.8):
            out = _mask_batch(batch, CaptionMask.model1(level, level), RNG.child(32))
            kept[level] = out[:, 0] != batch.y
    assert np.all(kept[0.2] <= kept[0.5]) and np.all(kept[0.5] <= kept[0.8])
    assert kept[0.2].sum() < kept[0.5].sum() < kept[0.8].sum()
    # outside a task the same stream draws the same uniforms afresh
    alone = _mask_batch(batch, CaptionMask.model1(0.5, 0.5), RNG.child(32))
    np.testing.assert_array_equal(alone[:, 0] != batch.y, kept[0.5])
