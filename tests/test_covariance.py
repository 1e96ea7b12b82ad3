import numpy as np
import pytest

from mmclab import (ArgumentError, CaptionMask, DataModel1Params, DataModel2Params,
                    LatentBatch, ModalityConfig, PairedDataset, RngStream,
                    empirical_cross_cov, make_dictionary, make_paired_dataset,
                    population_cross_cov_dm1, population_cross_cov_dm2,
                    sample_latents_dm1, supcon_class_mean_cov)
from mmclab.datagen import enumerate_latents_dm2

RNG = RngStream(7, 100)


def _dataset_from_rows(rows_i, rows_t, y):
    batch = LatentBatch("dm1", "train", np.asarray(rows_i, dtype=float),
                        np.asarray(y), a=np.asarray(y))
    return PairedDataset(np.asarray(rows_i, dtype=float),
                         np.asarray(rows_t, dtype=float), batch)


def test_empirical_two_point_literal():
    # direct evaluation of the paired-minus-unpaired formula at n=2
    data = _dataset_from_rows([[1, 0], [0, 1]], [[1, 0], [0, 1]], [1, -1])
    np.testing.assert_allclose(empirical_cross_cov(data).S,
                               [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_empirical_identical_pairs_vanish():
    x = np.tile([[0.3, -1.2]], (6, 1))
    data = _dataset_from_rows(x, x, [1, -1, 1, -1, 1, -1])
    np.testing.assert_allclose(empirical_cross_cov(data).S, 0.0, atol=1e-14)


def test_empirical_matches_literal_double_sum():
    g = RNG.child(1).generator()
    xi = g.standard_normal((12, 3))
    xt = g.standard_normal((12, 4))
    data = _dataset_from_rows(np.pad(xi, ((0, 0), (0, 0))), xt, [1, -1] * 6)
    n = 12
    literal = xi.T @ xt / n
    for i in range(n):
        for j in range(n):
            if i != j:
                literal -= np.outer(xi[i], xt[j]) / (n * (n - 1))
    np.testing.assert_allclose(empirical_cross_cov(data).S, literal, atol=1e-12)


def test_empirical_monte_carlo_converges_to_population_dm1():
    params = DataModel1Params(1.0, 0.1, 0.9)
    batch = sample_latents_dm1(params, 50_000, "train", RNG.child(2))
    cfg = ModalityConfig(make_dictionary(2, 2))
    data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), RNG.child(3))
    s = empirical_cross_cov(data).S
    np.testing.assert_allclose(s, [[2.0, 0.8], [0.8, 1.01]], atol=0.05)


def test_population_dm1_literal():
    cov = population_cross_cov_dm1(DataModel1Params(1.0, 0.1, 0.9))
    np.testing.assert_allclose(cov.S, [[2.0, 0.8], [0.8, 1.01]], atol=1e-15)
    assert cov.space == "latent"
    np.testing.assert_array_equal(cov.S, cov.S.T)


def test_population_dm1_masked_linear_literal():
    cov = population_cross_cov_dm1(DataModel1Params(1.0, 0.1, 0.9),
                                   CaptionMask.model1(0.5, 0.0))
    np.testing.assert_allclose(cov.S, [[1.5, 0.8], [0.8, 1.0]], atol=1e-15)


def test_population_dm1_identity_mask_is_unmasked():
    params = DataModel1Params(1.3, 0.2, 0.8)
    masked = population_cross_cov_dm1(params, CaptionMask.model1(1.0, 1.0))
    np.testing.assert_array_equal(masked.S, population_cross_cov_dm1(params).S)


def test_population_dm1_masked_cross_validated_monte_carlo():
    # empirical covariance of a masked dataset decides the pi-exponent question:
    # it must match the linear-variant matrix, not the squared one
    params = DataModel1Params(1.0, 0.1, 0.9)
    mask = CaptionMask.model1(0.5, 0.0)
    batch = sample_latents_dm1(params, 200_000, "train", RNG.child(4))
    cfg = ModalityConfig(make_dictionary(2, 2))
    data = make_paired_dataset(batch, cfg, cfg, mask, RNG.child(5))
    emp = empirical_cross_cov(data).S
    linear = population_cross_cov_dm1(params, mask, "linear").S
    squared = population_cross_cov_dm1(params, mask, "squared").S
    assert np.abs(emp - linear).max() < 0.02
    assert np.abs(emp - squared).max() > 0.2  # (1,1) entry differs by 0.25


def test_population_dm1_mask_variant_mismatch():
    with pytest.raises(Exception):
        population_cross_cov_dm1(DataModel1Params(1.0, 0.1, 0.9), CaptionMask.model2(0.5))


def test_population_dm2_unmasked_literal():
    cov = population_cross_cov_dm2(DataModel2Params(2, 1.0, 0.5), pi=1.0)
    eye = np.eye(2)
    np.testing.assert_allclose(cov.S[:2, :2], 0.625 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[:2, 2:], 0.5 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[2:, :2], 0.5 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[2:, 2:], 0.625 * eye, atol=1e-15)
    np.testing.assert_array_equal(cov.S, cov.S.T)


def test_population_dm2_masked_literal_and_asymmetry():
    params = DataModel2Params(2, 1.0, 0.5)
    cov = population_cross_cov_dm2(params, pi=0.5)
    eye = np.eye(2)
    np.testing.assert_allclose(cov.S[:2, :2], 0.5625 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[:2, 2:], 0.25 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[2:, :2], 0.5 * eye, atol=1e-15)
    np.testing.assert_allclose(cov.S[2:, 2:], 0.3125 * eye, atol=1e-15)
    # transpose asymmetry is exactly the (1 - pi) * alpha / m off-block gap
    asym = cov.S - cov.S.T
    np.testing.assert_allclose(asym[2:, :2], (1 - 0.5) * 1.0 / 2 * eye, atol=1e-15)


def test_population_dm2_no_shared_features():
    cov = population_cross_cov_dm2(DataModel2Params(2, 1.0, 0.0), pi=1.0)
    np.testing.assert_allclose(cov.S, 0.5 * np.block(
        [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]]), atol=1e-15)


def test_population_dm2_masked_cross_validated_monte_carlo():
    params = DataModel2Params(2, 1.0, 0.5)
    pi = 0.5
    base = enumerate_latents_dm2(params, "train")
    reps = 200_000 // len(base)
    tiled = LatentBatch("dm2", "train", np.tile(base.z, (reps, 1)),
                        np.tile(base.y, reps), k=np.tile(base.k, reps),
                        c=np.tile(base.c, reps))
    cfg = ModalityConfig(make_dictionary(4, 4))
    data = make_paired_dataset(tiled, cfg, cfg, CaptionMask.model2(pi), RNG.child(6))
    emp = empirical_cross_cov(data).S
    pop = population_cross_cov_dm2(params, pi).S
    assert np.abs(emp - pop).max() < 0.01


def test_supcon_dm1_exact_means_eigenstructure():
    # rows are exactly the population class means +-[1, 2p-1] at p = 0.9
    rows = np.array([[1.0, 0.8], [-1.0, -0.8]])
    data = _dataset_from_rows(rows, rows, [1, -1])
    cov = supcon_class_mean_cov(data)
    evals = np.linalg.eigvalsh(cov.S)
    assert evals[-1] == pytest.approx(3.28, abs=1e-12)  # 2((2p-1)^2 + 1)
    assert abs(evals[0]) < 1e-10                        # rank one by construction


def test_supcon_dm2_exhaustive_eigenvalues():
    params = DataModel2Params(2, 1.0, 0.5)
    batch = enumerate_latents_dm2(params, "train")
    cfg = ModalityConfig(make_dictionary(4, 4))
    data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), RNG.child(7))
    cov = supcon_class_mean_cov(data)
    evals = np.sort(np.linalg.eigvalsh(cov.S))[::-1]
    np.testing.assert_allclose(evals[:2], 4.0 / 3.0, atol=1e-12)  # 2(1+a^2)/(2m-1)
    np.testing.assert_allclose(evals[2:], 0.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(cov.S)) > -1e-12  # PSD


def test_supcon_missing_class_error():
    rows = np.array([[1.0, 0.8], [0.9, 0.7]])
    data = _dataset_from_rows(rows, rows, [1, 1])
    with pytest.raises(ArgumentError, match="-1"):
        supcon_class_mean_cov(data)


def test_empirical_requires_two_rows():
    with pytest.raises(ArgumentError):
        _dataset_from_rows([[1.0, 0.0]], [[1.0, 0.0]], [1])
