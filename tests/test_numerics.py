import ctypes

import mpmath
import numpy as np
import pytest

from mmclab import (Dictionary, DimensionError, DomainError, RngStream, make_dictionary,
                    numerics, phi_cdf, svd_top)


def phi_oracle(x: float) -> float:
    """High-precision normal CDF used as the independent reference."""
    mpmath.mp.dps = 40
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))


def test_phi_cdf_center():
    assert phi_cdf(0.0) == 0.5


@pytest.mark.parametrize("x,expected", [
    (-0.5, 0.30854),   # frozen from phi_oracle(-0.5) = 0.3085375387...
    (-1.5, 0.06681),   # frozen from phi_oracle(-1.5) = 0.0668072013...
])
def test_phi_cdf_frozen_values(x, expected):
    assert phi_cdf(x) == pytest.approx(expected, abs=5e-6)
    assert phi_cdf(x) == pytest.approx(phi_oracle(x), abs=1e-9)


def test_phi_cdf_matches_oracle_on_grid():
    for x in np.linspace(-8, 8, 161):
        assert abs(phi_cdf(float(x)) - phi_oracle(float(x))) < 1e-7


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_phi_cdf_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        phi_cdf(bad)


def test_phi_cdf_monotone_and_symmetric():
    xs = np.linspace(-6, 6, 241)
    vals = [phi_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x in xs:
        assert abs(phi_cdf(float(x)) + phi_cdf(float(-x)) - 1.0) < 1e-7


def test_identity_embed_literal():
    d = make_dictionary(3, 2, "identity-embed")
    np.testing.assert_array_equal(d.matrix, [[1, 0], [0, 1], [0, 0]])


@pytest.mark.parametrize("d,l", [(8, 2), (64, 2), (64, 6)])
def test_random_orthonormal_columns(d, l):
    for seed in range(100):
        dic = make_dictionary(d, l, "random-orthonormal", RngStream(seed, 5))
        err = np.abs(dic.matrix.T @ dic.matrix - np.eye(l)).max()
        assert err < 1e-10


def test_random_dictionary_deterministic():
    a = make_dictionary(16, 3, "random-orthonormal", RngStream(7, 123))
    b = make_dictionary(16, 3, "random-orthonormal", RngStream(7, 123))
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_dictionary_dimension_error():
    with pytest.raises(DimensionError):
        make_dictionary(2, 3, "identity-embed")


def test_dictionary_unknown_kind():
    with pytest.raises(DomainError):
        make_dictionary(4, 2, "haar")


def test_svd_top_diagonal_rank1():
    approx, rank = svd_top(np.diag([2.0, 1.0]), 1)
    np.testing.assert_allclose(approx, [[2, 0], [0, 0]], atol=1e-12)
    assert rank == 1


def test_svd_top_full_rank_reconstruction():
    m = np.diag([2.0, 1.0])
    approx, rank = svd_top(m, 2)
    np.testing.assert_allclose(approx, m, atol=1e-12)
    assert rank == 2


def test_svd_top_flags_rank_deficiency():
    g = RngStream(0, 1).generator()
    a = g.standard_normal(5)
    b = g.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    approx, rank = svd_top(np.outer(a, b), 2)
    np.testing.assert_allclose(approx, np.outer(a, b), atol=1e-12)
    assert rank == 1


def test_svd_top_reconstruction_property():
    for seed in range(20):
        g = RngStream(seed, 2).generator()
        m = g.standard_normal((7, 5))
        rec, _ = svd_top(m, 5)
        assert np.linalg.norm(m - rec) / np.linalg.norm(m) < 1e-10


@pytest.mark.parametrize("p", [0, 6])
def test_svd_top_rank_out_of_range(p):
    with pytest.raises(DimensionError):
        svd_top(np.eye(5), p)


def test_rng_stream_reproducible():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 8).generator().standard_normal(16)
    c = RngStream(43, 7).generator().standard_normal(16)
    assert np.abs(a - b).max() > 1e-6
    assert np.abs(a - c).max() > 1e-6


def test_rng_child_streams_are_stable_and_distinct():
    base = RngStream(1, 0)
    assert base.child(3, 4) == base.child(3, 4)
    assert base.child(3) != base.child(4)
    assert base.child(3).child(4) == base.child(3, 4)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Dictionary(np.zeros((2, 3))), DimensionError, "dictionary must be d x l"),
    (lambda: Dictionary(np.ones((2, 2))), DimensionError, "not orthonormal"),
    (lambda: make_dictionary(4, 2, "random-orthonormal"), DomainError, "requires an RngStream"),
    (lambda: svd_top(np.ones(3), 1), DimensionError, "expected a matrix"),
], ids=["dictionary-shape", "dictionary-orthonormal", "dictionary-rng", "svd-ndim"])
def test_numerics_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("cdll", [_no_library, lambda path: object()],
                         ids=["no-library", "no-openblas-symbols"])
def test_openblas_threads_is_none_without_an_openblas(monkeypatch, cdll):
    # the uncontrolled-BLAS path the harness takes for MKL, Accelerate or a
    # numpy whose linear-algebra extension cannot be loaded; there the Gram
    # product of margin-space GD is np.dot
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    lookups = (numerics._openblas_threads, numerics._openblas_symv)
    for lookup in lookups:
        lookup.cache_clear()
    try:
        assert numerics._openblas_threads() is None and numerics._openblas_symv() is None
        gram, v = _symmetric_problem(3)
        assert numerics.gram_product(gram, v, np.empty(3)).func is np.dot
    finally:
        for lookup in lookups:
            lookup.cache_clear()


class _Library:
    """A stand-in for numpy's linear-algebra extension that exports ``names`` only."""

    def __init__(self, names):
        for name in names:
            setattr(self, name, type("Routine", (), {"__name__": name})())


# (prefix, suffix) of each OpenBLAS spelling; the numpy wheels export scipy-64
_SPELLINGS = {"scipy-64": ("scipy_", "64_"), "scipy": ("scipy_", ""), "plain": ("", ""),
              "plain-64": ("", "64_")}


def _routines(spelling):
    prefix, suffix = _SPELLINGS[spelling]
    return [f"{prefix}{name}{suffix}" for name in (
        "openblas_get_num_threads", "openblas_set_num_threads", "cblas_dsymv")]


@pytest.mark.parametrize("exported,found", [*(([s], s) for s in _SPELLINGS),
                                            (list(_SPELLINGS), "scipy-64")],
                         ids=[*_SPELLINGS, "all-spellings"])
def test_each_openblas_spelling_finds_every_routine(monkeypatch, exported, found):
    # an OpenBLAS exports one spelling: the thread calls and dsymv must both be found
    # in it, dsymv with 64-bit integers exactly where the names end in 64_; where
    # every spelling is exported, the numpy wheels' comes first
    monkeypatch.setattr(ctypes, "CDLL", lambda path: _Library(
        [name for spelling in exported for name in _routines(spelling)]))
    integer = ctypes.c_int64 if found.endswith("64") else ctypes.c_int
    lookups = (numerics._openblas_threads, numerics._openblas_symv)
    for lookup in lookups:
        lookup.cache_clear()
    try:
        symv = numerics._openblas_symv()
        names = [call.__name__ for call in (*numerics._openblas_threads(), symv)]
        assert names == _routines(found)
        assert [symv.argtypes[i] for i in (2, 5, 7, 10)] == [integer] * 4
    finally:
        for lookup in lookups:
            lookup.cache_clear()


def _symmetric_problem(n, seed=3):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, 2 * n + 1))
    return np.dot(x, x.T), g.standard_normal(n)


@pytest.mark.parametrize("symv", ["blas", "fallback"])
@pytest.mark.parametrize("n", [1, 7, 500])
def test_gram_product_agrees_with_dot_within_the_trust_gates_bound(monkeypatch, n, symv):
    # any order of an n-term sum rounds each entry of K v by at most eps n ||K||_F ||v||,
    # the bound that margin-space GD's trust slack is built from
    if symv == "fallback":
        monkeypatch.setattr(numerics, "_openblas_symv", lambda: None)
    elif numerics._openblas_symv() is None:
        pytest.skip("numpy's BLAS exports no cblas_dsymv")
    gram, v = _symmetric_problem(n)
    out = np.full(n, np.nan)
    numerics.gram_product(gram, v, out)()
    bound = np.finfo(float).eps * n * np.linalg.norm(gram) * np.linalg.norm(v)
    assert np.max(np.abs(out - np.dot(gram, v))) <= bound
    if symv == "fallback":                 # the fallback is np.dot itself, bit for bit
        assert np.array_equal(out, np.dot(gram, v))


def test_gram_product_reads_one_triangle_only_where_dsymv_is_found():
    # the lower triangle is never read: poisoning it leaves the product unchanged
    if numerics._openblas_symv() is None:
        pytest.skip("numpy's BLAS exports no cblas_dsymv")
    gram, v = _symmetric_problem(7)
    out, poisoned_out = np.empty(7), np.empty(7)
    numerics.gram_product(gram, v, out)()
    poisoned = np.triu(gram) + np.tril(np.full_like(gram, np.nan), -1)
    numerics.gram_product(poisoned, v, poisoned_out)()
    assert np.array_equal(out, poisoned_out)


@pytest.mark.parametrize("layout", ["matrix-v", "float32", "strided-v", "readonly-out",
                                    "short-out"])
def test_gram_product_takes_np_dot_off_dsymvs_layout(layout):
    # dsymv is handed raw addresses, so any other shape, type or layout goes to np.dot,
    # which also raises where the shapes do not fit
    gram, v = _symmetric_problem(6)
    out = np.empty(6)
    if layout == "matrix-v":
        v, out = np.stack([v, -v], axis=1), np.empty((6, 2))
    elif layout == "float32":
        gram = gram.astype(np.float32)
        v, out = v.astype(np.float32), out.astype(np.float32)
    elif layout == "strided-v":
        v = np.repeat(v, 2)[::2]
    elif layout == "readonly-out":
        out.flags.writeable = False
    elif layout == "short-out":
        out = np.empty(5)
    product = numerics.gram_product(gram, v, out)
    assert product.func is np.dot
    if layout in ("readonly-out", "short-out"):
        with pytest.raises(ValueError):
            product()
    else:
        product()
        assert np.array_equal(out, np.dot(gram, v))
