"""Deterministic RNG streams, normal CDF, orthonormal dictionaries, SVD helpers,
the BLAS thread split for parallel runs and the symmetric Gram product of GD.

Everything downstream builds on this module: all randomness flows through
counter-based :class:`RngStream` values so that a run is reproducible for a
fixed root seed no matter how work is scheduled across threads.
"""
from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

_MASK64 = (1 << 64) - 1

DICTIONARY_KINDS = ("identity-embed", "random-orthonormal")

# Singular values below RANK_CUTOFF_RATIO * largest are treated as numerically
# zero; noiseless enumerated data produces exactly low-rank covariances.
RANK_CUTOFF_RATIO = 1e-9


def _mix64(a: int, b: int) -> int:
    """Stable 64-bit mix (splitmix64 finalizer) for deriving stream ids."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RngStream:
    """A named, counter-based random stream.

    The same ``(root_seed, stream_id)`` always produces the identical draw
    sequence; distinct stream ids give statistically independent sequences
    (Philox keyed by both integers). Streams are values, not stateful
    generators: call :meth:`generator` to obtain a fresh ``numpy`` generator
    positioned at the start of the stream.
    """

    root_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.root_seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *tags: int) -> "RngStream":
        """Derive an independent substream from integer tags."""
        sid = self.stream_id
        for tag in tags:
            sid = _mix64(sid, tag)
        return RngStream(self.root_seed, sid)


def stream_id_for(cell_index: int, trial_index: int) -> int:
    """Stream id assigned to one (sweep cell, trial) pair."""
    return _mix64(cell_index, trial_index)


def phi_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-7 (erf based)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"phi_cdf requires finite input, got {x!r}")
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dictionary:
    """Orthonormal-column projection from latent space into a modality's input space."""

    matrix: np.ndarray  # shape (d, l), d >= l

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < m.shape[1]:
            raise DimensionError(f"dictionary must be d x l with d >= l, got {m.shape}")
        gram_err = np.abs(np.dot(m.T, m) - np.eye(m.shape[1])).max()
        if gram_err >= 1e-10:
            raise DimensionError(f"dictionary columns not orthonormal (max error {gram_err:.2e})")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.matrix.shape[1]


def make_dictionary(d: int, l: int, kind: str = "identity-embed",
                    rng: RngStream | None = None) -> Dictionary:
    """Build a d x l orthonormal dictionary.

    ``identity-embed`` takes the first ``l`` columns of the identity;
    ``random-orthonormal`` takes the Q factor of a standard Gaussian matrix
    (sign-fixed so the result is deterministic for a given stream).
    """
    if d < l or l < 1:
        raise DimensionError(f"need d >= l >= 1, got d={d}, l={l}")
    if kind == "identity-embed":
        return Dictionary(np.eye(d, l))
    if kind == "random-orthonormal":
        if rng is None:
            raise DomainError("random-orthonormal dictionary requires an RngStream")
        g = rng.generator()
        q, r = np.linalg.qr(g.standard_normal((d, l)))
        q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        return Dictionary(q)
    raise DomainError(f"unknown dictionary kind {kind!r}; expected one of {DICTIONARY_KINDS}")


def svd_top(matrix: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Best rank-p approximation of ``matrix`` in Frobenius norm, and its rank: how many
    of its p singular values exceed ``RANK_CUTOFF_RATIO`` times the largest."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not (1 <= p <= min(m.shape)):
        raise DimensionError(f"p={p} out of range for shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = RANK_CUTOFF_RATIO * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s[:p] > cutoff))
    # BLAS rounds by layout; the fits' bytes are those of a column-major right factor
    return np.dot(u[:, :p] * s[:p], np.asfortranarray(vt[:p])), rank


# (prefix, suffix, BLAS integer type) of each spelling that OpenBLAS builds export, in
# search order; the numpy wheels export scipy_openblas_set_num_threads64_, scipy_cblas_dsymv64_
_OPENBLAS_NAMES = (("scipy_", "64_", ctypes.c_int64), ("scipy_", "", ctypes.c_int),
                   ("", "", ctypes.c_int), ("", "64_", ctypes.c_int64))


def _blas_library():
    """numpy's linear-algebra extension as a ctypes.CDLL, whose calls release the GIL,
    or None. Its symbol search also covers the libraries it links, such as its BLAS."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


@functools.cache
def _openblas_threads():
    """(get, set) thread-count calls of the OpenBLAS that numpy loaded, or None
    when none is found (MKL, Accelerate, or a numpy built otherwise)."""
    lib = _blas_library()
    for prefix, suffix, _ in _OPENBLAS_NAMES if lib is not None else ():
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@functools.cache
def _openblas_symv():
    """cblas_dsymv of the OpenBLAS that numpy loaded, or None when none is found."""
    lib = _blas_library()
    for prefix, suffix, integer in _OPENBLAS_NAMES if lib is not None else ():
        symv = getattr(lib, f"{prefix}cblas_dsymv{suffix}", None)
        if symv is not None:
            symv.argtypes, symv.restype = [
                ctypes.c_int, ctypes.c_int, integer, ctypes.c_double, ctypes.c_void_p, integer,
                ctypes.c_void_p, integer, ctypes.c_double, ctypes.c_void_p, integer], None
            return symv
    return None


def gram_product(gram: np.ndarray, v: np.ndarray, out: np.ndarray):
    """A call that writes ``gram`` times ``v`` into ``out``. Where OpenBLAS's dsymv is
    found and the three are an n x n matrix and two n-vectors, C-contiguous float64 and
    ``out`` writable, it reads the upper triangle of ``gram`` only, half its bytes, so
    ``gram`` must be symmetric; otherwise it is ``np.dot(gram, v, out)``."""
    n = len(v)
    fits = (gram.shape == (n, n) and v.shape == out.shape == (n,) and out.flags.writeable
            and all(a.dtype == np.float64 and a.flags.c_contiguous for a in (gram, v, out)))
    if (symv := _openblas_symv() if fits else None) is None:
        return functools.partial(np.dot, gram, v, out)
    product = functools.partial(symv, 101, 121, n, 1.0, gram.ctypes.data, max(n, 1),
                                v.ctypes.data, 1, 0.0, out.ctypes.data, 1)  # row-major, upper
    product.arrays = (gram, v, out)        # alive while their addresses are bound
    return product


@contextmanager
def blas_threads_per_worker(workers: int):
    """Split the BLAS thread count across ``workers`` concurrent callers.

    Inside the block BLAS runs ``max(1, threads // workers)`` threads per call,
    so a pool of workers does not oversubscribe the cores with BLAS threads of
    its own; the previous count is restored on exit, also when the block
    raises. Yields the per-worker count, or None when ``workers`` is 1 (BLAS
    is then the only parallelism and keeps its default) or when BLAS cannot be
    controlled. The count is process-wide: do not nest or overlap blocks
    from different threads.
    """
    calls = _openblas_threads() if workers > 1 else None
    if calls is None:
        yield None
        return
    get, put = calls
    before = get()
    per_worker = max(1, before // workers)
    put(per_worker)
    try:
        yield per_worker
    finally:
        put(before)
