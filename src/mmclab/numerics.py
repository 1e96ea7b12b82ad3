"""Deterministic RNG streams, normal CDF, orthonormal dictionaries, SVD helpers
and the BLAS thread split for parallel runs.

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
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
        gram_err = np.abs(m.T @ m - np.eye(m.shape[1])).max()
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


@dataclass(frozen=True)
class SvdTop:
    """Top-p singular triplets of a matrix, values descending.

    ``rank`` counts the retained values above ``RANK_CUTOFF_RATIO * values[0]``;
    values below that are numerically zero and flagged by ``rank < p``.
    """

    values: np.ndarray   # (p,)
    left: np.ndarray     # (d_rows, p)
    right: np.ndarray    # (d_cols, p)
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.values) @ self.right.T


def svd_top(matrix: np.ndarray, p: int) -> SvdTop:
    """Best rank-p factorization of ``matrix`` in Frobenius norm."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not (1 <= p <= min(m.shape)):
        raise DimensionError(f"p={p} out of range for shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = RANK_CUTOFF_RATIO * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s[:p] > cutoff))
    return SvdTop(values=_readonly(s[:p]), left=_readonly(u[:, :p]),
                  right=_readonly(vt[:p].T), rank=rank)


# (prefix, suffix) of the thread-count calls that OpenBLAS builds export, e.g.
# scipy_openblas_set_num_threads64_ in the numpy wheels
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                   ("openblas", ""), ("openblas", "64_"))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count calls of the OpenBLAS that numpy loaded, or None
    when none is found (MKL, Accelerate, or a numpy built otherwise). The calls
    are looked up through numpy's linear-algebra extension, whose symbol search
    also covers the libraries it links, such as its BLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in _OPENBLAS_NAMES:
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


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
