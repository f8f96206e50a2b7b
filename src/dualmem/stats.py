"""Streaming moment estimation, whitening and the closed-form linear discriminant.

The background class is summarized by a mean/covariance accumulator that folds
in batches through the pairwise merge of Chan, Golub and LeVeque. With a shared
covariance L L^T, a slot's discriminant w.f + b equals m.z - |m|^2 / 2 + log(n / N)
for z = L^-1 (f - mean_bg) and m the slot's whitened mean (Hariharan, Malik and
Ramanan, ECCV 2012). Semantic memory and consolidation score in that form, so
a run needs no solve per slot; ``train_lda``, the closed form itself, derives a
slot's classifier on request and is the tests' oracle. ``bg.bin``, the background's
binary layout, is read and written here, and a checkpoint names it by its sha256.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

BG_MAGIC = b"DMBG"


class InsufficientSamplesError(ValueError):
    """Background statistics need at least two samples."""


class MomentAccumulator:
    """Mergeable mean and centered second-moment sums over d-vectors.

    ``m2`` holds sum_i (x_i - mean)(x_i - mean)^T; dividing by the count gives
    the population covariance. ``add`` and ``add_batch`` fold their samples in
    through ``merge``, the one update rule.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.count = 0
        self.mean = np.zeros(d)
        self.m2 = np.zeros((d, d))

    def add(self, x: np.ndarray) -> "MomentAccumulator":
        return self.add_batch(np.asarray(x, dtype=np.float64)[np.newaxis])

    def add_batch(self, xs: np.ndarray) -> "MomentAccumulator":
        """Fold in the rows of ``xs``: two-pass batch moments, then a merge."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"samples have shape {xs.shape}, expected (n, {self.d})")
        if not np.all(np.isfinite(xs)):
            raise ValueError("samples contain non-finite values")
        if len(xs) == 0:
            return self
        batch = MomentAccumulator(self.d)
        batch.count = len(xs)
        batch.mean = xs.mean(axis=0)
        centered = xs - batch.mean
        batch.m2 = centered.T @ centered
        merged = self.merge(batch)
        self.count, self.mean, self.m2 = merged.count, merged.mean, merged.m2
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combine two accumulators as if their samples were seen sequentially."""
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
        merged = MomentAccumulator(self.d)
        if self.count == 0:
            merged.count = other.count
            merged.mean = other.mean.copy()
            merged.m2 = other.m2.copy()
            return merged
        if other.count == 0:
            merged.count = self.count
            merged.mean = self.mean.copy()
            merged.m2 = self.m2.copy()
            return merged
        total = self.count + other.count
        delta = other.mean - self.mean
        merged.count = total
        merged.mean = self.mean + delta * (other.count / total)
        merged.m2 = self.m2 + other.m2 + np.outer(delta, delta) * (self.count * other.count / total)
        return merged


@dataclass
class LinearClassifier:
    """A plain linear scorer: weights . f + bias."""

    weights: np.ndarray
    bias: float

    def score(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != self.weights.shape:
            raise ValueError(f"feature has shape {f.shape}, expected {self.weights.shape}")
        return float(self.weights @ f + self.bias)


@dataclass
class BackgroundStats:
    """Shared negative-class moments plus the factored covariance used for solves."""

    mean: np.ndarray
    covariance: np.ndarray
    count: int
    chol_lower: np.ndarray

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_moments(cls, mean: np.ndarray, covariance: np.ndarray, count: int) -> "BackgroundStats":
        mean = np.asarray(mean, dtype=np.float64)
        covariance = np.asarray(covariance, dtype=np.float64)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(covariance))):
            raise ValueError("background mean and covariance must be finite")
        if count < 1:
            raise ValueError(f"background sample count must be positive, got {count}")
        try:
            chol = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "covariance is not positive definite; increase ridge_lambda"
            ) from exc
        return cls(mean=mean, covariance=covariance, count=int(count), chol_lower=chol)

    def to_bytes(self) -> bytes:
        """``bg.bin``: magic and d, then mean, covariance and count, little-endian."""
        moments = self.mean.astype("<f8").tobytes() + np.ascontiguousarray(self.covariance, dtype="<f8").tobytes()
        return struct.pack("<4sI", BG_MAGIC, self.d) + moments + struct.pack("<Q", self.count)

    @cached_property
    def digest(self) -> bytes:
        """The sha256 of :meth:`to_bytes`, hashed once: a checkpoint names its background by it."""
        return hashlib.sha256(self.to_bytes()).digest()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "BackgroundStats":
        """The statistics a file holds; every error is a ValueError that starts with the file name."""
        with open(path, "rb") as fh:
            magic, d = struct.unpack("<4sI", _read_exact(fh, 8, "header"))
            if magic != BG_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r} in background stats file")
            mean = _read_floats(fh, d, "mean")
            covariance = _read_floats(fh, d * d, "covariance").reshape(d, d)
            (count,) = struct.unpack("<Q", _read_exact(fh, 8, "sample count"))
            try:
                bg = cls.from_moments(mean, covariance, count)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            _expect_end(fh)
        return bg


def _read_exact(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of ``fh``; a short file is a ValueError naming the file and offset.

    The request is checked against the bytes left in the file before anything
    is read, so a corrupt length field cannot ask for more memory than the file holds.
    """
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if n > left:
        raise ValueError(f"{fh.name}: truncated at byte {offset}: {what} needs {n} bytes, got {left}")
    return fh.read(n)


def _expect_end(fh) -> None:
    """A file with bytes after its last field is a ValueError naming the file and both sizes."""
    offset = fh.tell()
    size = os.fstat(fh.fileno()).st_size
    if size != offset:
        raise ValueError(
            f"{fh.name}: {size - offset} trailing bytes: expected {offset} bytes, got {size}"
        )


def _read_floats(fh, n: int, what: str) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, 8 * n, what), dtype="<f8").copy()


def finalize_background(acc: MomentAccumulator, ridge_lambda: float) -> BackgroundStats:
    """Population-normalized covariance with a ridge floor, Cholesky-factored."""
    if acc.count < 2:
        raise InsufficientSamplesError(
            f"background estimation needs >= 2 samples, got {acc.count}"
        )
    sigma = acc.m2 / acc.count  # m2 is exactly symmetric, so sigma is too
    sigma[np.diag_indices_from(sigma)] += ridge_lambda
    return BackgroundStats.from_moments(acc.mean.copy(), sigma, acc.count)


def flapack():
    """scipy's LAPACK extension module, loaded without importing the ``scipy.linalg`` package.

    Importing the package loads some 330 modules (array-API shims, ``numpy.f2py``, ``numpy.testing`` ...) where
    whitening needs one routine of this one extension. The module is found where ``import scipy.linalg._flapack``
    would find it and registered under that name, so a later ``import scipy.linalg`` reuses this module object.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [linalg])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def whiten(feats: np.ndarray, bg: BackgroundStats) -> np.ndarray:
    """``L^-1 (f - mean_bg)`` for a checked (finite) d-vector, or every row of an (n, d) matrix at once.

    The solve is the ``dtrtrs`` call, with the same arguments, that ``scipy.linalg.solve_triangular(L, b, lower=True)``
    makes, so the bits are scipy's.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim not in (1, 2) or feats.shape[-1] != bg.d:
        raise ValueError(f"feature has shape {feats.shape}, expected ({bg.d},) or (n, {bg.d})")
    if not np.all(np.isfinite(feats)):
        raise ValueError("feature contains non-finite values")
    centered = (feats - bg.mean).T
    lower = bg.chol_lower
    if lower.flags.f_contiguous:
        x, info = flapack().dtrtrs(lower, centered, overwrite_b=True, lower=True, trans=0, unitdiag=False)
    else:  # dtrtrs reads Fortran order, so a C-ordered L arrives as the upper factor L^T, solved transposed
        x, info = flapack().dtrtrs(lower.T, centered, overwrite_b=True, lower=False, trans=True, unitdiag=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x.T


def train_lda(mean_pos: np.ndarray, count_pos: int, bg: BackgroundStats) -> LinearClassifier:
    """Closed-form two-class discriminant of a slot against the shared background.

    weights solve covariance . w = (mean_pos - mean_neg) through the cached
    factor; the bias folds in the log prior ratio and the midpoint term.
    """
    mean_pos = np.asarray(mean_pos, dtype=np.float64)
    if mean_pos.shape != bg.mean.shape:
        raise ValueError(f"mean has shape {mean_pos.shape}, expected {bg.mean.shape}")
    if count_pos < 1:
        raise ValueError("positive count must be >= 1")
    from scipy.linalg import cho_solve
    diff = mean_pos - bg.mean
    w = cho_solve((bg.chol_lower, True), diff, check_finite=False)
    b = float(np.log(count_pos / bg.count) - 0.5 * (w @ (mean_pos + bg.mean)))
    return LinearClassifier(weights=w, bias=b)
