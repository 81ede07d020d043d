"""Dataset ingestion and synthesis.

Supports the IDX image/label format (big-endian), CIFAR-10 binary batches
(1 label byte + 3072 pixel bytes per record), contiguous class collapsing
10 -> {5, 2}, and synthetic Gaussian-blob datasets for desk-scale runs.
Pixel values are scaled to [0, 1]; no mean centering.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from pbcert.rng import rng_for

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
CIFAR_CLASSES = 10
COLLAPSE_SIZES = (2, 5)     # class counts that 10 classes collapse to


class DataFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray        # (n, d) float64
    y: np.ndarray        # (n,) int64 in [0, k)
    k: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataFormatError(f"inconsistent shapes X {X.shape}, y {y.shape}")
        if X.shape[0] == 0:
            raise DataFormatError("empty dataset")
        # nan and +-inf carry through min and max, so no n x d mask is made
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise DataFormatError("non-finite inputs")
        if np.any(y < 0) or np.any(y >= self.k):
            raise DataFormatError(f"labels outside [0, {self.k})")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _read_exact(f, count: int, what: str) -> bytes:
    """`count` bytes of `f`; a count beyond the bytes left in the file is
    refused unread, so a header that overstates its data reserves nothing."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    buf = f.read(count) if count <= left else b""
    if len(buf) != count:
        raise DataFormatError(f"truncated file while reading {what} of "
                              f"{f.name}: {count} bytes needed, {left} left")
    return buf


def _check_at_end(f, path) -> None:
    if f.read(1):
        raise DataFormatError(f"trailing bytes after the payload of {path}")


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled by 1/255."""
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(f"bad image magic 0x{magic:08x} in {images_path}")
        for what, value in (("image count", n), ("rows", rows),
                            ("cols", cols)):
            if value < 1:
                raise DataFormatError(f"{what} {value} in {images_path}; "
                                      f"need at least 1")
        pixels = _read_exact(f, n * rows * cols, "image data")
        _check_at_end(f, images_path)
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">ii", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(f"bad label magic 0x{magic:08x} in {labels_path}")
        if n_labels < 1:
            raise DataFormatError(f"label count {n_labels} in {labels_path}; "
                                  f"need at least 1")
        labels = _read_exact(f, n_labels, "label data")
        _check_at_end(f, labels_path)
    if n != n_labels:
        raise DataFormatError(f"image count {n} != label count {n_labels}")
    X = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    y = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    return Dataset(X=X, y=y, k=int(y.max()) + 1)


def load_cifar_bin(batch_paths) -> Dataset:
    """Load one or more CIFAR-10 binary batches into flat 3072-dim rows."""
    xs, ys = [], []
    for path in batch_paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: length {len(raw)} not a positive multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        ys.append(records[:, 0].astype(np.int64))
        xs.append(records[:, 1:] / 255.0)
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    return Dataset(X=X, y=y, k=CIFAR_CLASSES)


def collapse_classes(dataset: Dataset, k_new: int) -> Dataset:
    """Merge 10 classes into contiguous aggregates: floor(y/5) or floor(y/2)."""
    if dataset.k != 10:
        raise ValueError(f"collapse requires 10 classes, dataset has {dataset.k}")
    if k_new not in COLLAPSE_SIZES:
        raise ValueError(f"k_new must be one of {COLLAPSE_SIZES}, got {k_new}")
    divisor = 10 // k_new
    return replace(dataset, y=dataset.y // divisor, k=k_new)


def synthetic_blobs(n: int, d: int, k: int, separation: float, seed: int,
                    split: str = "train") -> Dataset:
    """k unit-variance Gaussian clusters whose means sit at distance
    `separation` from the origin along random unit directions."""
    if n <= 0 or d <= 0 or k <= 0:
        raise ValueError("n, d, k must be positive")
    # cluster means are shared across splits; only the samples differ
    mean_rng = rng_for(seed, "blobs", "means")
    rng = rng_for(seed, "blobs", split)
    directions = mean_rng.standard_normal((k, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    y = rng.integers(0, k, size=n)
    X = means[y] + rng.standard_normal((n, d))
    return Dataset(X=X, y=y, k=k)
