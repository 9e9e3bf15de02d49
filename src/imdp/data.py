"""Dataset ingestion and synthesis.

Two sources: IDX-format image files (big-endian, the classic handwritten
digit layout) rescaled to [-1, 1], and synthetic ring-of-Gaussians
mixtures for fast trend experiments.  Batches are drawn uniformly with
replacement so the per-batch inclusion probability matches the sampling
ratio used by the privacy accounting.

IDX images stay bytes: the header and the file size are checked before
anything is mapped, then the pixels are a ``uint8 (N, rows*cols)`` view
of a read-only map of the file.  Pages load on first touch and are shared
with other processes through the page cache.  So a loaded dataset is a
view of its file: replacing the file by rename is safe, but rewriting or
truncating it in place during a run is unsupported.  A ``Dataset`` from
an IDX file holds an ``IdxFeatures`` view of the pixels, which has the
float64 matrix's shape, ndim and dtype and decodes only the rows it is
indexed with, as ``pixels / 127.5 - 1.0``.  On all 256 byte values that
is bit-identical to ``pixels.astype(np.float64) / 255.0 * 2.0 - 1.0``
and finite in [-1, 1], so the view skips ``Dataset``'s finiteness and
range scans, as do the evaluate command's row selections and label
attachment of an already validated ``Dataset``.  Memory is the rows a
caller selects; ``np.asarray`` on the view decodes the whole matrix.
"""
from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# Caps on the mixture descriptor's sizes, checked before anything is built.
MIXTURE_MAX_K = 10_000
MIXTURE_MAX_N = 10_000_000


class DataFormatError(ValueError):
    """Malformed IDX payload or invalid synthesis parameters."""


class IdxFeatures(np.lib.mixins.NDArrayOperatorsMixin):
    """Read-only IDX pixels seen as the [-1, 1] float64 feature matrix.

    ``x[idx]`` decodes only the selected pixels; arithmetic, ufuncs and
    ``np.asarray`` decode all of them.
    """

    dtype = np.dtype(np.float64)
    ndim = 2

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels
        self.shape = pixels.shape

    def __getitem__(self, idx):
        out = np.divide(self.pixels[idx], 127.5)
        out -= 1.0
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("IDX features are decoded on read; a copy cannot be avoided")
        x = self[...]
        return x if dtype is None else x.astype(dtype, copy=False)


@dataclass
class Dataset:
    """Feature matrix in [-1, 1] with optional integer labels."""

    x: np.ndarray | IdxFeatures
    y: np.ndarray | None = None
    source: str = "unknown"

    def __post_init__(self):
        self.x = as_tensor(self.x, where="dataset features")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
        self._check_shapes()
        if self.x.min() < -1.0 or self.x.max() > 1.0:
            raise ValueError("features must lie in [-1, 1]")

    def _check_shapes(self) -> None:
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ValueError("features must be a non-empty (N, d) matrix")
        if self.y is not None and self.y.shape != (self.x.shape[0],):
            raise ValueError("labels must have one entry per row")

    @classmethod
    def _trusted(cls, x, y=None, source: str = "unknown") -> "Dataset":
        """Wrap features that are valid by construction, skipping the scans.

        Only for ``IdxFeatures`` or a float64 C-contiguous (N, d) matrix
        already finite and in [-1, 1], with int64 labels or None: rows of a
        validated ``Dataset``.  The O(1) shape checks still run, so an empty
        row selection is rejected as ``Dataset(...)`` rejects it.
        """
        ds = object.__new__(cls)
        ds.x, ds.y, ds.source = x, y, source
        ds._check_shapes()
        return ds

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _read_be_u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise DataFormatError("truncated IDX header")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx_images(path) -> Dataset:
    """Parse an IDX image file into flattened, rescaled features over a read-only map of it."""
    with open(path, "rb") as f:
        head = f.read(16)
        magic = _read_be_u32(head, 0)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(f"bad IDX image magic 0x{magic:08x}")
        n = _read_be_u32(head, 4)
        rows = _read_be_u32(head, 8)
        cols = _read_be_u32(head, 12)
        if n < 1 or rows < 1 or cols < 1 or rows * cols > 1 << 24:
            raise DataFormatError(f"implausible IDX dimensions ({n}, {rows}, {cols})")
        total = n * rows * cols
        size = os.fstat(f.fileno()).st_size
        if size != 16 + total:
            raise DataFormatError(f"IDX payload holds {size - 16} bytes, expected {total}")
        # the array keeps the read-only map alive; it outlives the file object
        pixels = np.frombuffer(mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ),
                               dtype=np.uint8, count=total, offset=16)
    return Dataset._trusted(IdxFeatures(pixels.reshape(n, rows * cols)), source=f"idx:{path}")


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an integer array."""
    with open(path, "rb") as f:
        data = f.read()
    magic = _read_be_u32(data, 0)
    if magic != IDX_LABEL_MAGIC:
        raise DataFormatError(f"bad IDX label magic 0x{magic:08x}")
    n = _read_be_u32(data, 4)
    if len(data) != 8 + n:
        raise DataFormatError(f"IDX label payload holds {len(data) - 8} bytes, expected {n}")
    return np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)


def bytes_from_features(x: np.ndarray) -> np.ndarray:
    """Inverse of the ingest rescale; identity on byte-derived features."""
    return np.clip(np.rint((np.asarray(x) + 1.0) / 2.0 * 255.0), 0, 255).astype(np.uint8)


def synth_mixture(k: int, radius: float, std: float, n: int, seed: int) -> Dataset:
    """Ring of k equal-weight Gaussians, stratified n/k points per component.

    Coordinates are scaled so radius + 3*std maps to 1, then clamped to
    [-1, 1]; labels record the component index.
    """
    if not 2 <= k <= MIXTURE_MAX_K:
        raise DataFormatError(f"k must be in [2, {MIXTURE_MAX_K}]")
    if not k <= n <= MIXTURE_MAX_N:
        raise DataFormatError(f"n must be in [k, {MIXTURE_MAX_N}]")
    if seed < 0:
        raise DataFormatError("seed must be >= 0")
    # finite, and the rescale 1 / (radius + 3 std) neither overflows nor
    # reaches 0, so no feature can come out NaN
    if not (0.0 < radius < math.inf and 0.0 <= std < math.inf
            and 0.0 < 1.0 / (radius + 3.0 * std) < math.inf):
        raise DataFormatError("radius must be positive and std non-negative, "
                              "both finite with finite 1 / (radius + 3 std)")
    rng = np.random.default_rng(seed)
    counts = [n // k + (1 if j < n % k else 0) for j in range(k)]
    angles = 2.0 * np.pi * np.arange(k) / k
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    xs = [means[j] + std * rng.standard_normal((counts[j], 2)) for j in range(k)]
    scale = 1.0 / (radius + 3.0 * std)
    x = np.clip(np.concatenate(xs) * scale, -1.0, 1.0)
    return Dataset(x=x, y=np.repeat(np.arange(k, dtype=np.int64), counts),
                   source=f"mixture:k={k},radius={radius},std={std},n={n},seed={seed}")


def batch_iter(ds: Dataset, m: int, seed: int):
    """Endless batches of m rows drawn uniformly with replacement."""
    if m < 1 or m > ds.n:
        raise ValueError(f"batch size {m} out of range for {ds.n} rows")

    def gen():
        rng = np.random.default_rng(seed)
        while True:
            idx = rng.integers(0, ds.n, size=m)
            yield ds.x[idx]

    return gen()
