import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdp.data import (MIXTURE_MAX_K, MIXTURE_MAX_N, DataFormatError, Dataset,
                       IdxFeatures, batch_iter, bytes_from_features, load_idx_images,
                       load_idx_labels, synth_mixture)
from imdp.evaluation import dataset_sha256

# Deterministic examples and no example database written to the tree.
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def write_idx_images(path, images):
    """Independent writer following the published IDX layout."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(int(v) for v in labels))


class TestIdxImages:
    def test_header_and_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        ds = load_idx_images(path)
        assert ds.x.shape == (10, 12)
        np.testing.assert_allclose(ds.x, imgs.reshape(10, 12) / 255.0 * 2.0 - 1.0)

    def test_rescale_endpoints(self, tmp_path):
        imgs = np.array([[[0, 255]]], dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        ds = load_idx_images(path)
        assert ds.x[0, 0] == -1.0
        assert ds.x[0, 1] == 1.0

    def test_byte_round_trip_is_identity(self, tmp_path):
        imgs = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        ds = load_idx_images(path)
        np.testing.assert_array_equal(bytes_from_features(ds.x).ravel(), imgs.ravel())

    def test_label_magic_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, [1, 2, 3])
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx_images(path, np.zeros((4, 3, 3), dtype=np.uint8))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError, match="holds 31 bytes, expected 36"):
            load_idx_images(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "images.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 1, 1 << 16, 1 << 16))
        with pytest.raises(DataFormatError):
            load_idx_images(path)


def whole_array_decode(imgs: np.ndarray) -> np.ndarray:
    return imgs.reshape(imgs.shape[0], -1).astype(np.float64) / 255.0 * 2.0 - 1.0


class TestIdxDecode:
    def test_every_byte_value_decodes_exactly_and_in_range(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx_images(path, np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
        x = np.asarray(load_idx_images(path).x).ravel()
        want = np.array([np.float64(b) / 255.0 * 2.0 - 1.0 for b in range(256)])
        assert x.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert x.min() == -1.0 and x.max() == 1.0

    def test_full_decode_matches_whole_array_decode(self, tmp_path):
        n = 37
        imgs = np.random.default_rng(15).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        x = np.asarray(load_idx_images(path).x)
        want = whole_array_decode(imgs)
        assert x.shape == want.shape and x.flags.c_contiguous
        assert x.tobytes() == want.tobytes()

    def test_view_reads_like_the_float64_matrix(self, tmp_path):
        imgs = np.random.default_rng(18).integers(0, 256, size=(9, 3, 4), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        x = load_idx_images(path).x
        want = whole_array_decode(imgs)
        assert isinstance(x, IdxFeatures)
        assert (x.shape, x.ndim, x.dtype) == (want.shape, want.ndim, want.dtype)
        rows = np.array([8, 0, 8, 3])
        for key in (rows, slice(2, 7), (1, 5), (slice(None), 11), Ellipsis):
            assert np.asarray(x[key]).tobytes() == np.asarray(want[key]).tobytes()
        assert (x + 1.0).tobytes() == (want + 1.0).tobytes()
        assert np.array_equal(np.tanh(x), np.tanh(want))
        with pytest.raises(ValueError):
            x.pixels[0, 0] = 1  # the bytes are read-only
        with pytest.raises(ValueError):
            x.pixels.flags.writeable = True  # and cannot be made writeable
        with pytest.raises(ValueError):
            np.asarray(x, copy=False)

    def test_batch_rows_match_whole_array_decode(self, tmp_path):
        imgs = np.random.default_rng(19).integers(0, 256, size=(50, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        want = whole_array_decode(imgs)
        batches = batch_iter(load_idx_images(path), 16, seed=5)
        rng = np.random.default_rng(5)  # batch_iter's row draws
        for _ in range(4):
            batch = next(batches)
            assert batch.dtype == np.float64 and batch.flags.c_contiguous
            assert batch.tobytes() == want[rng.integers(0, 50, size=16)].tobytes()

    def test_peak_memory_is_independent_of_file_size(self, tmp_path):
        n = 6400  # a 5.0 MB payload
        imgs = np.random.default_rng(16).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        tracemalloc.start()
        try:
            ds = load_idx_images(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the pixels are a map of the file, not a heap copy; 64 KiB covers
        # the file object's read buffer and interpreter objects
        assert peak <= 64 * 1024
        assert ds.x.pixels.tobytes() == imgs.tobytes()

    def test_rows_survive_replacing_the_file_by_rename(self, tmp_path):
        imgs = np.random.default_rng(22).integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        x = load_idx_images(path).x
        write_idx_images(tmp_path / "next.idx", 255 - imgs)
        os.replace(tmp_path / "next.idx", path)
        assert np.asarray(x).tobytes() == whole_array_decode(imgs).tobytes()
        assert load_idx_images(path).x.pixels.tobytes() == (255 - imgs).tobytes()

    def test_dataset_sha256_streams_row_blocks(self, tmp_path):
        n = 3000  # 167 rows per block: 17 full blocks and a ragged tail
        imgs = np.random.default_rng(20).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = np.random.default_rng(21).integers(0, 10, size=n)
        path = tmp_path / "images.idx"
        write_idx_images(path, imgs)
        want = hashlib.sha256(whole_array_decode(imgs).tobytes())
        want.update(labels.astype(np.int64).tobytes())
        del imgs
        ds = Dataset._trusted(load_idx_images(path).x, labels.astype(np.int64))
        tracemalloc.start()
        try:
            got = dataset_sha256(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want.hexdigest()
        # one decoded block of 1 MiB plus numpy's 64 KiB cast buffer; the
        # whole decode would be n * 784 * 8 bytes, 18.8 MB
        assert peak <= (1 << 20) + 128 * 1024

    def test_huge_row_count_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "images.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2**32 - 1, 4, 4) + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="holds 16 bytes"):
                load_idx_images(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + b"\x00\x07")
        with pytest.raises(DataFormatError, match="holds 20 bytes, expected 18"):
            load_idx_images(path)


def _image_file(n: int, rows: int, cols: int, pixels: bytes) -> bytes:
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels


@st.composite
def valid_image_files(draw):
    n, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = n * rows * cols
    return _image_file(n, rows, cols, draw(st.binary(min_size=size, max_size=size)))


@st.composite
def valid_label_files(draw):
    labels = draw(st.binary(min_size=1, max_size=12))
    return struct.pack(">II", 0x00000801, len(labels)) + labels


def _flip(blob: bytes, bit: int) -> bytes:
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@pytest.fixture(scope="module")
def idx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("idx") / "payload.idx"


class TestIdxParsersProperties:
    """Malformed files raise DataFormatError and nothing else: no IndexError,
    struct.error, MemoryError or numpy ValueError escapes either parser."""

    @staticmethod
    def load_or_reject(loader, path, blob: bytes):
        path.write_bytes(blob)
        try:
            return loader(path)
        except DataFormatError:
            return None

    @PROPERTY
    @given(blob=valid_image_files(), cut=st.integers(min_value=0))
    def test_truncated_images(self, idx_path, blob, cut):
        idx_path.write_bytes(blob[:cut % len(blob)])
        with pytest.raises(DataFormatError):
            load_idx_images(idx_path)

    @PROPERTY
    @given(blob=valid_label_files(), cut=st.integers(min_value=0))
    def test_truncated_labels(self, idx_path, blob, cut):
        idx_path.write_bytes(blob[:cut % len(blob)])
        with pytest.raises(DataFormatError):
            load_idx_labels(idx_path)

    @PROPERTY
    @given(blob=valid_image_files(), bit=st.integers(min_value=0))
    def test_bit_flipped_images(self, idx_path, blob, bit):
        bit %= 8 * len(blob)
        flipped = _flip(blob, bit)
        ds = self.load_or_reject(load_idx_images, idx_path, flipped)
        if bit >= 8 * 16:  # a flip in the payload leaves a valid file
            pixels = np.frombuffer(flipped, dtype=np.uint8, offset=16)
            x = np.asarray(ds.x)
            assert x.tobytes() == (pixels.astype(np.float64) / 255.0 * 2.0 - 1.0).tobytes()

    @PROPERTY
    @given(blob=valid_label_files(), bit=st.integers(min_value=0))
    def test_bit_flipped_labels(self, idx_path, blob, bit):
        bit %= 8 * len(blob)
        flipped = _flip(blob, bit)
        labels = self.load_or_reject(load_idx_labels, idx_path, flipped)
        if bit >= 8 * 8:
            np.testing.assert_array_equal(labels, list(flipped[8:]))

    @PROPERTY
    @given(blob=st.one_of(
        st.binary(max_size=48),
        st.binary(max_size=48).map(lambda b: struct.pack(">I", 0x00000803) + b),
        st.builds(_image_file, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                  st.integers(0, 2**32 - 1), st.binary(max_size=32))))
    def test_random_image_files(self, idx_path, blob):
        self.load_or_reject(load_idx_images, idx_path, blob)

    @PROPERTY
    @given(blob=st.one_of(
        st.binary(max_size=24),
        st.builds(lambda n, b: struct.pack(">II", 0x00000801, n) + b,
                  st.integers(0, 2**32 - 1), st.binary(max_size=16))))
    def test_random_label_files(self, idx_path, blob):
        self.load_or_reject(load_idx_labels, idx_path, blob)


class TestIdxLabels:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, [7, 0, 9, 3])
        labels = load_idx_labels(path)
        np.testing.assert_array_equal(labels, [7, 0, 9, 3])
        assert labels[0] == 7

    def test_image_magic_rejected(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_labels(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 10))
            f.write(b"\x01\x02")
        with pytest.raises(DataFormatError):
            load_idx_labels(path)


class TestSynthMixture:
    def test_stratified_counts_exact(self):
        ds = synth_mixture(k=8, radius=0.75, std=0.05, n=8000, seed=0)
        counts = np.bincount(ds.y)
        np.testing.assert_array_equal(counts, np.full(8, 1000))

    def test_zero_std_collapses_to_means(self):
        ds = synth_mixture(k=4, radius=0.5, std=0.0, n=40, seed=1)
        for j in range(4):
            pts = ds.x[ds.y == j]
            assert np.unique(pts, axis=0).shape[0] == 1

    def test_component_means_close_to_truth(self):
        k, n, std, radius = 8, 80000, 0.05, 0.75
        ds = synth_mixture(k=k, radius=radius, std=std, n=n, seed=2)
        scale = 1.0 / (radius + 3 * std)
        angles = 2 * np.pi * np.arange(k) / k
        means = radius * scale * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        tol = 3 * std * scale / np.sqrt(n / k)
        for j in range(k):
            got = ds.x[ds.y == j].mean(axis=0)
            assert np.abs(got - means[j]).max() < tol * 1.5

    def test_features_in_range(self):
        ds = synth_mixture(k=3, radius=0.9, std=0.3, n=3000, seed=3)
        assert ds.x.min() >= -1.0 and ds.x.max() <= 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(k=1, radius=0.5, std=0.1, n=10, seed=0),
        dict(k=4, radius=0.5, std=0.1, n=3, seed=0),
        dict(k=4, radius=0.0, std=0.1, n=10, seed=0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DataFormatError):
            synth_mixture(**kwargs)

    @pytest.mark.parametrize("radius, std", [
        (float("nan"), 0.1), (float("inf"), 0.1), (0.5, float("nan")), (0.5, float("inf")),
        (0.5, -0.1), (1e308, 1e308), (5e-324, 0.0),
    ], ids=["radius-nan", "radius-inf", "std-nan", "std-inf", "std-negative",
            "rescale-underflows", "rescale-overflows"])
    def test_rejects_parameters_that_give_non_finite_features(self, radius, std):
        with pytest.raises(DataFormatError, match="radius"):
            synth_mixture(k=4, radius=radius, std=std, n=10, seed=0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(k=MIXTURE_MAX_K + 1, n=MIXTURE_MAX_N), "k must be"),
        (dict(k=4, n=MIXTURE_MAX_N + 1), "n must be"),
        (dict(k=99999999999, n=99999999999), "k must be"),
        (dict(k=4, n=10, seed=-1), "seed"),
    ])
    def test_sizes_are_capped_before_anything_is_built(self, kwargs, match):
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=match):
                synth_mixture(**{"radius": 0.75, "std": 0.05, "seed": 0, **kwargs})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_largest_sizes_are_accepted(self):
        ds = synth_mixture(k=MIXTURE_MAX_K, radius=0.75, std=0.05, n=2 * MIXTURE_MAX_K, seed=0)
        assert ds.n == 2 * MIXTURE_MAX_K and np.bincount(ds.y).tolist() == [2] * MIXTURE_MAX_K


class TestBatchIter:
    def test_single_row_dataset(self):
        ds = Dataset(x=np.array([[0.5, -0.5]]))
        batches = batch_iter(ds, 1, seed=0)
        for _ in range(3):
            np.testing.assert_array_equal(next(batches), [[0.5, -0.5]])

    def test_deterministic_sequence(self):
        ds = synth_mixture(k=4, radius=0.75, std=0.05, n=640, seed=10)
        a = batch_iter(ds, 64, seed=11)
        b = batch_iter(ds, 64, seed=11)
        for _ in range(5):
            np.testing.assert_array_equal(next(a), next(b))

    def test_inclusion_frequency_matches_sampling_ratio(self):
        n, m, trials = 640, 64, 10000
        ds = Dataset(x=np.linspace(-1, 1, n).reshape(n, 1))
        batches = batch_iter(ds, m, seed=12)
        hits = np.zeros(n)
        lookup = {float(v): i for i, v in enumerate(ds.x[:, 0])}
        for _ in range(trials):
            batch = next(batches)
            rows = {lookup[float(v)] for v in batch[:, 0]}
            for r in rows:
                hits[r] += 1
        q_hat = hits / trials
        # with replacement: P(row included) = 1 - (1 - 1/n)^m ~ 0.0952 for m/n = 0.1
        want = 1.0 - (1.0 - 1.0 / n) ** m
        assert abs(q_hat.mean() - want) < 0.002
        assert np.abs(q_hat - want).max() < 0.015

    def test_oversized_batch_rejected(self):
        ds = Dataset(x=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            batch_iter(ds, 5, seed=0)


class TestTrustedDataset:
    def test_subset_rows_come_from_the_validated_dataset(self):
        ds = synth_mixture(k=4, radius=0.75, std=0.05, n=400, seed=17)
        rows = np.random.default_rng(0).permutation(np.flatnonzero(np.isin(ds.y, (0, 2))))[:10]
        sub = Dataset._trusted(ds.x[rows], ds.y[rows], source=f"{ds.source}|subset")
        assert sub.x.dtype == np.float64 and sub.x.flags.c_contiguous
        assert sub.y.dtype == np.int64
        for row, label in zip(sub.x, sub.y):
            hits = np.flatnonzero((ds.x == row).all(axis=1))
            assert hits.size and (ds.y[hits] == label).all()

    def test_shape_checks_still_run(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset._trusted(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="one entry per row"):
            Dataset._trusted(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))


class TestDatasetValidation:
    def test_rejects_out_of_range_features(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[1.5, 0.0]]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((0, 2)))
