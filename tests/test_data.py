"""Dataset loaders, class collapsing, synthetic blobs, and run manifests."""

import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pbcert
from tests.conftest import settings, write_idx_pair
from pbcert.data import (
    DataFormatError,
    Dataset,
    collapse_classes,
    load_cifar_bin,
    load_idx,
    synthetic_blobs,
)
from pbcert.manifest import (
    DATASET_MAGIC,
    ManifestError,
    _write_arrays,
    load_dataset,
    load_params,
    load_test_data,
    load_train_record,
    save_dataset,
    save_params,
    save_train_record,
)
from pbcert.nnet import NetSpec, TrainerConfig, train


class TestIdx:
    def test_enumerated_pixels(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, range(8), [3, 1])
        ds = load_idx(images, labels)
        assert ds.n == 2 and ds.d == 4 and ds.k == 4
        assert np.allclose(ds.X, np.arange(8).reshape(2, 4) / 255.0)
        assert np.array_equal(ds.y, [3, 1])

    def test_wrong_image_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, range(8), [0, 1],
                                        image_magic=0x807)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(images, labels)

    def test_wrong_label_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, range(8), [0, 1],
                                        label_magic=0x803)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(images, labels)

    def test_truncated_pixels(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, range(8), [0, 1], truncate=3)
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(images, labels)

    def test_empty_file(self, tmp_path):
        images = tmp_path / "empty.idx"
        images.write_bytes(b"")
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(images, images)

    @pytest.mark.parametrize("extra_pixels, extra_labels", [
        (7, 0), (1, 0), (0, 2), (0, 1)])
    def test_bytes_after_the_payload_rejected(self, tmp_path, extra_pixels,
                                              extra_labels):
        images, labels = write_idx_pair(tmp_path, range(8), [0, 1])
        assert load_idx(images, labels).n == 2
        images.write_bytes(images.read_bytes() + bytes(extra_pixels))
        labels.write_bytes(labels.read_bytes() + bytes(extra_labels))
        bad = images if extra_pixels else labels
        with pytest.raises(DataFormatError, match=re.escape(
                f"trailing bytes after the payload of {bad}")):
            load_idx(images, labels)

    @pytest.mark.parametrize("rows, cols, bad", [
        (-2, -2, "rows -2"), (2, 0, "cols 0"), (0, 4, "rows 0")])
    def test_image_dimensions_below_one_rejected(self, tmp_path, rows, cols,
                                                 bad):
        images, labels = write_idx_pair(tmp_path, range(12), [0, 1, 0],
                                        rows=rows, cols=cols)
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{bad} in {images}")):
            load_idx(images, labels)

    @pytest.mark.parametrize("count", [0, -3])
    def test_label_count_below_one_rejected(self, tmp_path, count):
        images, labels = write_idx_pair(tmp_path, range(8), [0, 1])
        labels.write_bytes(struct.pack(">ii", 0x801, count) + bytes([0, 1]))
        with pytest.raises(DataFormatError, match=re.escape(
                f"label count {count} in {labels}")):
            load_idx(images, labels)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_header_claiming_more_than_the_file_is_refused_unread(
            self, tmp_path, which):
        """A header that claims 2**31 - 1 records of a 784-byte file is
        refused, naming the file, before the claimed bytes are reserved."""
        images, labels = write_idx_pair(tmp_path, bytes(784), [0], rows=28,
                                        cols=28)
        if which == "images":
            images.write_bytes(struct.pack(">iiii", 0x803, 2**31 - 1, 28, 28)
                               + bytes(784))
        else:
            labels.write_bytes(struct.pack(">ii", 0x801, 2**31 - 1) + bytes(1))
        bad = images if which == "images" else labels
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=re.escape(
                    f"truncated file while reading {which[:-1]} data of {bad}")):
                load_idx(images, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_count_mismatch(self, tmp_path):
        images, _ = write_idx_pair(tmp_path, range(8), [0, 1])
        labels_path = tmp_path / "short.idx"
        labels_path.write_bytes(struct.pack(">ii", 0x801, 1) + bytes([0]))
        with pytest.raises(DataFormatError, match="count"):
            load_idx(images, labels_path)


def write_cifar_batch(path, records):
    blob = b"".join(bytes([label]) + bytes(pixels)
                    for label, pixels in records)
    path.write_bytes(blob)


class TestCifar:
    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar_batch(path, [(5, [7] * 3072)])
        ds = load_cifar_bin([path])
        assert ds.n == 1 and ds.d == 3072 and ds.k == 10
        assert ds.y[0] == 5
        assert np.allclose(ds.X, 7 / 255.0)

    def test_batches_concatenate(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cifar_batch(a, [(0, [1] * 3072), (1, [2] * 3072)])
        write_cifar_batch(b, [(2, [3] * 3072)])
        ds = load_cifar_bin([a, b])
        assert ds.n == 3
        assert np.array_equal(ds.y, [0, 1, 2])

    def test_bad_record_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(DataFormatError, match="multiple"):
            load_cifar_bin([path])

    def test_empty_batch(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_cifar_bin([path])


class TestCollapse:
    def _ten_class(self):
        y = np.arange(10)
        return Dataset(X=np.zeros((10, 2)), y=y, k=10)

    def test_collapse_to_two(self):
        ds = collapse_classes(self._ten_class(), 2)
        assert ds.k == 2
        assert np.array_equal(ds.y, [0] * 5 + [1] * 5)

    def test_collapse_to_five(self):
        ds = collapse_classes(self._ten_class(), 5)
        assert ds.k == 5
        assert np.array_equal(ds.y, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4])

    def test_mass_preserved(self):
        ds = collapse_classes(self._ten_class(), 2)
        assert ds.n == 10
        assert np.bincount(ds.y).tolist() == [5, 5]

    def test_requires_ten_classes(self):
        ds = Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 2]), k=3)
        with pytest.raises(ValueError):
            collapse_classes(ds, 2)

    def test_rejects_other_targets(self):
        with pytest.raises(ValueError):
            collapse_classes(self._ten_class(), 3)


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(X=np.zeros((0, 2)), y=np.zeros(0, dtype=int), k=2)

    def test_label_range(self):
        with pytest.raises(DataFormatError):
            Dataset(X=np.zeros((2, 2)), y=np.array([0, 2]), k=2)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([0]), k=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_refused_in_any_cell(self, value):
        for cell in np.ndindex(3, 4):
            X = np.linspace(-1e300, 1e300, 12).reshape(3, 4)
            X[cell] = value
            with pytest.raises(DataFormatError, match="^non-finite inputs$"):
                Dataset(X=X, y=np.zeros(3, dtype=np.int64), k=1)

    def test_checks_make_no_n_by_d_temporary(self):
        """A finiteness mask of this X would take 1.6 MB."""
        rng = np.random.default_rng(3)
        X = rng.random((2000, 784))
        y = rng.integers(0, 2, 2000)
        Dataset(X=X, y=y, k=2)
        tracemalloc.start()
        try:
            Dataset(X=X, y=y, k=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_arrays_frozen(self):
        ds = Dataset(X=np.zeros((2, 2)), y=np.array([0, 1]), k=2)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0


def nearest_mean_error(train_ds, test_ds):
    means = np.array([train_ds.X[train_ds.y == c].mean(axis=0)
                      for c in range(train_ds.k)])
    dist = ((test_ds.X[:, None, :] - means[None]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(dist, axis=1) != test_ds.y))


class TestBlobs:
    def test_deterministic(self):
        a = synthetic_blobs(50, 4, 3, 2.0, seed=1)
        b = synthetic_blobs(50, 4, 3, 2.0, seed=1)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_splits_differ_but_share_means(self):
        train_ds = synthetic_blobs(4000, 6, 3, 6.0, seed=2, split="train")
        test_ds = synthetic_blobs(4000, 6, 3, 6.0, seed=2, split="test")
        assert not np.array_equal(train_ds.X[:10], test_ds.X[:10])
        for c in range(3):
            mu_train = train_ds.X[train_ds.y == c].mean(axis=0)
            mu_test = test_ds.X[test_ds.y == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 0.5

    def test_zero_separation_is_chance_level(self):
        train_ds = synthetic_blobs(4000, 5, 4, 0.0, seed=3, split="train")
        test_ds = synthetic_blobs(4000, 5, 4, 0.0, seed=3, split="test")
        err = nearest_mean_error(train_ds, test_ds)
        assert abs(err - (1 - 1 / 4)) < 0.05

    def test_wide_separation_is_separable(self):
        train_ds = synthetic_blobs(2000, 5, 3, 10.0, seed=4, split="train")
        test_ds = synthetic_blobs(2000, 5, 3, 10.0, seed=4, split="test")
        assert nearest_mean_error(train_ds, test_ds) < 0.01

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synthetic_blobs(0, 4, 2, 1.0, seed=0)


def rewrite(path, data: bytes) -> str:
    """Replace a file's bytes; returns their sha256, so a load reaches the
    structural checks behind the digest check."""
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def test_only_the_manifest_names_the_run_files():
    """`pbcert.manifest` is the one module that knows a run directory's
    file names."""
    names = ("meta.json", "theta0.bin", "theta_star.bin", "train_data.bin",
             "test_data.bin")
    package = Path(pbcert.__file__).parent
    spelled = [(path.name, name) for path in sorted(package.glob("*.py"))
               if path.name != "manifest.py"
               for name in names if name in path.read_text()]
    assert spelled == []


class TestManifest:
    def test_params_round_trip(self, tmp_path):
        spec = NetSpec((4, 3, 2))
        theta = np.random.default_rng(0).standard_normal(spec.n_params)
        digest = save_params(tmp_path / "w.bin", spec, theta)
        assert digest == hashlib.sha256(
            (tmp_path / "w.bin").read_bytes()).hexdigest()
        assert np.array_equal(load_params(tmp_path / "w.bin", spec, digest),
                              theta)

    def test_params_wrong_spec(self, tmp_path):
        spec = NetSpec((4, 3, 2))
        digest = save_params(tmp_path / "w.bin", spec, np.zeros(spec.n_params))
        with pytest.raises(ManifestError, match="spec"):
            load_params(tmp_path / "w.bin", NetSpec((4, 4, 2)), digest)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        digest = rewrite(path, b"XXXX" + bytes(16))
        with pytest.raises(ManifestError, match="magic"):
            load_params(path, NetSpec((2, 2, 2)), digest)

    def test_truncated_payload(self, tmp_path):
        spec = NetSpec((4, 3, 2))
        path = tmp_path / "w.bin"
        save_params(path, spec, np.zeros(spec.n_params))
        digest = rewrite(path, path.read_bytes()[:-8])
        with pytest.raises(ManifestError, match="truncated"):
            load_params(path, spec, digest)

    @pytest.mark.parametrize("cut, problem", [
        (6, "truncated header"), (12, "truncated header"),
        (None, "trailing bytes")])
    def test_malformed_arrays_rejected(self, tmp_path, cut, problem):
        ds = synthetic_blobs(30, 4, 3, 2.0, seed=5)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        data = path.read_bytes()
        digest = rewrite(path, data[:cut] if cut else data + bytes(800))
        with pytest.raises(ManifestError, match=problem):
            load_dataset(path, ds.k, digest)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_array_count_rejected(self, tmp_path, count):
        ds = synthetic_blobs(30, 4, 3, 2.0, seed=5)
        path = tmp_path / "d.bin"
        digest = _write_arrays(path, DATASET_MAGIC, [ds.X, ds.y, ds.y][:count])
        with pytest.raises(ManifestError, match=f"{count} arrays, expected 2"):
            load_dataset(path, ds.k, digest)

    def test_dataset_round_trip(self, tmp_path):
        ds = synthetic_blobs(30, 4, 3, 2.0, seed=5)
        digest = save_dataset(tmp_path / "d.bin", ds)
        loaded = load_dataset(tmp_path / "d.bin", ds.k, digest)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)

    def test_train_record_round_trip(self, tmp_path, blob_data):
        train_ds, test_ds = blob_data
        spec = NetSpec((12, 6, 3))
        config = TrainerConfig(**settings("train", epochs=1))
        record = train(spec, train_ds, config, seed=8)
        save_train_record(tmp_path, record, train_ds, test_ds)
        loaded, loaded_train = load_train_record(tmp_path)
        loaded_test = load_test_data(tmp_path)
        assert loaded.spec == spec
        assert np.array_equal(loaded.theta_star, record.theta_star)
        assert np.array_equal(loaded.theta0, record.theta0)
        assert loaded.config == record.config
        assert loaded.final_train_error == record.final_train_error
        assert loaded.final_test_error == record.final_test_error
        for ds, back in ((train_ds, loaded_train), (test_ds, loaded_test)):
            assert np.array_equal(back.X, ds.X)
            assert np.array_equal(back.y, ds.y)
            assert back.k == ds.k

    def test_tampered_parameters_rejected(self, tmp_path, blob_data):
        train_ds, test_ds = blob_data
        config = TrainerConfig(**settings("train", epochs=1))
        record = train(NetSpec((12, 6, 3)), train_ds, config, seed=8)
        save_train_record(tmp_path, record, train_ds, test_ds)
        path = tmp_path / "theta_star.bin"
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0x01
        path.write_bytes(bytes(payload))
        with pytest.raises(ManifestError, match="theta_star.bin"):
            load_train_record(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("widths", [12, "x", 3], "not a list of integers"),
        ("widths", [12, 6.5, 3], "not a list of integers"),
        ("widths", [12, 0, 3], "widths must be positive"),
        ("widths", [12, 3], "need at least one hidden layer"),
        ("widths", 12, "not a list of integers"),
        ("seed", "x", "not an integer"),
        ("seed", 8.0, "not an integer"),
    ], ids=["widths-string", "widths-fraction", "widths-zero",
            "widths-no-hidden", "widths-not-list", "seed-string",
            "seed-float"])
    def test_bad_widths_or_seed_rejected_naming_the_key(
            self, tmp_path, blob_data, key, value, message):
        train_ds, test_ds = blob_data
        config = TrainerConfig(**settings("train", epochs=1))
        record = train(NetSpec((12, 6, 3)), train_ds, config, seed=8)
        meta_path = save_train_record(tmp_path, record, train_ds, test_ds)
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        expected = re.escape(f"{meta_path}: bad {key!r} {value!r}: {message}")
        for load in (load_train_record, load_test_data):
            with pytest.raises(ManifestError, match=expected):
                load(tmp_path)
