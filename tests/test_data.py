"""Dataset loaders, class collapsing, synthetic blobs, and run manifests."""

import hashlib
import struct

import numpy as np
import pytest

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
