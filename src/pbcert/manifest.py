"""Run directories: binary parameter/dataset files plus JSON metadata.
No other module knows a run directory's layout.

Binary layout (little-endian throughout): 4-byte magic, uint32 array
count, then per array a uint32 ndim followed by uint64 dims, then all
payloads as float64.  Labels in dataset files are stored as int64.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from pbcert.data import Dataset
from pbcert.nnet import NetSpec, TrainerConfig, TrainRecord

PARAMS_MAGIC = b"PBW1"
DATASET_MAGIC = b"PBD1"


class ManifestError(ValueError):
    pass


class _Meta(dict):
    """meta.json's object; a key it lacks raises ManifestError naming it."""

    def __missing__(self, key):
        raise ManifestError(f"{self.path}: no {key!r} key")


def _write_arrays(path, magic: bytes, arrays) -> str:
    """Write the file; returns the sha256 of the bytes written."""
    header = [magic, struct.pack("<I", len(arrays))]
    header += [struct.pack(f"<I{a.ndim}Q", a.ndim, *a.shape) for a in arrays]
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in header + [np.ascontiguousarray(a) for a in arrays]:
            digest.update(chunk)
            f.write(chunk)
    return digest.hexdigest()


def _read_arrays(path, magic: bytes, dtypes, sha256: str) -> list:
    """The arrays of a file written by _write_arrays, all parsed from the
    one read, whose sha256 must equal `sha256`."""
    with open(path, "rb") as f:
        buf = f.read()
    if hashlib.sha256(buf).hexdigest() != sha256:
        raise ManifestError(f"{path}: sha256 differs from meta.json")
    if buf[:4] != magic:
        raise ManifestError(f"{path}: bad magic")
    try:
        (count,) = struct.unpack_from("<I", buf, 4)
        offset = 8
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", buf, offset)
            shapes.append(struct.unpack_from(f"<{ndim}Q", buf, offset + 4))
            offset += 4 + 8 * ndim
    except struct.error as exc:
        raise ManifestError(f"{path}: truncated header") from exc
    arrays = []
    for i, shape in enumerate(shapes):
        dtype = np.dtype(dtypes[i] if i < len(dtypes) else dtypes[-1])
        n_items = math.prod(shape)
        if offset + n_items * dtype.itemsize > len(buf):
            raise ManifestError(f"{path}: truncated payload")
        arrays.append(np.frombuffer(buf, dtype, n_items, offset).reshape(shape))
        offset += n_items * dtype.itemsize
    if offset != len(buf):
        raise ManifestError(f"{path}: trailing bytes after the payloads")
    return arrays


def save_params(path, spec: NetSpec, theta: np.ndarray) -> str:
    mats = spec.to_matrices(theta)
    return _write_arrays(path, PARAMS_MAGIC,
                         [m.astype("<f8", copy=False) for m in mats])


def load_params(path, spec: NetSpec, sha256: str) -> np.ndarray:
    mats = _read_arrays(path, PARAMS_MAGIC, ["<f8"], sha256)
    if [m.shape for m in mats] != spec.layer_shapes:
        raise ManifestError(f"{path}: shapes do not match net spec")
    return spec.to_vector(mats)


def save_dataset(path, dataset: Dataset) -> str:
    return _write_arrays(path, DATASET_MAGIC,
                         [dataset.X.astype("<f8", copy=False),
                          dataset.y.astype("<i8", copy=False)])


def load_dataset(path, k: int, sha256: str) -> Dataset:
    arrays = _read_arrays(path, DATASET_MAGIC, ["<f8", "<i8"], sha256)
    if len(arrays) != 2:
        raise ManifestError(f"{path}: {len(arrays)} arrays, expected 2")
    X, y = arrays
    return Dataset(X=X, y=y, k=k)


def save_train_record(out_dir, record: TrainRecord, train_data: Dataset,
                      test_data: Dataset, extra: dict = None) -> Path:
    """Write a run: the parameters and data as .bin files, and meta.json
    with the training metadata and the sha256 of each .bin file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "widths": list(record.spec.widths),
        "seed": record.seed,
        "trainer": dataclasses.asdict(record.config),
        "final_train_error": record.final_train_error,
        "final_test_error": record.final_test_error,
        "theta0_sha256": save_params(out_dir / "theta0.bin", record.spec,
                                     record.theta0),
        "theta_star_sha256": save_params(out_dir / "theta_star.bin",
                                         record.spec, record.theta_star),
        "train_data_sha256": save_dataset(out_dir / "train_data.bin",
                                          train_data),
        "test_data_sha256": save_dataset(out_dir / "test_data.bin", test_data),
    }
    if extra:
        meta.update(extra)
    with open(out_dir / "meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return out_dir / "meta.json"


def _open_run(run_dir) -> tuple:
    """meta.json of a run, its NetSpec, and a function that reads one of its
    .bin files and checks it against the sha256 meta.json recorded.  A
    `widths` that makes no NetSpec, or a `seed` that is not an integer,
    raises ManifestError naming the key."""
    run_dir = Path(run_dir)
    with open(run_dir / "meta.json") as f:
        try:
            meta = _Meta(json.load(f))
        except (TypeError, ValueError) as exc:   # not JSON, or not an object
            raise ManifestError(f"{f.name}: not a JSON object: {exc}") from exc
    meta.path = f.name
    widths, seed = meta["widths"], meta["seed"]
    try:
        if not (isinstance(widths, list)
                and all(type(w) is int for w in widths)):
            raise ValueError("not a list of integers")
        spec = NetSpec(tuple(widths))
    except ValueError as exc:
        raise ManifestError(f"{meta.path}: bad 'widths' {widths!r}: "
                            f"{exc}") from exc
    if type(seed) is not int:
        raise ManifestError(f"{meta.path}: bad 'seed' {seed!r}: not an "
                            f"integer")

    def load(name, load_fn, arg):
        return load_fn(run_dir / f"{name}.bin", arg, meta[f"{name}_sha256"])
    return meta, spec, load


# [train] keys of runs written before training and VI shared one Adam
_RETIRED_TRAINER_KEYS = ("adam_beta1", "adam_beta2", "adam_eps")


def _trainer_config(path, trainer: dict) -> TrainerConfig:
    """The TrainerConfig of meta.json's trainer section; a retired key is
    ignored, a missing or unknown one raises ManifestError."""
    names = [f.name for f in dataclasses.fields(TrainerConfig)]
    missing = [name for name in names if name not in trainer]
    unknown = sorted(set(trainer) - set(names) - set(_RETIRED_TRAINER_KEYS))
    if missing:
        raise ManifestError(f"{path}: trainer section lacks "
                            f"{', '.join(missing)}")
    if unknown:
        raise ManifestError(f"{path}: trainer section has unknown keys "
                            f"{', '.join(unknown)}")
    return TrainerConfig(**{name: trainer[name] for name in names})


def load_train_record(run_dir) -> tuple:
    """(record, train data) of a run written by save_train_record; a .bin
    file whose sha256 differs from the one meta.json recorded raises
    ManifestError.  The test set is read only by `load_test_data`."""
    meta, spec, load = _open_run(run_dir)
    record = TrainRecord(
        spec=spec,
        config=_trainer_config(meta.path, meta["trainer"]),
        seed=meta["seed"],
        theta0=load("theta0", load_params, spec),
        theta_star=load("theta_star", load_params, spec),
        final_train_error=meta["final_train_error"],
        final_test_error=meta["final_test_error"],
    )
    k = spec.widths[-1]     # one output unit per class
    return record, load("train_data", load_dataset, k)


def load_test_data(run_dir) -> Dataset:
    """The test set of a run, checked like the files load_train_record reads."""
    _, spec, load = _open_run(run_dir)
    return load("test_data", load_dataset, spec.widths[-1])
