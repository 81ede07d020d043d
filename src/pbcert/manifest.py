"""Run manifests: binary parameter/dataset files plus JSON metadata.

Binary layout (little-endian throughout): 4-byte magic, uint32 array
count, then per array a uint32 ndim followed by uint64 dims, then all
payloads as float64.  Labels in dataset files are stored as int64.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from pbcert.data import Dataset
from pbcert.nnet import NetSpec, ParamIndex, TrainerConfig, TrainRecord

PARAMS_MAGIC = b"PBW1"
DATASET_MAGIC = b"PBD1"


class ManifestError(ValueError):
    pass


def _write_arrays(path, magic: bytes, arrays) -> None:
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        for arr in arrays:
            f.write(np.ascontiguousarray(arr).tobytes())


def _read_arrays(path, magic: bytes, dtypes) -> list:
    with open(path, "rb") as f:
        if f.read(4) != magic:
            raise ManifestError(f"{path}: bad magic")
        (count,) = struct.unpack("<I", f.read(4))
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack("<I", f.read(4))
            shapes.append(struct.unpack(f"<{ndim}Q", f.read(8 * ndim)))
        arrays = []
        for i, shape in enumerate(shapes):
            dtype = np.dtype(dtypes[i] if i < len(dtypes) else dtypes[-1])
            n_items = int(np.prod(shape)) if shape else 1
            buf = f.read(n_items * dtype.itemsize)
            if len(buf) != n_items * dtype.itemsize:
                raise ManifestError(f"{path}: truncated payload")
            arrays.append(np.frombuffer(buf, dtype=dtype).reshape(shape))
    return arrays


def save_params(path, spec: NetSpec, theta: np.ndarray) -> None:
    mats = ParamIndex(spec).to_matrices(theta)
    _write_arrays(path, PARAMS_MAGIC, [m.astype("<f8") for m in mats])


def load_params(path, spec: NetSpec) -> np.ndarray:
    mats = _read_arrays(path, PARAMS_MAGIC, ["<f8"])
    expected = spec.layer_shapes
    if [tuple(m.shape) for m in mats] != [tuple(s) for s in expected]:
        raise ManifestError(f"{path}: shapes do not match net spec")
    return ParamIndex(spec).to_vector(mats)


def save_dataset(path, dataset: Dataset) -> None:
    _write_arrays(path, DATASET_MAGIC,
                  [dataset.X.astype("<f8"), dataset.y.astype("<i8")])


def load_dataset(path, k: int) -> Dataset:
    X, y = _read_arrays(path, DATASET_MAGIC, ["<f8", "<i8"])
    return Dataset(X=X, y=y, k=k)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_train_record(out_dir, record: TrainRecord, extra: dict = None) -> Path:
    """Persist a training run: theta0/theta_star binaries + metadata JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_params(out_dir / "theta0.bin", record.spec, record.theta0)
    save_params(out_dir / "theta_star.bin", record.spec, record.theta_star)
    meta = {
        "widths": list(record.spec.widths),
        "seed": record.seed,
        "trainer": dataclasses.asdict(record.config),
        "epoch_losses": record.epoch_losses,
        "final_train_error": record.final_train_error,
        "final_test_error": record.final_test_error,
        "theta0_sha256": file_digest(out_dir / "theta0.bin"),
        "theta_star_sha256": file_digest(out_dir / "theta_star.bin"),
    }
    if extra:
        meta.update(extra)
    with open(out_dir / "meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return out_dir / "meta.json"


def load_train_record(run_dir) -> TrainRecord:
    """Read a run written by save_train_record; a parameter file whose sha256
    differs from the one meta.json recorded raises ManifestError."""
    run_dir = Path(run_dir)
    with open(run_dir / "meta.json") as f:
        meta = json.load(f)
    for name in ("theta0", "theta_star"):
        if file_digest(run_dir / f"{name}.bin") != meta.get(f"{name}_sha256"):
            raise ManifestError(f"{run_dir / f'{name}.bin'}: sha256 differs "
                                f"from meta.json")
    spec = NetSpec(tuple(meta["widths"]))
    config = TrainerConfig(**meta["trainer"])
    return TrainRecord(
        spec=spec,
        config=config,
        seed=meta["seed"],
        theta0=load_params(run_dir / "theta0.bin", spec),
        theta_star=load_params(run_dir / "theta_star.bin", spec),
        epoch_losses=meta["epoch_losses"],
        final_train_error=meta["final_train_error"],
        final_test_error=meta["final_test_error"],
    )
