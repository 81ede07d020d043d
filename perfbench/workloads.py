"""Benchmark workloads: generated inputs and one INI config per workload.

Every input is derived from the workload seed, so the same seed gives the
same bytes.  The data follow the acceptance-fixture recipe (784-dim
two-prototype data with 10% label flips) and are written as IDX files, so
`pbcert train` exercises the real IDX ingest path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict         # section -> key -> value, without data paths


_DESK_NET = {
    "net": {"hidden": "100,100"},
    "train": {"optimizer": "sgd", "lr": "0.01", "epochs": "10",
              "batch_size": "128"},
    "probe": {"n_directions": "2", "t_points": "11"},
}

# closed-diag and closed-joint are left out: `pbcert certify` raises
# OverflowError in curvature._label_uniforms for every run.seed whose Fisher
# child seed is >= 2**63 (about half of all seeds), and no workload may fail.
# A per-call-overhead workload (2000-row blobs, 100 cells) is left out too:
# its CPU time drifted by 15-30% between runs with the host's load, and
# no end-to-end bound may exceed 25%.
WORKLOADS = {
    "desk-mc": Workload(
        name="desk-mc",
        why=("Large-batch forward bound: MC draws take ~90% of certify and "
             "10k-row 784-100-100-2 forwards ~80%; also probe points, block "
             "Hessians and skfac-block sampling; no VI"),
        config={
            **_DESK_NET,
            "posterior": {"families": "iso-zero,iso-init,skfac-block",
                          "beta_count": "2", "lambda_min": "0.001",
                          "lambda_max": "0.003", "lambda_count": "2"},
            "bound": {"m": "8"},
        },
    ),
    "desk-vi": Workload(
        name="desk-vi",
        why=("Small-batch VI bound: 2k VI steps on 100-row batches take ~92% "
             "of certify (own vector updates ~66%, nnet.grad ~24%); MC takes "
             "~7% and all forwards ~20%"),
        config={
            **_DESK_NET,
            "posterior": {"families": "vi-diag", "beta_count": "2",
                          "lambda_min": "0.001", "lambda_max": "0.003",
                          "lambda_count": "2", "vi_epochs": "5",
                          "vi_batch_size": "100"},
            # The Chernoff gap at m = 4 is 1.05, so every bound_value and
            # best_bound read 1 here; m = 8 (gap 0.74) still gives 0.9996-1.
            "bound": {"m": "4"},
        },
    ),
}


def _write_idx(images_path: Path, labels_path: Path, pixels: np.ndarray,
               labels: np.ndarray) -> None:
    n, d = pixels.shape
    side = int(round(d ** 0.5))
    if side * side != d:
        raise ValueError(f"pixel count {d} is not a square")
    images_path.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, side, side)
                            + pixels.astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, n)
                            + labels.astype(np.uint8).tobytes())


def desk_arrays(seed: int, n_train: int = 10000, n_test: int = 2000,
                d: int = 784, k: int = 2):
    """Acceptance-fixture data: two random {0.45, 0.55} prototypes plus
    N(0, 0.25^2) noise, clipped to [0, 1], 10% label flips.  Pixels are
    quantized to uint8 because the IDX loader divides by 255."""
    proto_rng, train_rng, test_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    prototypes = np.where(proto_rng.random((k, d)) < 0.5, 0.45, 0.55)

    def make(n, rng):
        y = rng.integers(0, k, size=n)
        X = np.clip(prototypes[y] + 0.25 * rng.standard_normal((n, d)), 0.0, 1.0)
        y = np.where(rng.random(n) < 0.1, 1 - y, y)
        return np.rint(X * 255.0).astype(np.uint8), y.astype(np.uint8)

    return make(n_train, train_rng), make(n_test, test_rng)


def _ini_text(config: dict) -> str:
    lines = []
    for section, values in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Generate the workload's inputs under out_dir; return the INI path."""
    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    (train_x, train_y), (test_x, test_y) = desk_arrays(seed)
    paths = {key: out_dir / f"{key}.idx" for key in
             ("images", "labels", "test_images", "test_labels")}
    _write_idx(paths["images"], paths["labels"], train_x, train_y)
    _write_idx(paths["test_images"], paths["test_labels"], test_x, test_y)
    config = {section: dict(values) for section, values in workload.config.items()}
    config["data"] = {"source": "idx",
                      **{key: str(path) for key, path in paths.items()}}
    config["run"] = {"seed": str(seed)}
    ini = out_dir / f"{workload.name}.ini"
    ini.write_text(_ini_text(config))
    return ini
