"""Shared fixtures: small trained networks and datasets."""

import numpy as np
import pytest

from pbcert.config import load_config
from pbcert.data import synthetic_blobs
from pbcert.nnet import NetSpec, TrainerConfig, train


def settings(section: str, **overrides) -> dict:
    """The default settings `pbcert` runs with, from `config.SCHEMA`, with
    `overrides` replacing some.  `section` is a config section, or "grid"
    for `RunConfig.grid_settings`; an override that is not one of its keys
    raises KeyError."""
    config = load_config()
    values = config.grid_settings if section == "grid" else config.values[section]
    unknown = set(overrides) - set(values)
    if unknown:
        raise KeyError(f"not {section} settings: {sorted(unknown)}")
    return {**values, **overrides}


@pytest.fixture(scope="session")
def blob_data():
    train_ds = synthetic_blobs(600, 12, 3, 4.0, seed=11, split="train")
    test_ds = synthetic_blobs(400, 12, 3, 4.0, seed=11, split="test")
    return train_ds, test_ds


@pytest.fixture(scope="session")
def trained_net(blob_data):
    train_ds, test_ds = blob_data
    spec = NetSpec((12, 10, 3))
    config = TrainerConfig(**settings("train", epochs=6, batch_size=64,
                                      lr=0.05))
    record = train(spec, train_ds, config, seed=11, test_data=test_ds)
    return spec, record


def random_theta(spec: NetSpec, seed: int, scale: float = 0.7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(spec.n_params)
