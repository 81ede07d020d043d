"""Declarative run configuration.

A single INI-style file with flat key-value sections drives every
command, so experiments are reproducible and diffable.  Unknown sections
or keys are rejected; keys are matched as written, in a file as in
`--set`.  CLI `--set section.key=value` pairs override file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    pass


# section -> key -> (type tag, default as string): each default's only home
SCHEMA = {
    "data": {
        "source": ("str", "blobs"),            # blobs | idx | cifar
        "collapse": ("int", "0"),              # 0 (off) | 2 | 5
        "n": ("int", "1000"),
        "d": ("int", "20"),
        "k": ("int", "2"),
        "separation": ("float", "4.0"),
        "test_n": ("int", "1000"),
        "images": ("str", ""),
        "labels": ("str", ""),
        "test_images": ("str", ""),
        "test_labels": ("str", ""),
        "batches": ("str", ""),
        "test_batches": ("str", ""),
    },
    "net": {
        "hidden": ("int_list", "32,32"),
    },
    "train": {
        "optimizer": ("str", "sgd"),
        "lr": ("float", "0.01"),
        "momentum": ("float", "0.9"),
        "decay": ("float", "0.001"),
        "epochs": ("int", "10"),
        "batch_size": ("int", "128"),
        "loss": ("str", "categorical"),
        "init_gain": ("float", "1.0"),
    },
    "posterior": {
        "families": ("str_list", "iso-zero,iso-init"),
        "beta_min": ("float", "1.0"),
        "beta_max": ("float", "5.0"),
        "beta_count": ("int", "5"),
        "lambda_min": ("float", "0.031"),
        "lambda_max": ("float", "0.3"),
        "lambda_count": ("int", "5"),
        "vi_epochs": ("int", "5"),
        "vi_batch_size": ("int", "100"),
        "vi_lr": ("float", "0.1"),
    },
    "bound": {
        "m": ("int", "100"),
        "delta": ("float", "0.025"),
        "delta_prime": ("float", "0.025"),
    },
    "probe": {
        "n_directions": ("int", "4"),
        "t_min": ("float", "-200.0"),
        "t_max": ("float", "200.0"),
        "t_points": ("int", "81"),
    },
    "run": {
        "seed": ("int", "0"),
    },
}

_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "int_list": lambda s: [int(v) for v in s.split(",") if v.strip()],
    "str_list": lambda s: [v.strip() for v in s.split(",") if v.strip()],
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def beta_grid(self):
        return list(np.linspace(self.get("posterior", "beta_min"),
                                self.get("posterior", "beta_max"),
                                self.get("posterior", "beta_count")))

    @property
    def lambda_grid(self):
        """The geometric lambda grid; an end <= 0 raises ValueError naming
        its key (np.geomspace would warn and return nan points)."""
        keys = ("lambda_min", "lambda_max")
        ends = [self.get("posterior", key) for key in keys]
        for key, end in zip(keys, ends):
            if not end > 0:
                raise ValueError(f"posterior.{key} must be positive; got {end}")
        return list(np.geomspace(*ends, self.get("posterior", "lambda_count")))

    @property
    def grid_settings(self) -> dict:
        """`certify.GridContext`'s settings: [bound], run.seed, posterior.vi_*."""
        return {**self.values["bound"], "seed": self.get("run", "seed"),
                **{key: value for key, value in self.values["posterior"].items()
                   if key.startswith("vi_")}}


def _parse_value(section: str, key: str, raw: str):
    """A setting's value; a float that is nan or infinite (1e400 too) is
    refused, since no setting has a use for one."""
    kind, _ = SCHEMA[section][key]
    try:
        value = _PARSERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    if kind == "float" and not np.isfinite(value):
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} is not "
                          f"finite")
    return value


def load_config(path=None, overrides=None) -> RunConfig:
    """Parse a config file plus `section.key=value` override strings.

    Every field has a default; a missing path yields the all-default
    config only when path is None.
    """
    values = {
        section: {key: _parse_value(section, key, default)
                  for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    if path is not None:
        # no interpolation: a '%' in a value (a data path) is taken as
        # written; no default section: [DEFAULT] is refused as unknown
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        parser.optionxform = str        # keys are matched as written, like --set
        try:
            with open(path) as f:
                parser.read_file(f)
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: "
                              f"{exc.strerror}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"unparsable config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                values[section][key] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        values[section][key] = _parse_value(section, key, raw)
    return RunConfig(values=values)
